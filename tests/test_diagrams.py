"""Diagram verifiers: trivial instances, gates, snake invariants."""

import re
from itertools import permutations

import pytest

from semiexact.core import (Semimodule, Subsemimodule, make_boolean, make_zmod, self_module,
                            zero_module)
from semiexact.diagrams import (CLAUSES, Diagram, _require_grid, snake,
                                verify_short_five_half, verify_five, verify_five_parts,
                                verify_lemma_diagram, verify_lemma_short, verify_nine,
                                verify_nine_first, verify_nine_third, verify_short_five)
from semiexact.enumeration import UniverseSpec, enumerate_semimodules
from semiexact.errors import HypothesisError, StructureError
from semiexact.morphisms import (Morphism, classify, enumerate_hom, identity_morphism,
                                 submodule_as_module, zero_morphism)
from semiexact.quotients import bourne_congruence, quotient
from semiexact.workspace import Workspace, parse, serialize


@pytest.fixture(scope="module")
def z2mod():
    return self_module(make_zmod(2))


@pytest.fixture(scope="module")
def z2zero(z2mod):
    return zero_module(z2mod.semiring)


def _identity_2x3(max3):
    """Rows {0,1} -> max3 -> max3/{0,1} twice, identity verticals."""
    sub, incl = submodule_as_module(Subsemimodule(max3, (0, 1)))
    q = quotient(max3, bourne_congruence(Subsemimodule(max3, (0, 1))))
    ids = [identity_morphism(sub), identity_morphism(max3),
           identity_morphism(q.quotient)]
    return Diagram.from_arrows("ident", [[incl, q.projection],
                                         [incl, q.projection]], [ids])


def test_lemma_short_identity(max3):
    d = _identity_2x3(max3)
    for direction in (1, 2, 3):
        assert verify_lemma_short(d, direction).ok


def test_lemma_diagram_identity(max3):
    d = _identity_2x3(max3)
    for clause in ("1a", "1b", "2a", "3"):
        assert verify_lemma_diagram(d, clause).ok


def test_lemma_diagram_2b_identity(z2mod, z2zero):
    ids = [identity_morphism(z2zero), identity_morphism(z2mod),
           identity_morphism(z2mod)]
    d = Diagram.from_arrows(
        "i2b", [[zero_morphism(z2zero, z2mod), identity_morphism(z2mod)],
                [zero_morphism(z2zero, z2mod), identity_morphism(z2mod)]], [ids])
    assert verify_lemma_diagram(d, "2b").ok


def test_short_five_identity(z2mod, z2zero):
    # rows 0 -> Z2 -(id)-> Z2 -> 0: genuinely short exact
    into = zero_morphism(z2zero, z2mod)
    idm = identity_morphism(z2mod)
    idz = identity_morphism(z2zero)
    d = Diagram.from_arrows("sf", [[into, idm], [into, idm]],
                            [[idz, idm, idm]])
    cert = verify_short_five(d)
    assert cert.ok
    for clause in (1, 2):
        assert verify_short_five_half(d, clause).ok


def test_short_five_missing_cancellativity(sat3):
    ident = identity_morphism(sat3)
    z = zero_module(sat3.semiring)
    into = zero_morphism(z, sat3)
    out = zero_morphism(sat3, z)
    d = Diagram.from_arrows("nc", [[into, out], [into, out]],
                            [[identity_morphism(z), ident, identity_morphism(z)]])
    with pytest.raises(HypothesisError) as err:
        verify_short_five(d)
    assert "cancellative" in str(err.value)
    assert "violated by element" in str(err.value)


def test_broken_commutativity_is_hypothesis_error(z2mod):
    ident = identity_morphism(z2mod)
    flip = Morphism("flip", z2mod, z2mod, (0, 1))
    zero = zero_morphism(z2mod, z2mod)
    with pytest.raises(HypothesisError, match=re.escape("square (0,0) does not commute")) as exc:
        Diagram.from_arrows("bad", [[ident, ident], [ident, ident]],
                            [[ident, zero, ident]])
    # the witness is the first element on which the two paths differ
    assert exc.value.witness == f"element 1 of {z2mod.name}"


def _declared(d, tags):
    for tag in tags:
        d.declare(tag)
    return d


def test_declared_tag_verified(z2mod, z2zero):
    ident = identity_morphism(z2mod)
    zero = zero_morphism(z2mod, z2mod)
    with pytest.raises(HypothesisError):
        Diagram.from_arrows("tagged", [[zero, zero], [zero, zero]],
                            [[zero, zero, zero]]).declare("surjective " + zero.name)
    d = _declared(Diagram.from_arrows("tagged2", [[ident, ident], [ident, ident]],
                                      [[ident, ident, ident]]),
                  (f"iso {ident.name}", "commutes", f"cancellative {z2mod.name}"))
    assert d.hypotheses
    # row-exact and col-exact tags: every row and column of the 3x3 corner
    # grid is exact with identity maps, and 0 -> Z2 -0-> Z2 is not
    lines = [f"{kind}-exact {i}" for kind in ("row", "col") for i in range(3)]
    corner = Diagram.from_arrows("corner", *_corner_3x3(z2mod, z2zero, ident))
    assert _declared(corner, lines).hypotheses == tuple(lines)
    _declared(Diagram.from_arrows("zero-corner", *_corner_3x3(z2mod, z2zero, zero)),
              ("row-exact 0", "col-exact 0"))
    for tag in ("row-exact 1", "row-exact 2", "col-exact 1", "col-exact 2"):
        with pytest.raises(HypothesisError) as exc:
            Diagram.from_arrows("zero-corner", *_corner_3x3(z2mod, z2zero, zero)).declare(tag)
        assert exc.value.witness == f"{tag} fails"


def _corner_3x3(z2mod, z2zero, m):
    """Rows and verticals of the 3x3 grid with the zero module along its top
    row and left column and 0 -> Z2 -m-> Z2 on every other row and column."""
    oo, into = zero_morphism(z2zero, z2zero), zero_morphism(z2zero, z2mod)
    return [[oo, oo], [into, m], [into, m]], [[oo, into, into], [oo, m, m]]


def _sorted_parts(d):
    return (tuple(d.horizontals[k] for k in sorted(d.horizontals))
            + tuple(d.verticals[k] for k in sorted(d.verticals)))


def test_parts_are_in_sorted_key_order(z2mod, z2zero):
    """parts() is the horizontals and then the verticals by sorted key, for a
    grid from from_arrows, which keeps the tuple it was handed, and for a
    parsed one, whose verticals come in column by column."""
    built = Diagram.from_arrows("C", *_corner_3x3(z2mod, z2zero, identity_morphism(z2mod)))
    ws = Workspace()
    ws.semirings["Z2"] = z2mod.semiring
    ws.modules.update(Z=z2mod, O=z2zero)
    ws.morphisms.update({f"m{i}": f for i, f in enumerate(dict.fromkeys(built.parts()))})
    ws.diagrams["C"] = built
    parsed = parse(serialize(ws)).diagrams["C"]
    assert list(parsed.verticals) != sorted(parsed.verticals)
    empty = Diagram("E", [], {}, {})
    assert (empty.rows, empty.cols, empty.parts()) == (0, 0, ())
    for d in (built, parsed):
        assert d.parts() == _sorted_parts(d)
        assert d.parts() is d.parts()


def test_grid_of_wrong_shape_or_with_a_part_missing_is_refused(z2mod):
    """A grid of another shape than the clause's is refused by shape, and
    one built with a part missing by that part's name, as the clauses and
    snake read them, though every other part is there."""
    ident = identity_morphism(z2mod)
    nodes = [[z2mod] * 3] * 2
    horizontals = {(r, c): ident for r in range(2) for c in range(2)}
    verticals = {(0, c): ident for c in range(3)}
    full = Diagram("full", nodes, horizontals, verticals)
    _require_grid(full, 2, 3, "full")
    for rows, cols in ((3, 3), (2, 5)):
        with pytest.raises(StructureError, match=f"x: expected a {rows}x{cols} diagram, got full"):
            _require_grid(full, rows, cols, "x")
    for gone, kind in (((1, 0), "horizontal"), ((0, 2), "vertical"), ((0, 0), "vertical")):
        h, v = dict(horizontals), dict(verticals)
        del (h if kind == "horizontal" else v)[gone]
        d = Diagram("partial", nodes, h, v)
        missing = re.escape(f"missing {kind} at ({gone[0]},{gone[1]})")
        with pytest.raises(StructureError, match="short.1: " + missing):
            verify_lemma_short(d, 1)
        with pytest.raises(StructureError, match="snake: " + missing):
            snake(d)


@pytest.mark.parametrize("kind, key, grid", [
    ("horizontal", (0, 1), "ZZO ZZZ"), ("horizontal", (0, 2), "ZZZ ZZZ"),
    ("horizontal", (2, 0), "ZZZ ZZZ"), ("horizontal", (0, -1), "ZZZ ZZZ"),
    ("horizontal", (-1, 0), "ZZZ ZZZ"), ("vertical", (1, 0), "ZZZ ZZZ"),
    ("vertical", (0, 3), "ZZZ ZZZ"), ("vertical", (0, -1), "ZZZ ZZZ"),
    ("vertical", (-1, 1), "ZZZ ZZZ"), ("vertical", (0, 2), "ZZZ ZZ"),
    ("vertical", (0, 2), "ZZ ZZZ")],
    ids=["codomain-not-next-node", "right-of-grid", "below-grid", "negative-column",
         "negative-row", "below-last-row", "right-of-grid-v", "negative-column-v",
         "negative-row-v", "past-shorter-row-below", "past-shorter-row-above"])
def test_arrow_that_misses_its_nodes_is_refused(z2mod, z2zero, kind, key, grid):
    """An arrow whose ends are not the node at its key and the next one
    along, or whose key is off the grid, negative or past the end of a
    shorter row, is refused by kind and key; horizontals are checked first."""
    ident = identity_morphism(z2mod)
    nodes = [[{"Z": z2mod, "O": z2zero}[n] for n in row] for row in grid.split()]
    arrows = {"horizontal": {(r, c): ident for r, row in enumerate(nodes)
                             for c in range(len(row) - 1)},
              "vertical": {(0, c): ident for c in range(min(map(len, nodes)))}}
    arrows[kind][key] = ident
    with pytest.raises(StructureError, match=re.escape(
            f"diagram bad: {kind} at ({key[0]},{key[1]}) does not match its nodes")):
        Diagram("bad", nodes, arrows["horizontal"], arrows["vertical"])


def test_five_row_witness_is_exact_at(z2mod):
    """A 2x5 row is witnessed at its first inexact object in exact_at's
    format, as on 2x3 and 3x3 grids."""
    zero, ident = zero_morphism(z2mod, z2mod), identity_morphism(z2mod)
    d = Diagram.from_arrows("zero5", [[zero] * 4, [zero] * 4], [[ident] * 5])
    with pytest.raises(HypothesisError) as exc:
        verify_five(d, 1)
    assert (exc.value.assertion_id, exc.value.witness) == (
        "five.1: first row exact", "element 1 separates image(0[Z2->Z2]) from kernel(0[Z2->Z2])")


def test_five_identity(z2mod, z2zero):
    # 0 -> 0 -> Z2 -(id)-> Z2 -> 0 is exact at the three interior objects
    into = zero_morphism(z2zero, z2mod)
    out = zero_morphism(z2mod, z2zero)
    idz = identity_morphism(z2zero)
    idm = identity_morphism(z2mod)
    row = [zero_morphism(z2zero, z2zero), into, idm, out]
    d = Diagram.from_arrows("five", [row, row], [[idz, idz, idm, idm, idz]])
    for clause in ("1a", "1b", "2", "3"):
        assert verify_five_parts(d, clause).ok
    for clause in (1, 2, 3):
        assert verify_five(d, clause).ok


def test_nine_identity(z2mod, z2zero):
    # rows Z2 -(id)-> Z2 -> 0 (short exact), bottom row zero modules,
    # identity columns ending in the zero module: every column short exact
    out = zero_morphism(z2mod, z2zero)
    idz = identity_morphism(z2zero)
    idm = identity_morphism(z2mod)
    rows = [[idm, out], [idm, out], [idz, idz]]
    cols = [[idm, idm, idz], [out, out, idz]]
    d = Diagram.from_arrows("nine", rows, cols)
    for clause in (1, 2):
        assert verify_nine_first(d, clause).ok
        assert verify_nine_third(d, clause).ok
    for direction in ("first-from-third", "third-from-first", "iff"):
        assert verify_nine(d, direction).ok


def test_nine_gate_on_broken_middle_row(z2mod, z2zero):
    # middle row not exact: 0 -> Z2 -0-> Z2 has image {0} but kernel Z2
    idm = identity_morphism(z2mod)
    zz = zero_morphism(z2mod, z2mod)
    rows = [[zz, zz], [zz, zz], [zz, zz]]
    cols = [[idm, idm, idm], [idm, idm, idm]]
    d = Diagram.from_arrows("bad9", rows, cols)
    with pytest.raises(HypothesisError):
        verify_nine(d, "iff")


def test_nine_gates_read_the_middle_column(z2mod, z2zero):
    """`middle column exact at middle` reads alpha2 and beta2: here the
    middle column Z2 -id-> Z2 -id-> Z2 is not exact, while the right one,
    Z2 -id-> Z2 -0-> Z2, is."""
    into, zz = zero_morphism(z2zero, z2mod), zero_morphism(z2mod, z2mod)
    idm, oo = identity_morphism(z2mod), identity_morphism(z2zero)
    d = Diagram.from_arrows("mid9", [[into, zz]] * 3, [[oo, idm, idm], [oo, idm, zz]])
    for verify in (verify_nine_first, verify_nine_third):
        with pytest.raises(HypothesisError, match="middle column exact at middle"):
            verify(d, 1)


def test_conclusion_witnesses(z2mod):
    """A failed conclusion is witnessed by classify's witness for its flag,
    unless its clause names another: diagram.1b's `alpha1 surjective` is
    witnessed by the map's name, five.3's `alpha2 isomorphism` by its flags."""
    zero = zero_morphism(z2mod, z2mod)
    witnesses = {key: CLAUSES[key].conclusions[0].witness((zero,) * 13)
                 for key in ("diagram.1a", "diagram.1b", "five.3")}
    assert witnesses == {"diagram.1a": dict(classify(zero).witnesses)["injective"],
                         "diagram.1b": zero.name, "five.3": "inj=False surj=False"}


def test_short_five_relations_on_a_map_neither_i_uniform_nor_iso():
    """The short-five conclusions relate `alpha2 i-uniform` to `alpha2
    isomorphism`; on a middle vertical that is neither, all three hold. The
    clause's hypotheses never admit one (its middles are groups, where
    every map is i-uniform), so no corpus reaches this case."""
    mods = enumerate_semimodules(UniverseSpec(make_boolean(), 3)).modules
    f = next(f for M in mods for N in mods for f in enumerate_hom(M, N)
             if not classify(f).i_uniform)
    assert [c.test((f,) * 7) for c in CLAUSES["short-five"].conclusions] == [True] * 3


def _snake_identity_diagram(z2mod, z2zero):
    return Diagram.from_arrows(
        "snake-id",
        [[zero_morphism(z2zero, z2mod), identity_morphism(z2mod)],
         [identity_morphism(z2mod), zero_morphism(z2mod, z2zero)]],
        [[zero_morphism(z2zero, z2mod), identity_morphism(z2mod),
          zero_morphism(z2mod, z2zero)]])


def test_snake_identity_delta(z2mod, z2zero):
    res = snake(_snake_identity_diagram(z2mod, z2zero))
    assert res.delta.map == (0, 1)
    assert res.ok and res.columns_exact
    assert res.cert_kernel_row is not None and res.cert_four_term is not None


def test_snake_zero_verticals(z2mod, z2zero):
    d = Diagram.from_arrows(
        "snake-zero",
        [[identity_morphism(z2mod), zero_morphism(z2mod, z2zero)],
         [zero_morphism(z2zero, z2mod), identity_morphism(z2mod)]],
        [[zero_morphism(z2mod, z2zero), zero_morphism(z2mod, z2mod),
          zero_morphism(z2zero, z2mod)]])
    res = snake(d)
    assert res.ok
    assert res.delta.domain.size == 1 and res.delta.map == (0,)


def test_snake_gate_failure(sat3):
    # alpha2 = inclusion of the saturating {0,2} submonoid: k-uniform but
    # not i-uniform, so the uniform gate on the middle vertical must fire
    sub, incl = submodule_as_module(Subsemimodule(sat3, (0, 2)))
    z = zero_module(sat3.semiring)
    d = Diagram.from_arrows(
        "snake-bad",
        [[identity_morphism(sub), zero_morphism(sub, z)],
         [identity_morphism(sat3), zero_morphism(sat3, z)]],
        [[incl, incl, identity_morphism(z)]])
    with pytest.raises(HypothesisError) as err:
        snake(d)
    assert "alpha2 uniform" in str(err.value)


def _relabel_module(m, perm):
    inv = [0] * m.size
    for old, new in enumerate(perm):
        inv[new] = old
    add = [[perm[m.add[inv[a]][inv[b]]] for b in range(m.size)] for a in range(m.size)]
    action = [[perm[m.action[inv[a]][s]] for s in range(m.semiring.size)]
              for a in range(m.size)]
    return Semimodule(f"{m.name}~", m.semiring, m.size, add, action)


def _transport(f, dom2, cod2, p_dom, p_cod):
    inv = [0] * f.domain.size
    for old, new in enumerate(p_dom):
        inv[new] = old
    return Morphism(f"{f.name}~", dom2, cod2,
                    tuple(p_cod[f.map[inv[x]]] for x in range(f.domain.size)))


def test_snake_delta_independent_of_m1_enumeration(z2mod, z2zero, max3):
    """Permuting the carrier of the middle-top module changes the set of
    lifts but never the connecting map."""
    base = _snake_identity_diagram(z2mod, z2zero)
    f1, g1 = base.horizontal(0, 0), base.horizontal(0, 1)
    f2, g2 = base.horizontal(1, 0), base.horizontal(1, 1)
    a1, a2, a3 = (base.vertical(0, c) for c in range(3))
    reference = snake(base).delta.map
    M1 = f1.codomain
    for tail in permutations(range(1, M1.size)):
        perm = (0,) + tail
        M1p = _relabel_module(M1, perm)
        f1p = _transport(f1, f1.domain, M1p, tuple(range(f1.domain.size)), perm)
        g1p = _transport(g1, M1p, g1.codomain, perm, tuple(range(g1.codomain.size)))
        a2p = _transport(a2, M1p, a2.codomain, perm, tuple(range(a2.codomain.size)))
        d = Diagram.from_arrows("perm", [[f1p, g1p], [f2, g2]], [[a1, a2p, a3]])
        assert snake(d).delta.map == reference


def test_snake_naturality_under_relabeling(max3):
    """Relabeling every module by zero-fixing permutations conjugates delta."""
    from semiexact.harness import HarnessSpec, gen_snake

    spec = HarnessSpec(make_zmod(4), 4, seed=7, quota=12)
    for d in gen_snake(spec):
        res = snake(d)
        mods = {}
        perms = {}
        for r in range(2):
            for c in range(3):
                m = d.node(r, c)
                if m not in perms:
                    # deterministic non-identity permutation when possible
                    tails = sorted(permutations(range(1, m.size)))
                    perm = (0,) + tails[-1]
                    perms[m] = perm
                    mods[m] = _relabel_module(m, perm)

        def t(f):
            return _transport(f, mods[f.domain], mods[f.codomain],
                              perms[f.domain], perms[f.codomain])

        d2 = Diagram.from_arrows(
            f"{d.name}~",
            [[t(d.horizontal(0, 0)), t(d.horizontal(0, 1))],
             [t(d.horizontal(1, 0)), t(d.horizontal(1, 1))]],
            [[t(d.vertical(0, 0)), t(d.vertical(0, 1)), t(d.vertical(0, 2))]])
        res2 = snake(d2)

        # kernel elements correspond through the N1 permutation
        n1 = d.node(0, 2)
        ker_old = res.kernel_inclusions[2].map
        ker_new = res2.kernel_inclusions[2].map
        p_n1 = perms[n1]
        assert sorted(p_n1[k] for k in ker_old) == sorted(ker_new)
        # cokernel classes correspond through the L2 permutation
        p_l2 = perms[d.node(1, 0)]
        old_classes = res.cokernels[0].congruence.class_members()
        new_cls = res2.cokernels[0].congruence.classes
        for ki, parent in enumerate(ker_old):
            new_pos = ker_new.index(p_n1[parent])
            image_class_members = old_classes[res.delta.map[ki]]
            expected = new_cls[p_l2[image_class_members[0]]]
            assert res2.delta.map[new_pos] == expected
