"""Universe enumeration, isomorphism oracle, counterexample catalog."""

import hashlib
import json
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

from semiexact import catalog, core
from semiexact.catalog import (PROPERTIES, Counterexample, ExhaustionReport,
                               replay_counterexample, search_counterexample)
from semiexact.core import (Semimodule, freeze_table, make_boolean, make_zmod,
                            make_saturating_naturals, make_upper_triangular_boolean,
                            monoid_semiring, natural_action, validate_semimodule)
from semiexact.enumeration import (UniverseSpec, _actions_for_monoid, _automorphisms,
                                   _canonical_monoid_tables, _commutative_monoid_tables,
                                   _enumerated, _least, _relabel, _relabellings,
                                   _searched_actions, abelian_snake_delta, canonical_form,
                                   enumerate_semimodules, enumerate_semimodules_naive,
                                   oracle_iso_exists)
from semiexact.errors import ParameterError, PreconditionError
from semiexact.fixtures import builtin_semirings, monoid_fixture

from conftest import oracle_semimodule_laws

DATA = Path(__file__).resolve().parent / "data"
CATALOG = DATA / "catalog_outcomes.json"
UNIVERSES = DATA / "universe_seed.json"
# the universe-export bounds: size 4, except these two at size 3
SIZE_3_ONLY = ("T2xB", "minplus3")
# order 5, where the universes take a fraction of a second
SIZE_5_TOO = ("B", "T2")


def universe_digests():
    """name:bound -> sha256 of every module's (name, size, add, action): every
    builtin semiring at size 4, the SIZE_3_ONLY ones at size 3 too and the
    SIZE_5_TOO ones at size 5 too."""
    out = {}
    for name, semiring in builtin_semirings().items():
        bounds = (3, 4) if name in SIZE_3_ONLY else (4, 5) if name in SIZE_5_TOO else (4,)
        for bound in bounds:
            mods = enumerate_semimodules(UniverseSpec(semiring, bound)).modules
            text = json.dumps([(m.name, m.size, m.add, m.action) for m in mods])
            out[f"{name}:{bound}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_monoid_counts(nat4_universe):
    by_size = {}
    for m in nat4_universe:
        by_size[m.size] = by_size.get(m.size, 0) + 1
    # commutative monoids up to isomorphism
    assert by_size == {1: 1, 2: 2, 3: 5, 4: 19}


def test_size_two_monoids():
    uni = enumerate_semimodules(UniverseSpec(monoid_semiring(2), 2))
    tables = sorted(m.add for m in uni.modules)
    # zero module, the group Z2, and the idempotent chain
    assert tables == [((0,),), ((0, 1), (1, 0)), ((0, 1), (1, 1))]


def test_boolean_modules():
    uni = enumerate_semimodules(UniverseSpec(make_boolean(), 2))
    assert [m.size for m in uni.modules] == [1, 2]
    assert uni.modules[1].add == ((0, 1), (1, 1))  # the two-chain only


def test_ring_module_counts():
    z2 = enumerate_semimodules(UniverseSpec(make_zmod(2), 4))
    assert len(z2.modules) == 3  # 0, Z2, Z2 x Z2
    z4 = enumerate_semimodules(UniverseSpec(make_zmod(4), 4))
    assert len(z4.modules) == 4  # 0, Z2, Z4, Z2 x Z2


def _module_counts(name, max_size):
    """The number of modules of each exact size 1..max_size in the universe
    of the builtin semiring `name`."""
    mods = enumerate_semimodules(UniverseSpec(builtin_semirings()[name], max_size)).modules
    return [sum(m.size == n for m in mods) for n in range(1, max_size + 1)]


@pytest.mark.parametrize("name", ["B", "T1"])
def test_boolean_universes_count_lattices(name):
    """A B-module is a finite join-semilattice with a least element (the
    action is forced), that is, a finite lattice; T1 is B under another name.
    Sizes 1-5 give the number of lattices, OEIS A006966."""
    assert _module_counts(name, 5) == [1, 1, 1, 2, 5]


@pytest.mark.parametrize("name", ["B", "T1"])
def test_boolean_universes_count_lattices_of_order_6(name):
    """15 lattices of order 6 (OEIS A006966), a size the orderly monoid
    generator makes cheap."""
    assert _module_counts(name, 6) == [1, 1, 1, 2, 5, 15]


def _abelian_groups(order, exponent, least=1):
    """The number of abelian groups of this order whose exponent divides
    `exponent`: chains of invariant factors least | d1 | d2 | ... with each
    d > 1 and product `order`, the last dividing `exponent`."""
    if order == 1:
        return 1
    return sum(_abelian_groups(order // d, exponent, d) for d in range(2, order + 1)
               if order % d == 0 and d % least == 0 and exponent % d == 0)


@pytest.mark.parametrize("n, counts", [(2, [1, 1, 0, 1, 0]), (3, [1, 0, 1, 0, 0]),
                                       (4, [1, 1, 0, 2, 0])])
def test_zmod_universes_count_abelian_groups(n, counts):
    """A Z_n-module is an abelian group whose exponent divides n: at sizes
    1-5, the number of abelian groups of each order with exponent dividing n,
    by the invariant factor decomposition (Z4: Z2 at order 2; Z4 and
    Z2 x Z2 at order 4)."""
    assert [_abelian_groups(order, n) for order in range(1, 6)] == counts
    assert _module_counts(f"Z{n}", 5) == counts


def test_universes_match_snapshot():
    """Every builtin semiring's universe, module names and tables included,
    equals the one recorded before the action search was pruned."""
    assert universe_digests() == json.loads(UNIVERSES.read_text(encoding="utf-8"))


def test_naive_recount_matches():
    """The pruned enumeration finds exactly the isomorphism classes of the
    unpruned sweep, each once: every builtin semiring at size 3, three at 4."""
    cases = [(s, 3) for s in builtin_semirings().values()]
    cases += [(make_boolean(), 4), (make_zmod(4), 4), (monoid_semiring(4), 4)]
    for semiring, size in cases:
        pruned = enumerate_semimodules(UniverseSpec(semiring, size)).modules
        forms = [(m.size, canonical_form(m.add, m.action)) for m in pruned]
        assert len(set(forms)) == len(forms), (semiring.name, size)
        assert set(forms) == enumerate_semimodules_naive(semiring, size), (semiring.name, size)


def test_canonical_monoid_tables():
    """One table per commutative monoid of order n up to isomorphism (OEIS
    A058131), each its own canonical form."""
    counts = []
    for n in range(1, 6):
        tables = _canonical_monoid_tables(n)
        counts.append(len(tables))
        for add in tables:
            assert canonical_form(add, ()) == tuple(x for row in add for x in row)
    assert counts == [1, 2, 5, 19, 78]


def _flat(table):
    return tuple(x for row in table for x in row)


def test_monoid_filter_matches_canonical_form():
    """The early-exit filter keeps exactly the tables that equal their full
    canonical_form, on every monoid table of orders 1-5."""
    for n in range(1, 6):
        tables = list(_commutative_monoid_tables(n))
        assert _canonical_monoid_tables(n) == tuple(
            add for add in tables if canonical_form(add, ()) == _flat(add)), n
    assert len(tables) == 1486


def test_orderly_generation_keeps_the_filtered_tables():
    """The pruned generator yields exactly the tables of the unpruned one that
    _least keeps, in the same order, at orders 1-5."""
    for n in range(1, 6):
        others = _relabellings(n)[1:]
        assert _canonical_monoid_tables(n) == tuple(
            add for add in _commutative_monoid_tables(n) if _least(bytes(_flat(add)), others)), n


def test_orderly_prune_drops_only_tables_a_known_prefix_rules_out(monkeypatch):
    """Every partial table the orderly prune drops at orders 4 and 5 has a
    relabelling whose image is smaller within the prefix known (not 255) on
    both sides, so all its completions are too; and no canonical table
    extends a dropped one."""
    from semiexact import enumeration

    dropped, generate = [], enumeration._commutative_monoid_tables

    def recording(n, prune):
        def recorded(t):
            drop = prune(t)
            if drop:
                dropped.append(bytes(255 if v is None else v for v in t))
            return drop
        return generate(n, recorded)

    monkeypatch.setattr(enumeration, "_commutative_monoid_tables", recording)
    for n in (4, 5):
        dropped.clear()
        canonical = [_flat(add) for add in _canonical_monoid_tables.__wrapped__(n)]
        assert dropped and len(canonical) == {4: 19, 5: 78}[n]
        for flat in dropped:
            assert any(image[:k] < flat[:k] for image in (
                _relabel(flat, move) for move in _relabellings(n)[1:])
                for k in [min(image.index(255), flat.index(255))]), flat
            known = [i for i, v in enumerate(flat) if v != 255]
            assert not any(all(c[i] == flat[i] for i in known) for c in canonical), flat


def test_canonical_monoid_tables_of_order_6():
    """421 commutative monoids of order 6 up to isomorphism (OEIS A058131): the
    tables are distinct, in lexicographic order, and each its own canonical_form."""
    tables = _canonical_monoid_tables(6)
    assert len(tables) == 421
    assert list(tables) == sorted(set(tables), key=_flat)
    assert all(canonical_form(add, ()) == _flat(add) for add in tables)


def _rescanning_monoid_tables(n):
    """_commutative_monoid_tables as it was, rescanning every triple of the
    partial table after each cell: the reference for the incremental check."""
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    add = [[None] * n for _ in range(n)]
    for j in range(n):
        add[0][j] = j
        add[j][0] = j

    def associative():
        for a in range(1, n):
            row = add[a]
            for b in range(1, n):
                ab = row[b]
                if ab is None:
                    continue
                for c in range(1, n):
                    bc = add[b][c]
                    if bc is not None:
                        left, right = add[ab][c], row[bc]
                        if left is not None and right is not None and left != right:
                            return False
        return True

    def fill(k):
        if k == len(cells):
            yield freeze_table(add)
            return
        i, j = cells[k]
        for v in range(n):
            add[i][j] = add[j][i] = v
            if associative():
                yield from fill(k + 1)
        add[i][j] = add[j][i] = None

    yield from fill(0)


def test_monoid_tables_match_rescanning_generator():
    """Checking only the triples that read the new cell yields the tables of
    the full rescan, in the same order, for orders 1-5."""
    for n in range(1, 6):
        tables = list(_commutative_monoid_tables(n))
        assert tables == list(_rescanning_monoid_tables(n)), n
    assert len(tables) == 1486


def _rows(table, perm, inv, by_column):
    """The rows of table relabelled by perm (inv its inverse), lazily: row i
    is old row inv[i] mapped through perm, its columns also taken through inv
    when by_column (an add table), kept as they are otherwise (an action).
    The row-by-row relabelling that enumeration's flat kernel replaced."""
    get = perm.__getitem__
    for old in map(table.__getitem__, inv):
        yield tuple(map(get, map(old.__getitem__, inv) if by_column else old))


def _sign(rows, table):
    """-1, 0 or 1 as rows is smaller than, equal to or larger than table in
    row-major order, decided at the first row that differs."""
    for new, row in zip(rows, table):
        if new != row:
            return -1 if new < row else 1
    return 0


def _assert_flat_kernel_matches_rows(table, moves, by_column):
    flat = bytes(_flat(table))
    for move in moves:
        perm = move[0]
        inv = tuple(sorted(range(len(perm)), key=perm.__getitem__))
        new = _relabel(flat, move)
        assert tuple(new) == _flat(_rows(table, perm, inv, by_column)), (table, perm)
        assert (new > flat) - (new < flat) == _sign(_rows(table, perm, inv, by_column), table)


def test_flat_kernel_matches_row_relabelling():
    """Each flat relabelling of _relabellings is the table the row-by-row
    reference builds, and orders against the original as the reference's
    first differing row does: every relabelling of every labelled monoid
    table of order <= 4, and of every action in the 14 builtin universes."""
    tables = 0
    for n in range(1, 5):
        for add in _commutative_monoid_tables(n):
            _assert_flat_kernel_matches_rows(add, _relabellings(n), True)
            tables += 1
    for name, semiring in builtin_semirings().items():
        spec = UniverseSpec(semiring, 3 if name in SIZE_3_ONLY else 4)
        for m in enumerate_semimodules(spec).modules:
            _assert_flat_kernel_matches_rows(m.action, _relabellings(m.size, semiring.size),
                                             False)
            tables += 1
    assert tables == 106 + 157


# the builtins that 1 additively generates, where an action is forced
FORCED = ("B", "Z2", "Z3", "Z4", "T1", "T2", "T3", "nat3", "nat4")


def test_forced_actions_match_the_search():
    """Over a semiring that 1 additively generates, the forced table of
    core.natural_action, checked, is what the action search returns: for
    each such builtin and every canonical monoid table of order <= 4 (some
    with one action, some with none). Over the other builtins and UT2B,
    natural_action is None and the actions are searched."""
    semirings = builtin_semirings()
    outcomes = set()
    for name in FORCED:
        semiring = semirings[name]
        for n in range(1, 5):
            for add in _canonical_monoid_tables(n):
                assert natural_action(semiring, add) is not None
                actions = _actions_for_monoid(semiring, add)
                assert actions == _searched_actions(semiring, add), (name, add)
                outcomes.add(len(actions))
    assert outcomes == {0, 1}
    searched = [semirings[name] for name in semirings if name not in FORCED]
    assert [s.name for s in searched] == ["minplus1", "minplus2", "minplus3", "BxZ2", "T2xB"]
    for semiring in searched + [make_upper_triangular_boolean()]:
        for n in range(1, 5):
            for add in _canonical_monoid_tables(n):
                assert natural_action(semiring, add) is None, (semiring.name, add)


def test_automorphisms_match_scan():
    """_automorphisms equals a scan of every zero-fixing relabelling, for
    every canonical monoid table up to order 4."""
    for n in range(1, 5):
        for add in _canonical_monoid_tables(n):
            scan = [p for p in ((0,) + t for t in permutations(range(1, n)))
                    if all(p[add[a][b]] == add[p[a]][p[b]]
                           for a in range(n) for b in range(n))]
            assert [_relabellings(n)[i][0] for i in _automorphisms(add)] == scan, add


def _canonical_selection(semiring, max_size):
    """(size, add, action) of every action whose (add, action) is its own
    canonical_form, over the canonical monoid tables: the selection by the
    full minimum that _enumerated makes through automorphisms."""
    return sorted((n, add, action) for n in range(1, max_size + 1)
                  for add in _canonical_monoid_tables(n)
                  for action in _actions_for_monoid(semiring, add)
                  if canonical_form(add, action) == _flat(add) + _flat(action))


def test_enumerated_matches_canonical_selection():
    """Comparing actions under automorphisms only selects the same modules as
    the full canonical form: all builtins at size 4, B and T2 at 5, and
    monoid_semiring(5) at 5."""
    semirings = builtin_semirings()
    cases = [(s, 4) for s in semirings.values()]
    cases += [(semirings["B"], 5), (semirings["T2"], 5), (monoid_semiring(5), 5)]
    for semiring, size in cases:
        kept = [(m.size, m.add, m.action) for m in _enumerated(semiring, size)]
        assert kept == _canonical_selection(semiring, size), (semiring.name, size)
    assert len(kept) == 105


def _product_sweep_monoid_tables(n):
    """Every filling of the upper triangle in lexicographic order, kept when
    the whole table is associative: the unpruned oracle for the backtracked
    _commutative_monoid_tables."""
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    for values in product(range(n), repeat=len(cells)):
        add = [[max(i, j) if 0 in (i, j) else None for j in range(n)] for i in range(n)]
        for (i, j), v in zip(cells, values):
            add[i][j] = add[j][i] = v
        if all(add[add[a][b]][c] == add[a][add[b][c]]
               for a in range(n) for b in range(n) for c in range(n)):
            yield freeze_table(add)


def test_monoid_tables_match_product_sweep():
    for n in range(1, 5):
        assert list(_commutative_monoid_tables(n)) == list(_product_sweep_monoid_tables(n)), n


def test_actions_match_validation_oracle():
    """For every builtin semiring and labelled monoid table with at most 1000
    fillings of the cells outside row 0, column 0_S and column 1_S, the action
    search returns exactly the fillings the independent law scan accepts:
    validate_semimodule reads the same generators of S as the search."""
    cases = grids = 0
    for semiring in builtin_semirings().values():
        free = [x for x in range(semiring.size) if x not in (semiring.zero, semiring.one)]
        for n in range(1, 5):
            cells = [(m, x) for m in range(1, n) for x in free]
            if n ** len(cells) > 1000:
                continue
            for add in _commutative_monoid_tables(n):
                accepted = []
                for values in product(range(n), repeat=len(cells)):
                    grid = [[0] * semiring.size for _ in range(n)]
                    for m in range(n):
                        grid[m][semiring.one] = m
                    for (m, x), v in zip(cells, values):
                        grid[m][x] = v
                    table = freeze_table(grid)
                    if not oracle_semimodule_laws(Semimodule("oracle", semiring, n, add, table)):
                        accepted.append(table)
                assert _actions_for_monoid(semiring, add) == accepted, (semiring.name, add)
                cases += 1
                grids += n ** len(cells)
    assert (cases, grids) == (703, 28445)


def test_action_search_validates_only_modules(monkeypatch):
    """Propagation rejects every grid that breaks a law, so each complete grid
    handed to validate_semimodule, through the verdict cache core._validates,
    passes it."""
    verdicts = []

    def counted(m):
        report = validate_semimodule(m)
        verdicts.append(report.ok)
        return report

    monkeypatch.setattr(core, "validate_semimodule", counted)
    semirings = builtin_semirings()
    try:
        for name in ("minplus2", "T2xB"):
            _enumerated.cache_clear()
            core._validates.cache_clear()
            enumerate_semimodules(UniverseSpec(semirings[name], 4))
    finally:
        _enumerated.cache_clear()
        core._validates.cache_clear()
    assert verdicts and all(verdicts), verdicts.count(False)


def test_enumeration_deterministic():
    a = enumerate_semimodules(UniverseSpec(monoid_semiring(3), 3, seed=1))
    b = enumerate_semimodules(UniverseSpec(monoid_semiring(3), 3, seed=2))
    assert [(m.add, m.action) for m in a.modules] == \
        [(m.add, m.action) for m in b.modules]


def test_truncation_flag():
    uni = enumerate_semimodules(UniverseSpec(monoid_semiring(3), 3, max_modules=4))
    assert uni.truncated and len(uni.modules) == 4
    full = enumerate_semimodules(UniverseSpec(monoid_semiring(3), 3))
    assert not full.truncated


def test_iso_oracle(max3, chain2):
    z2 = monoid_fixture("z2")
    assert oracle_iso_exists(z2, z2).map == (0, 1)
    assert oracle_iso_exists(z2, chain2) is None
    # the quotient of the max chain by {0,1} is the two-chain
    from semiexact.core import Subsemimodule
    from semiexact.quotients import bourne_congruence, quotient
    q = quotient(max3, bourne_congruence(Subsemimodule(max3, (0, 1))))
    assert oracle_iso_exists(q.quotient, chain2) is not None


def test_search_non_subtractive():
    spec = UniverseSpec(monoid_semiring(3), 3)
    found = search_counterexample("non-subtractive-subsemimodule", spec)
    assert isinstance(found, Counterexample)
    _, sub = found.witnesses
    assert sub.members == (0, 2)
    assert found.spec == spec and replay_counterexample(found)


def test_search_semi_mono_not_mono():
    spec = UniverseSpec(monoid_semiring(3), 3)
    found = search_counterexample("semi-mono-not-mono", spec)
    assert isinstance(found, Counterexample)
    (f,) = found.witnesses
    assert f.domain.size <= 3
    assert found.spec == spec and replay_counterexample(found)


def test_search_expected_exhaustions():
    spec = UniverseSpec(monoid_semiring(3), 3)
    for prop in ("mono-not-injective", "cancellative-epi-not-surjective",
                 "non-i-uniform-bimorphism-cs"):
        outcome = search_counterexample(prop, spec)
        assert isinstance(outcome, ExhaustionReport), prop
        again = search_counterexample(prop, spec)
        assert outcome == again  # deterministic reproduction


def test_search_exactness_gaps():
    spec = UniverseSpec(monoid_semiring(3), 3)
    for prop in ("proper-exact-not-exact", "semi-exact-not-proper-exact"):
        found = search_counterexample(prop, spec)
        assert isinstance(found, Counterexample) and found.spec == spec
        assert replay_counterexample(found)


def test_search_bimorphism_not_iso_exhausts():
    """The naturals-inside-integers phenomenon (a bimorphism that is not an
    isomorphism) has no finite analog at desk scale: every small commutative
    monoid codomain separates. The exhaustion report is the deliverable."""
    outcome = search_counterexample("bimorphism-not-iso",
                                    UniverseSpec(monoid_semiring(4), 4))
    assert isinstance(outcome, ExhaustionReport)
    assert outcome.searched == 2280


def test_search_short_five_drop_hypothesis_exhausts():
    """Dropping the i-uniform hypothesis from the short five lemma cannot be
    witnessed over finite cancellative modules: they are groups, where every
    morphism is i-uniform."""
    outcome = search_counterexample("short-five-needs-i-uniform",
                                    UniverseSpec(monoid_semiring(3), 3))
    assert isinstance(outcome, ExhaustionReport)


def test_bimorphism_replay_requires_injective_cancellative_maps():
    """Maps whose image's subtractive closure is the codomain without being
    onto, between non-cancellative modules and most of them not injective,
    are no cancellative bimorphisms."""
    from semiexact.core import subtractive_closure_set
    from semiexact.morphisms import enumerate_hom, image_set, is_injective, is_surjective

    spec = UniverseSpec(monoid_semiring(3), 3)
    mods = enumerate_semimodules(spec).modules
    epi_like = [f for M in mods for N in mods for f in enumerate_hom(M, N)
                if len(subtractive_closure_set(N, image_set(f))) == N.size
                and not is_surjective(f)]
    assert any(not is_injective(f) for f in epi_like)
    for f in epi_like:
        tampered = Counterexample("non-i-uniform-bimorphism-cs", (f,), "tampered", spec)
        assert not replay_counterexample(tampered), f.name


@pytest.mark.parametrize("prop", ["mono-not-injective", "bimorphism-not-iso",
                                  "cancellative-epi-not-surjective"])
def test_replay_rejects_non_counterexamples(prop):
    """The search exhausts the nat3 universe, so no map in it is a
    counterexample and the replay, which re-checks the whole property over
    that universe, must reject every one."""
    from semiexact.morphisms import enumerate_hom

    spec = UniverseSpec(monoid_semiring(3), 3)
    assert isinstance(search_counterexample(prop, spec), ExhaustionReport)
    mods = enumerate_semimodules(spec).modules
    for f in (f for M in mods for N in mods for f in enumerate_hom(M, N)):
        assert not replay_counterexample(Counterexample(prop, (f,), "tampered", spec)), f.name


@pytest.mark.parametrize("prop", ["proper-exact-not-exact", "semi-exact-not-proper-exact"])
def test_exactness_replays_reject_pairs_that_do_not_chain(prop):
    """L -f-> M and M' -g-> N with M != M' form no sequence, even when the
    image of f and the kernel of g are the same set of element ids."""
    from semiexact.morphisms import enumerate_hom, image_set, kernel_set

    spec = UniverseSpec(monoid_semiring(3), 3)
    mods = enumerate_semimodules(spec).modules
    maps = [f for M in mods for N in mods for f in enumerate_hom(M, N)]
    pairs = [(f, g) for f in maps for g in maps if f.codomain != g.domain]
    assert any(image_set(f) == kernel_set(g) for f, g in pairs)
    for f, g in pairs:
        tampered = Counterexample(prop, (f, g), "tampered", spec)
        assert not replay_counterexample(tampered), (f.name, g.name)


def test_short_five_replay_rechecks_the_property():
    """A genuine short-five diagram (middle vertical an isomorphism) and the
    same diagram with a zero middle vertical are both rejected."""
    from semiexact.harness import vertical_triples
    from semiexact.morphisms import is_isomorphism, zero_morphism

    spec = UniverseSpec(make_zmod(2), 4)
    row1, row2, (a1, a2, a3) = next(
        (r1, r2, v) for r1, r2, v in vertical_triples(spec)
        if is_isomorphism(v[0]) and is_isomorphism(v[2]) and v[1].domain.size > 1)
    zero = zero_morphism(a2.domain, a2.codomain)
    for middle in (a2, zero):
        tampered = Counterexample("short-five-needs-i-uniform",
                                  (row1, row2, a1, middle, a3), "tampered", spec)
        assert not replay_counterexample(tampered)


# the tests of each row that nat3@3 has a witness failing alone; in
# semi-mono-not-mono, injective and bounded mono agree on every map (the free
# module separates), so neither fails alone
FAILS_ALONE_AT_NAT3 = {
    "non-subtractive-subsemimodule": {"subtractive"},
    "semi-mono-not-mono": {"semi-mono"},
    "proper-exact-not-exact": {"composable", "image=kernel", "g k-uniform"},
    "semi-exact-not-proper-exact": {"composable", "image=kernel", "closure(image)=kernel"},
}


def test_replay_rechecks_every_test_of_the_row(monkeypatch):
    """Every test a row names is in the vocabulary, which holds every
    predicate of morphisms.PREDICATES. For each property nat3@3 finds, a
    stored witness that fails exactly one test of its row does not replay;
    pairs are drawn from all pairs whose middle modules have one size, so
    that `composable` can fail alone. And with any one test of the row
    negated, the found counterexample does not replay either."""
    from semiexact.morphisms import PREDICATES

    assert PREDICATES.keys() <= catalog.TESTS.keys()
    for prop in catalog._CATALOG.values():
        assert all(name in catalog.TESTS and expected in (True, False)
                   for name, expected in prop.tests), prop.description
    spec = UniverseSpec(monoid_semiring(3), 3)
    maps = list(catalog._maps(spec))
    pairs = [(f, g) for (f,) in maps for (g,) in maps if f.codomain.size == g.domain.size]
    for pid, fails_alone in FAILS_ALONE_AT_NAT3.items():
        row = catalog._CATALOG[pid]
        found = search_counterexample(pid, spec)
        assert isinstance(found, Counterexample) and replay_counterexample(found)
        pool = pairs if row.candidates is catalog._composable_pairs else row.candidates(spec)
        alone = {}
        for w in pool:
            missed = [name for name, expected in row.tests
                      if catalog.TESTS[name](spec, w) != expected]
            if len(missed) == 1:
                alone[missed[0]] = w
                assert not replay_counterexample(Counterexample(pid, w, "tampered", spec))
        assert alone.keys() == fails_alone, pid
        for name, _ in row.tests:
            test = catalog.TESTS[name]
            monkeypatch.setitem(catalog.TESTS, name, lambda spec, w, test=test: not test(spec, w))
            assert not replay_counterexample(found), (pid, name)
            monkeypatch.setitem(catalog.TESTS, name, test)


def test_whole_tuple_filter_tests_single_part_hypotheses():
    """short-five's filter(()) still tests the hypotheses that read one part:
    over B@4, two short exact rows with non-cancellative middles, isomorphic
    outer verticals and a middle vertical neither i-uniform nor iso fail
    only `M1 cancellative` and `M2 cancellative`, and both the filter and
    the short-five-needs-i-uniform predicate, which relies on it, reject
    them."""
    from semiexact.diagrams import CLAUSES
    from semiexact.morphisms import Morphism, classify, is_isomorphism

    spec = UniverseSpec(make_boolean(), 4)
    mods = {M.name: M for M in enumerate_semimodules(spec).modules}

    def arrow(name, dom, cod, table):
        return Morphism(name, mods[dom], mods[cod], table)
    parts = f1, g1, f2, g2, a1, a2, a3 = (
        arrow("f1", "UB.1", "UB.2", (0, 2)), arrow("g1", "UB.2", "UB.1", (0, 1, 0)),
        arrow("f2", "UB.1", "UB.3", (0, 3)), arrow("g2", "UB.3", "UB.1", (0, 1, 1, 0)),
        arrow("a1", "UB.1", "UB.1", (0, 1)), arrow("a2", "UB.2", "UB.3", (0, 1, 3)),
        arrow("a3", "UB.1", "UB.1", (0, 1)))
    clause = CLAUSES["short-five"]
    failed = [h for h in clause.hypotheses if not h.test(parts)]
    assert [h.id for h in failed] == ["M1 cancellative", "M2 cancellative"]
    assert all(h.part is not None for h in failed)
    assert not clause.filter(())(parts)
    # every other conjunct of the predicate holds
    assert is_isomorphism(a1) and is_isomorphism(a3)
    assert not classify(a2).i_uniform and not is_isomorphism(a2)
    assert not catalog._short_five_needs_i_uniform(spec, ((f1, g1), (f2, g2), a1, a2, a3))


def test_catalog_matches_snapshot():
    """Every property on six universes: the description and witnesses of a
    counterexample, or the number of instances an exhausted search inspected."""
    specs = [UniverseSpec(monoid_semiring(3), 3), UniverseSpec(monoid_semiring(4), 3),
             UniverseSpec(monoid_semiring(4), 4), UniverseSpec(make_zmod(2), 3),
             UniverseSpec(make_boolean(), 3), UniverseSpec(make_saturating_naturals(2), 3)]
    got = {}
    for spec in specs:
        for prop in PROPERTIES:
            outcome = search_counterexample(prop, spec)
            key = f"{prop}@{spec.semiring.name}:{spec.max_module_size}"
            if isinstance(outcome, Counterexample):
                got[key] = {"found": outcome.description,
                            "witnesses": repr(outcome.witnesses)}
            else:
                got[key] = {"exhausted": outcome.searched}
    assert got == json.loads(CATALOG.read_text(encoding="utf-8"))


def test_search_unknown_property():
    with pytest.raises(ParameterError):
        search_counterexample("no-such-property", UniverseSpec(make_boolean(), 2))


def test_abelian_oracle_rejects_non_groups(sat3, chain2):
    from semiexact.morphisms import identity_morphism, zero_morphism
    from semiexact.core import zero_module
    z = zero_module(sat3.semiring)
    with pytest.raises(PreconditionError):
        abelian_snake_delta(identity_morphism(sat3), zero_morphism(sat3, z),
                            identity_morphism(sat3), zero_morphism(sat3, z),
                            zero_morphism(sat3, sat3), zero_morphism(sat3, sat3),
                            zero_morphism(z, z))


def test_abelian_oracle_rejects_non_groups_under_optimize(src_env):
    """The check is a raise, not an assert, so `python -O` keeps it."""
    script = ("from semiexact.core import zero_module\n"
              "from semiexact.enumeration import abelian_snake_delta\n"
              "from semiexact.errors import PreconditionError\n"
              "from semiexact.fixtures import monoid_fixture\n"
              "from semiexact.morphisms import identity_morphism, zero_morphism\n"
              "sat3 = monoid_fixture('sat3')\n"
              "z = zero_module(sat3.semiring)\n"
              "try:\n"
              "    abelian_snake_delta(identity_morphism(sat3), zero_morphism(sat3, z),\n"
              "                        identity_morphism(sat3), zero_morphism(sat3, z),\n"
              "                        zero_morphism(sat3, sat3), zero_morphism(sat3, sat3),\n"
              "                        zero_morphism(z, z))\n"
              "except PreconditionError as exc:\n"
              "    print('rejected:', exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=src_env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "rejected: abelian oracle needs additive inverses\n"
