"""Sequence analysis, short exactness, kernel-cokernel sequences, subobjects."""

import pytest

from semiexact.catalog import is_epimorphism, is_monomorphism, universe_with_free_module
from semiexact.core import Subsemimodule, make_zmod, self_module, zero_module
from semiexact.enumeration import UniverseSpec, enumerate_semimodules
from semiexact.errors import StructureError
from semiexact.exactness import (Sequence, analyze, is_short_exact, ker_coker_sequence,
                                 short_sequence, subobject_character)
from semiexact.morphisms import (Morphism, classify, enumerate_hom, exact_at, exact_row,
                                 identity_morphism, image_set, is_injective, is_isomorphism,
                                 is_k_uniform, is_surjective, kernel_set, short_exact_row,
                                 submodule_as_module, zero_morphism)
from semiexact.quotients import bourne_congruence, quotient


def test_analyze_identity_short():
    z2 = self_module(make_zmod(2))
    seq = short_sequence(zero_morphism(zero_module(z2.semiring), z2),
                         identity_morphism(z2))
    # 0 -> 0 -> Z2 -(id)-> Z2 -> 0: exact everywhere
    v = analyze(seq)
    assert v.exact and v.proper_exact and v.semi_exact and v.chain_complex


def test_analyze_projection_row(max3):
    sub, incl = submodule_as_module(Subsemimodule(max3, (0, 1)))
    q = quotient(max3, bourne_congruence(Subsemimodule(max3, (0, 1))))
    v = analyze(Sequence("s", (incl, q.projection)))
    p = v.positions[0]
    assert p.semi_exact and p.proper_exact and p.exact


def test_analyze_non_proper_row(sat3):
    sub, incl = submodule_as_module(Subsemimodule(sat3, (0, 2)))
    q = quotient(sat3, bourne_congruence(Subsemimodule(sat3, (0, 2))))
    v = analyze(Sequence("s", (incl, q.projection)))
    p = v.positions[0]
    assert p.semi_exact and not p.proper_exact and not p.exact
    assert p.witness != "-"


def test_analyze_position_witnesses(sat3, chain2):
    """An exact position's witness is "-"; a proper exact one that is not
    exact names the pair its map is not k-uniform at."""
    g = Morphism("squash", sat3, chain2, (0, 1, 1))
    _, incl = submodule_as_module(Subsemimodule(sat3, (0,)), name="Ker(squash)")
    v = analyze(short_sequence(incl, g))
    assert [(p.proper_exact, p.exact, p.witness) for p in v.positions] == [
        (True, True, "-"), (True, False, "squash not k-uniform at pair (1, 2)"),
        (True, True, "-")]


def test_analyze_arrow_witnesses_are_uniformity_only(sat3, chain2):
    """An arrow's witness keeps classify's k-uniform and i-uniform witnesses
    only: not the injective, surjective or cancellative ones."""
    g = Morphism("squash", sat3, chain2, (0, 1, 1))
    _, incl = submodule_as_module(Subsemimodule(sat3, (0, 2)))
    v = analyze(Sequence("s", (incl, g)))
    assert [a.witness for a in v.arrows] == ["i_uniform: 1 in closure(image) only",
                                             "k_uniform: pair (1,2)"]


def test_short_sequence_names(max3):
    """A short sequence is named after its two maps unless a name is given."""
    f = g = zero_morphism(max3, max3)
    assert short_sequence(f, g).name == f"short({f.name},{g.name})"
    assert short_sequence(f, g, "s").name == "s"


def test_implication_chain(nat3_universe):
    for M in nat3_universe:
        for N in nat3_universe:
            for g in enumerate_hom(M, N):
                for L in nat3_universe:
                    for f in enumerate_hom(L, M):
                        if image_set(f) <= kernel_set(g):
                            p = analyze(Sequence("s", (f, g))).positions[0]
                            if p.exact:
                                assert p.proper_exact
                            if p.proper_exact:
                                assert p.semi_exact


def _reference_exact_middle(f, g):
    """Exactness of X -f-> Y -g-> Z at Y: image = kernel and g k-uniform."""
    img, ker = image_set(f), kernel_set(g)
    if img != ker:
        return False, f"element {min(img ^ ker)} separates image({f.name}) from kernel({g.name})"
    ok, wit = is_k_uniform(g, witness=True)
    if not ok:
        return False, f"{g.name} not k-uniform at {wit}"
    return True, "-"


def _reference_short_exact_row(f, g):
    """f injective, image = kernel, g surjective and k-uniform; (ok, witness)."""
    if not is_injective(f):
        return False, f"{f.name} not injective"
    ok, wit = _reference_exact_middle(f, g)
    if not ok:
        return False, wit
    if not is_surjective(g):
        return False, f"{g.name} not surjective"
    return True, "-"


@pytest.mark.parametrize("name, max_size", [("Z2", 4), ("B", 4), ("T2", 3)])
def test_exact_at_matches_reference(semirings, name, max_size):
    """On every composable pair of the pool, exact_at and short_exact_row
    give the verdicts and witnesses of the reference checkers above, and
    exact_row agrees with analyze's exact flag, on the pair and with a zero
    map appended."""
    mods = enumerate_semimodules(UniverseSpec(semirings[name], max_size)).modules
    verdicts = set()
    for M in mods:
        into = [f for L in mods for f in enumerate_hom(L, M)]
        for N in mods:
            zero = zero_morphism(N, N)
            for g in enumerate_hom(M, N):
                for f in into:
                    verdict = exact_at(f, g)
                    assert verdict == _reference_exact_middle(f, g)
                    verdicts.add(verdict[0])
                    assert short_exact_row(f, g) == _reference_short_exact_row(f, g)
                    for row in ((f, g), (f, g, zero)):
                        assert exact_row(row)[0] == analyze(Sequence("s", row)).exact
    assert verdicts == {True, False}


def test_short_exact_examples(max3, sat3):
    sub, incl = submodule_as_module(Subsemimodule(max3, (0, 1)))
    q = quotient(max3, bourne_congruence(Subsemimodule(max3, (0, 1))))
    res = is_short_exact(short_sequence(incl, q.projection))
    assert res.ok and res.clause2_ok

    sub2, incl2 = submodule_as_module(Subsemimodule(sat3, (0, 2)))
    q2 = quotient(sat3, bourne_congruence(Subsemimodule(sat3, (0, 2))))
    res2 = is_short_exact(short_sequence(incl2, q2.projection))
    assert not res2.ok
    assert any("f(L) = Ker(g)" == c[0] for c in res2.diagnosis)

    z2 = self_module(make_zmod(2))
    res3 = is_short_exact(short_sequence(zero_morphism(zero_module(z2.semiring), z2),
                                         identity_morphism(z2)))
    assert res3.ok


def test_short_exact_shape_error(max3):
    with pytest.raises(StructureError):
        is_short_exact(Sequence("s", (identity_morphism(max3),)))


def test_sequence_needs_an_arrow():
    with pytest.raises(StructureError, match=r"^sequence s: needs at least one arrow$"):
        Sequence("s", ())


def test_short_exact_ends_uniform(nat3_universe):
    z = zero_module(nat3_universe[0].semiring)
    for M in nat3_universe:
        for N in nat3_universe:
            for g in enumerate_hom(M, N):
                for L in nat3_universe:
                    for f in enumerate_hom(L, M):
                        seq = short_sequence(f, g)
                        if is_short_exact(seq).ok:
                            assert classify(f).uniform
                            assert classify(g).uniform


def test_ker_coker_examples(sat3, chain2, max3):
    squash = Morphism("squash", sat3, chain2, (0, 1, 1))
    r = ker_coker_sequence(squash)
    assert r.verdict.semi_exact and not r.verdict.exact

    r = ker_coker_sequence(identity_morphism(max3))
    assert r.verdict.exact

    q = quotient(max3, bourne_congruence(Subsemimodule(max3, (0, 1))))
    r = ker_coker_sequence(q.projection)
    assert r.verdict.exact


def test_ker_coker_universe(nat3_universe):
    for M in nat3_universe:
        for N in nat3_universe:
            for f in enumerate_hom(M, N):
                r = ker_coker_sequence(f)  # internal asserts cover the claims
                assert r.verdict.semi_exact
                assert r.verdict.exact == classify(f).uniform


def test_subobject_character(max3, sat3, nat3_universe):
    c = subobject_character(Subsemimodule(max3, (0, 1)))
    assert c.normal and c.uniform and c.equivalent
    c = subobject_character(Subsemimodule(sat3, (0, 2)))
    assert not c.normal and not c.uniform and c.equivalent
    for m in nat3_universe:
        c = subobject_character(Subsemimodule(m, (m.zero,)))
        assert c.normal


def test_iso_three_ways(nat3_universe):
    """iso iff 0 -> X -> Y -> 0 exact iff uniform bimorphism (desk scale)."""
    pool = universe_with_free_module(UniverseSpec(nat3_universe[0].semiring, 3))
    z = zero_module(nat3_universe[0].semiring)
    for X in nat3_universe:
        for Y in nat3_universe:
            for f in enumerate_hom(X, Y):
                iso = is_isomorphism(f)
                seq = Sequence("s", (zero_morphism(z, X), f, zero_morphism(Y, z)))
                exact = analyze(seq).exact
                c = classify(f)
                bimorph = c.uniform and is_monomorphism(f, pool) \
                    and is_epimorphism(f, pool)
                assert iso == exact == bimorph, f.name
