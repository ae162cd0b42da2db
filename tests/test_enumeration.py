"""Universe enumeration, isomorphism oracle, counterexample catalog."""

import pytest

from semiexact.core import (make_boolean, make_zmod, make_saturating_naturals,
                            monoid_semiring)
from semiexact.enumeration import (Counterexample, ExhaustionReport, UniverseSpec,
                                   abelian_snake_delta, enumerate_semimodules,
                                   enumerate_semimodules_naive, oracle_iso_exists,
                                   replay_counterexample, search_counterexample)
from semiexact.errors import ParameterError
from semiexact.fixtures import monoid_fixture


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


def test_naive_recount_matches():
    for semiring in (monoid_semiring(3), make_boolean(), make_zmod(2),
                     make_saturating_naturals(2)):
        pruned = enumerate_semimodules(UniverseSpec(semiring, 3)).modules
        naive = enumerate_semimodules_naive(semiring, 3)
        assert len(pruned) == len(naive), semiring.name


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
    assert replay_counterexample(found)


def test_search_semi_mono_not_mono():
    spec = UniverseSpec(monoid_semiring(3), 3)
    found = search_counterexample("semi-mono-not-mono", spec)
    assert isinstance(found, Counterexample)
    (f,) = found.witnesses
    assert f.domain.size <= 3
    assert replay_counterexample(found)


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
    found = search_counterexample("proper-exact-not-exact", spec)
    assert isinstance(found, Counterexample) and replay_counterexample(found)
    found = search_counterexample("semi-exact-not-proper-exact", spec)
    assert isinstance(found, Counterexample) and replay_counterexample(found)


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
    """Maps that pass the cancellative-epi replay between non-cancellative
    modules, most of them not injective, are no cancellative bimorphisms."""
    from semiexact.morphisms import enumerate_hom, is_injective

    mods = enumerate_semimodules(UniverseSpec(monoid_semiring(3), 3)).modules
    epi_like = [f for M in mods for N in mods for f in enumerate_hom(M, N)
                if replay_counterexample(
                    Counterexample("cancellative-epi-not-surjective", (f,), "", True))]
    assert any(not is_injective(f) for f in epi_like)
    for f in epi_like:
        tampered = Counterexample("non-i-uniform-bimorphism-cs", (f,), "tampered", True)
        assert not replay_counterexample(tampered), f.name


def test_short_five_replay_rechecks_the_property():
    """A genuine short-five diagram (middle vertical an isomorphism) and the
    same diagram with a zero middle vertical are both rejected."""
    from semiexact.harness import vertical_triples
    from semiexact.morphisms import is_isomorphism, zero_morphism

    spec = UniverseSpec(make_zmod(2), 4)
    row1, row2, (a1, a2, a3) = next(
        (r1, r2, v) for r1, r2, v in vertical_triples(spec, require_cancellative_mid=True)
        if is_isomorphism(v[0]) and is_isomorphism(v[2]) and v[1].domain.size > 1)
    zero = zero_morphism(a2.domain, a2.codomain)
    for middle in (a2, zero):
        tampered = Counterexample("short-five-needs-i-uniform",
                                  (row1, row2, a1, middle, a3), "tampered", True)
        assert not replay_counterexample(tampered)


def test_search_unknown_property():
    with pytest.raises(ParameterError):
        search_counterexample("no-such-property", UniverseSpec(make_boolean(), 2))


def test_abelian_oracle_rejects_non_groups(sat3, chain2):
    from semiexact.morphisms import identity_morphism, zero_morphism
    from semiexact.core import zero_module
    z = zero_module(sat3.semiring)
    with pytest.raises(AssertionError):
        abelian_snake_delta(identity_morphism(sat3), zero_morphism(sat3, z),
                            identity_morphism(sat3), zero_morphism(sat3, z),
                            zero_morphism(sat3, sat3), zero_morphism(sat3, sat3),
                            zero_morphism(z, z))
