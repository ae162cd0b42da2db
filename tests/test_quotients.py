"""Bourne congruences, kernel-pair congruences, quotient construction."""

import pytest

from semiexact.core import (Semimodule, Subsemimodule, all_subsemimodules,
                            is_cancellative_module, is_subtractive, make_zmod, self_module,
                            subtractive_closure, subtractive_closure_set,
                            validate_semimodule)
from semiexact.errors import StructureError
from semiexact.morphisms import (Morphism, identity_morphism, is_linear_table, kernel_set,
                                 submodule_as_module, zero_morphism)
from semiexact.quotients import (Congruence, bourne_congruence, identity_congruence,
                                 kernel_pair_congruence, projection_kernel_is_closure,
                                 quotient)

from conftest import oracle_bourne_related


def test_bourne_examples(max3, sat3):
    z2 = self_module(make_zmod(2))
    rho = bourne_congruence(Subsemimodule(max3, (0, 1)))
    assert rho.class_members() == [(0, 1), (2,)]
    rho = bourne_congruence(Subsemimodule(z2, (0,)))
    assert rho.classes == (0, 1)
    rho = bourne_congruence(Subsemimodule(sat3, (0, 2)))
    assert rho.class_members() == [(0, 1, 2)]


def test_bourne_matches_raw_relation(nat3_universe):
    """The pairwise defining condition is already an equivalence; union-find
    flattening must not add pairs."""
    for m in nat3_universe:
        for sub in all_subsemimodules(m):
            rho = bourne_congruence(sub)
            for a in m.elements():
                for b in m.elements():
                    assert rho.related(a, b) == \
                        oracle_bourne_related(m, sub.members, a, b)


def test_congruence_rejects_incompatible(max3):
    # {0}{1}{2} is not compatible with addition on the max chain? it is
    # (identity always is); use a partition that merges 0,2 but not 1
    with pytest.raises(StructureError):
        Congruence(max3, (0, 1, 0))


def test_kernel_pair_examples(sat3, chain2):
    z2 = self_module(make_zmod(2))
    assert kernel_pair_congruence(identity_morphism(z2)).classes == (0, 1)
    f = Morphism("f", sat3, chain2, (0, 1, 1))
    assert kernel_pair_congruence(f).class_members() == [(0,), (1, 2)]
    z = zero_morphism(sat3, chain2)
    assert kernel_pair_congruence(z).class_members() == [(0, 1, 2)]


def test_quotient_examples(max3, sat3):
    q = quotient(max3, bourne_congruence(Subsemimodule(max3, (0, 1))))
    assert q.quotient.size == 2
    assert kernel_set(q.projection) == {0, 1}
    assert set(kernel_set(q.projection)) == \
        set(subtractive_closure_set(max3, (0, 1)))

    q = quotient(max3, identity_congruence(max3))
    assert q.quotient.size == max3.size
    assert q.quotient.add == max3.add

    q = quotient(sat3, bourne_congruence(Subsemimodule(sat3, (0, 2))))
    assert q.quotient.size == 1


def test_projection_kernel_is_closure_everywhere(nat4_universe):
    for m in nat4_universe:
        for sub in all_subsemimodules(m):
            assert projection_kernel_is_closure(sub)


def test_kernel_of_projection_vs_subtractive(nat3_universe):
    for m in nat3_universe:
        for sub in all_subsemimodules(m):
            q = quotient(m, bourne_congruence(sub))
            equal = set(sub.members) == kernel_set(q.projection)
            assert equal == is_subtractive(sub)


def test_quotient_preserves_cancellativity(nat4_universe):
    for m in nat4_universe:
        if not is_cancellative_module(m):
            continue
        for sub in all_subsemimodules(m):
            q = quotient(m, bourne_congruence(sub))
            assert is_cancellative_module(q.quotient), (m.name, sub.members)


def test_bourne_of_closure_equals_bourne(nat4_universe):
    for m in nat4_universe:
        for sub in all_subsemimodules(m):
            assert bourne_congruence(sub).classes == \
                bourne_congruence(subtractive_closure(sub)).classes


def test_quotient_requires_matching_module(max3, sat3):
    rho = identity_congruence(max3)
    with pytest.raises(StructureError):
        quotient(sat3, rho)


def test_class_ids_canonical(nat3_universe):
    for m in nat3_universe:
        for sub in all_subsemimodules(m):
            rho = bourne_congruence(sub)
            assert rho.classes[m.zero] == 0
            seen = []
            for c in rho.classes:
                if c not in seen:
                    seen.append(c)
            assert seen == sorted(seen)


def _relabelled(m, perm):
    """m with element a renamed perm[a]; its zero moves to perm[m.zero]."""
    inv = sorted(range(m.size), key=perm.__getitem__)
    return Semimodule(f"{m.name}'", m.semiring, m.size,
                      [[perm[m.add[inv[i]][inv[j]]] for j in range(m.size)]
                       for i in range(m.size)],
                      [list(map(perm.__getitem__, m.action[inv[i]])) for i in range(m.size)],
                      zero=perm[m.zero])


def test_projections_and_inclusions_are_linear(nat3_universe):
    """quotient and submodule_as_module build their maps without validation:
    every Bourne projection and subsemimodule inclusion over the nat3
    universe is still linear, also after moving each module's zero off 0."""
    checked = 0
    for m in nat3_universe:
        for module in (m, _relabelled(m, [(a + 1) % m.size for a in range(m.size)])):
            for sub in all_subsemimodules(module):
                q = quotient(module, bourne_congruence(sub))
                part, incl = submodule_as_module(sub)
                assert validate_semimodule(q.quotient).ok and validate_semimodule(part).ok
                assert is_linear_table(module, q.quotient, q.projection.map)
                assert is_linear_table(part, module, incl.map)
                checked += 1
    assert checked == 2 * sum(len(all_subsemimodules(m)) for m in nat3_universe)
