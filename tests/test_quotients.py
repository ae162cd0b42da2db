"""Bourne congruences, kernel-pair congruences, quotient construction."""

import pytest

from semiexact.core import (Semimodule, Subsemimodule, all_subsemimodules,
                            is_cancellative_module, is_subtractive, make_boolean, make_zmod,
                            self_module, subtractive_closure, subtractive_closure_set,
                            validate_semimodule)
from semiexact.errors import StructureError
from semiexact.morphisms import (Morphism, coimage, cokernel, enumerate_hom,
                                 identity_morphism, image, image_module, kernel_set,
                                 submodule_as_module, zero_morphism)
from semiexact.quotients import (Congruence, bourne_congruence, kernel_pair_congruence,
                                 projection_kernel_is_closure, quotient)

from conftest import identity_congruence, is_linear_table, oracle_bourne_related


def test_bourne_examples(max3, sat3):
    z2 = self_module(make_zmod(2))
    rho = bourne_congruence(Subsemimodule(max3, (0, 1)))
    assert rho.class_members() == [(0, 1), (2,)]
    rho = bourne_congruence(Subsemimodule(z2, (0,)))
    assert rho.classes == (0, 1)
    rho = bourne_congruence(Subsemimodule(sat3, (0, 2)))
    assert rho.class_members() == [(0, 1, 2)]


def test_bourne_matches_raw_relation(nat3_universe):
    """The pairwise defining condition is already an equivalence; naming each
    class by its least member must neither add nor drop pairs."""
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


def test_congruence_checks_addition_on_both_sides():
    """On the right-projection monoid R3 (a + b = b for b != 0) over B, the
    partition {0, 1}{2} is compatible with + on the right (a ~ b gives
    a + c ~ b + c) and with the action, but not on the left: 2 + 0 = 2 and
    2 + 1 = 1. A quotient by it would depend on the representatives."""
    r3 = Semimodule("R3", make_boolean(), 3, ((0, 1, 2), (1, 1, 2), (2, 1, 2)),
                    ((0, 0), (0, 1), (0, 2)))
    cls = (0, 0, 1)
    assert all(cls[r3.add[0][c]] == cls[r3.add[1][c]] for c in r3.elements())
    with pytest.raises(StructureError, match=r"not compatible with add \(a=0,b=1,c=2\)"):
        Congruence(r3, cls)


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


def _representative_independent(q):
    """The quotient tables at every pair of elements, not just at the
    smallest members of their classes."""
    M, cls, Q = q.base, q.congruence.classes, q.quotient
    return all(cls[M.add[x][y]] == Q.add[cls[x]][cls[y]]
               for x in M.elements() for y in M.elements()) and \
        all(cls[M.action[x][s]] == Q.action[cls[x]][s]
            for x in M.elements() for s in range(M.semiring.size))


def test_trusted_values_equal_checked_ones(nat4_universe):
    """The values built without a check (images, kernel-pair congruences,
    submodules as modules, quotients and their maps, identities, the members
    of all_subsemimodules) over every map and module of nat4@4: each equals,
    and hashes as, the value its checked constructor builds from its fields,
    and every coimage and cokernel is independent of its representatives."""
    values, quotients = [], []
    for M in nat4_universe:
        values += (M, M.unnamed, identity_morphism(M))
        for sub in all_subsemimodules(M):
            q = quotient(M, bourne_congruence(sub))
            values += (sub, *submodule_as_module(sub), q.quotient, q.projection)
        for N in nat4_universe:
            for f in enumerate_hom(M, N):
                quotients += (coimage(f), cokernel(f))
                values += (image(f), kernel_pair_congruence(f), *image_module(f))
    assert len(quotients) == 2 * 2280
    for q in quotients:
        assert _representative_independent(q), q.quotient.name
        values += (q.quotient, q.projection)
    for x in values:
        checked = type(x)(*x._key(x))
        assert x == checked and hash(x) == hash(checked), x
