"""Morphism machinery: kernels, images, classification, induced maps, Hom."""

import hashlib
import json
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semiexact import morphisms
from semiexact.catalog import is_epimorphism, is_monomorphism, universe_with_free_module
from semiexact.core import (Semimodule, Semiring, Subsemimodule, is_cancellative_module,
                            make_boolean, make_saturating_naturals,
                            make_upper_triangular_boolean, make_zmod, module_from_monoid,
                            monoid_semiring,
                            self_module, subtractive_closure_set, validate_semimodule,
                            zero_module)
from semiexact.enumeration import enumerate_semimodules, oracle_iso_exists, UniverseSpec
from semiexact.errors import PreconditionError, StructureError
from semiexact.fixtures import builtin_modules, builtin_semirings
from semiexact.morphisms import (Morphism, _table, canonical_iso,
                                 classify, cokernel, coimage, compose, enumerate_hom,
                                 factor_through_injection, factor_through_surjection,
                                 hom_add, identity_morphism, image, image_set,
                                 induced_from_cokernel, induced_to_kernel, is_injective,
                                 is_isomorphism, is_k_uniform, is_surjective, kernel, kernel_module,
                                 kernel_set, submodule_as_module,
                                 zero_morphism)
from semiexact.quotients import bourne_congruence, quotient

from conftest import is_linear_table, mutated_module


@pytest.fixture(scope="module")
def squash(sat3, chain2):
    return Morphism("squash", sat3, chain2, (0, 1, 1))


def test_morphism_validation(sat3, chain2):
    with pytest.raises(StructureError):
        Morphism("bad", sat3, chain2, (0, 1, 0))  # not additive: f(1+1) != f(1)+f(1)
    with pytest.raises(StructureError):
        Morphism("bad", sat3, chain2, (1, 1, 1))  # does not preserve zero
    with pytest.raises(StructureError):
        Morphism("bad", sat3, chain2, (0, 1))  # wrong length
    z2 = self_module(make_zmod(2))
    with pytest.raises(StructureError):
        Morphism("bad", z2, chain2, (0, 1))  # different semirings


def test_map_value_equal_to_codomain_size_is_out_of_range(chain2):
    """The range check is strict: a value equal to the codomain's size is
    refused by name, before the linearity check would index past the table."""
    with pytest.raises(StructureError, match="value 2 out of range"):
        Morphism("bad", chain2, chain2, (0, 2))


def test_hom_add_needs_both_ends_shared(chain2, max3):
    """Maps that share only their domain or only their codomain are in
    different hom-sets, in either order."""
    f = zero_morphism(chain2, chain2)
    for g in (zero_morphism(chain2, max3), zero_morphism(max3, chain2)):
        for pair in ((f, g), (g, f)):
            with pytest.raises(PreconditionError, match="mismatched hom-set"):
                hom_add(*pair)


def test_kernel_image_examples(squash, sat3, max3):
    z2 = self_module(make_zmod(2))
    assert kernel(identity_morphism(z2)).members == (0,)
    assert kernel(squash).members == (0,)
    assert kernel(zero_morphism(sat3, max3)).members == (0, 1, 2)
    assert image(squash).members == (0, 1)
    assert image(zero_morphism(sat3, max3)).members == (0,)


def test_cokernel_examples(max3, chain2):
    sub, incl = submodule_as_module(Subsemimodule(max3, (0, 1)))
    ck = cokernel(incl)
    assert ck.congruence.class_members() == [(0, 1), (2,)]
    surj = Morphism("s", max3, chain2, (0, 0, 1))
    assert cokernel(surj).quotient.size == 1
    z = zero_module(max3.semiring)
    ck = cokernel(zero_morphism(z, max3))
    assert ck.quotient.size == max3.size


def test_coimage_and_canonical_iso(squash):
    co = coimage(squash)
    assert co.quotient.size == 2
    d = canonical_iso(squash)
    assert is_isomorphism(d)
    ident = identity_morphism(squash.domain)
    assert canonical_iso(ident).domain.size == squash.domain.size
    z = zero_morphism(squash.domain, squash.codomain)
    assert coimage(z).quotient.size == 1
    assert image(z).members == (0,)


def test_classify_examples(squash, sat3):
    c = classify(squash)
    assert not c.injective and c.surjective
    assert not c.k_uniform and c.i_uniform
    assert c.semi_mono and c.semi_epi and c.semi_iso
    assert not c.uniform
    assert dict(c.witnesses)["k_uniform"] == "pair (1,2)"

    # the inclusion of {0,2} as a two-element saturating monoid
    sub, incl = submodule_as_module(Subsemimodule(sat3, (0, 2)))
    ci = classify(incl)
    assert not ci.i_uniform and ci.injective and ci.k_uniform

    ident = classify(identity_morphism(sat3))
    assert ident.injective and ident.surjective and ident.uniform \
        and ident.semi_iso and ident.cancellative is not None


def test_classifications_compare_every_flag_and_witness():
    """The zero maps into Z2 from Z2 and from the two-element chain agree on
    every flag with a witness and on every witness; they differ only in
    epimorphism_in_cs (False, None), which has none, and are unequal."""
    z2 = module_from_monoid(((0, 1), (1, 0)), "Z2")
    chain = module_from_monoid(((0, 1), (1, 1)), "C2")
    from_z2, from_chain = classify(zero_morphism(z2, z2)), classify(zero_morphism(chain, z2))
    assert from_z2.witnesses == from_chain.witnesses and from_z2.witnesses
    assert (from_z2.epimorphism_in_cs, from_chain.epimorphism_in_cs) == (False, None)
    assert from_z2 != from_chain and from_z2 == _uncached_classify(zero_morphism(z2, z2))


def test_classification_invariants(nat3_universe):
    for M in nat3_universe:
        for N in nat3_universe:
            for f in enumerate_hom(M, N):
                c = classify(f)
                assert c.uniform == (c.k_uniform and c.i_uniform)
                assert c.semi_iso == (c.semi_mono and c.semi_epi)
                if c.injective:
                    assert c.semi_mono and c.k_uniform
                if c.surjective:
                    assert c.i_uniform and c.semi_epi
                both = is_cancellative_module(M) and is_cancellative_module(N)
                assert (c.epimorphism_in_cs is None) == (not both)


def test_kernels_always_subtractive(nat3_universe):
    for M in nat3_universe:
        for N in nat3_universe:
            for f in enumerate_hom(M, N):
                k = kernel_set(f)
                assert k == set(subtractive_closure_set(M, k)), f.name


def _costead_candidate(f):
    """[x] -> f(x) on the Bourne quotient of the kernel; (map, quotient)."""
    q = quotient(f.domain, bourne_congruence(kernel(f)))
    table = {}
    for x in f.domain.elements():
        c = q.projection.map[x]
        table.setdefault(c, set()).add(f.map[x])
    return q, table


def test_costead_blocks(nat3_universe):
    """k-uniform iff the canonical map X/Ker -> im is an isomorphism;
    i-uniform iff im equals the kernel of the cokernel projection;
    uniform iff the canonical map onto the closure is an isomorphism."""
    for M in nat3_universe:
        for N in nat3_universe:
            for f in enumerate_hom(M, N):
                c = classify(f)
                q, table = _costead_candidate(f)
                well_defined = all(len(v) == 1 for v in table.values())
                if well_defined:
                    values = {min(v) for v in table.values()}
                    bijective = len(values) == q.quotient.size == len(image_set(f))
                else:
                    bijective = False
                assert c.k_uniform == bijective, f.name

                ck = cokernel(f)
                assert c.i_uniform == (kernel_set(ck.projection) == image_set(f))

                closure = subtractive_closure_set(N, image_set(f))
                onto_closure = well_defined and bijective and \
                    image_set(f) == closure
                assert c.uniform == onto_closure, f.name


def test_mono_iff_injective(nat3_universe):
    pool = universe_with_free_module(
        UniverseSpec(nat3_universe[0].semiring, 3))
    for M in nat3_universe:
        for N in nat3_universe:
            for f in enumerate_hom(M, N):
                assert is_monomorphism(f, pool) == is_injective(f), f.name


@pytest.mark.parametrize("semiring, n, added", [(make_zmod(2), 3, False), (make_zmod(3), 2, True)],
                         ids=["Z2@3-holds-it", "Z3@2-adds-it"])
def test_universe_with_free_module_holds_it_once(semiring, n, added):
    """The bounded test pool is the universe plus the free module of rank
    one where no universe module is isomorphic to it: one copy either way."""
    spec = UniverseSpec(semiring, n)
    pool, free = universe_with_free_module(spec), self_module(semiring)
    assert len(pool) == len(enumerate_semimodules(spec).modules) + added
    assert sum(M.size == free.size and oracle_iso_exists(free, M) is not None
               for M in pool) == 1


def test_cs_epi_closure_criterion(nat3_universe):
    """Over cancellative modules, brute-force epi testing against cancellative
    codomains agrees with closure(image) = codomain."""
    cs = [m for m in nat3_universe if is_cancellative_module(m)]
    for M in cs:
        for N in cs:
            for f in enumerate_hom(M, N):
                closure_says = len(subtractive_closure_set(N, image_set(f))) == N.size
                assert is_epimorphism(f, cs) == closure_says, f.name


def test_regular_epi_proxies(nat3_universe):
    """surjective iff Coker = 0 and i-uniform."""
    for M in nat3_universe:
        for N in nat3_universe:
            for f in enumerate_hom(M, N):
                c = classify(f)
                proxy = cokernel(f).quotient.size == 1 and c.i_uniform
                assert proxy == c.surjective, f.name


def test_induced_to_kernel_examples(max3):
    sub, incl = submodule_as_module(Subsemimodule(max3, (0, 1)))
    q = quotient(max3, bourne_congruence(Subsemimodule(max3, (0, 1))))
    f_prime = induced_to_kernel(incl, q.projection)
    assert is_surjective(f_prime)
    assert f_prime.codomain.size == 2

    z2 = self_module(make_zmod(2))
    z = zero_module(z2.semiring)
    fp = induced_to_kernel(zero_morphism(z, z2), identity_morphism(z2))
    assert fp.codomain.size == 1
    fp = induced_to_kernel(identity_morphism(z2), zero_morphism(z2, z))
    assert is_isomorphism(fp)


def test_induced_to_kernel_names(squash):
    """f' is named after f unless a name is given."""
    _, incl = kernel_module(squash)
    assert induced_to_kernel(incl, squash).name == "incl[Ker(squash)]'"
    assert induced_to_kernel(incl, squash, "k").name == "k"


def test_induced_from_cokernel_examples(max3):
    sub, incl = submodule_as_module(Subsemimodule(max3, (0, 1)))
    q = quotient(max3, bourne_congruence(Subsemimodule(max3, (0, 1))))
    g2, coker = induced_from_cokernel(incl, q.projection)
    assert is_injective(g2)

    z2 = self_module(make_zmod(2))
    z = zero_module(z2.semiring)
    gz, _ = induced_from_cokernel(zero_morphism(z, z2), identity_morphism(z2))
    assert is_isomorphism(gz)


def test_induced_from_cokernel_names(max3):
    """g'' is named after g unless a name is given."""
    _, incl = submodule_as_module(Subsemimodule(max3, (0, 1)))
    q = quotient(max3, bourne_congruence(Subsemimodule(max3, (0, 1))), name="Q")
    assert induced_from_cokernel(incl, q.projection)[0].name == "pi[Q]''"
    assert induced_from_cokernel(incl, q.projection, "k")[0].name == "k"


def test_induced_preconditions(max3):
    ident = identity_morphism(max3)
    with pytest.raises(PreconditionError):
        induced_to_kernel(ident, ident)  # composite is the identity, not zero
    with pytest.raises(PreconditionError):
        induced_from_cokernel(ident, ident)


def test_arrows_that_do_not_meet_are_refused(max3):
    """compose, induced_to_kernel and induced_from_cokernel refuse arrows
    that do not compose, and enumerate_hom modules over different
    semirings (max3 is over N4_12), each with its own message."""
    z2 = self_module(make_zmod(2))
    f, g = identity_morphism(max3), identity_morphism(z2)
    with pytest.raises(PreconditionError,
                       match=r"^cannot compose id\[Z2\] after id\[max3\]: objects differ$"):
        compose(g, f)
    with pytest.raises(PreconditionError, match=r"^induced_to_kernel: f and g do not compose$"):
        induced_to_kernel(f, g)
    with pytest.raises(PreconditionError,
                       match=r"^induced_from_cokernel: f and g do not compose$"):
        induced_from_cokernel(f, g)
    with pytest.raises(PreconditionError,
                       match=r"^enumerate_hom: modules over different semirings$"):
        enumerate_hom(max3, z2)


def test_enumerate_hom_examples(chain2, max3):
    z2 = self_module(make_zmod(2))
    assert len(enumerate_hom(z2, z2)) == 2
    z = zero_module(max3.semiring)
    assert len(enumerate_hom(max3, z)) == 1
    maps = [h.map for h in enumerate_hom(chain2, max3)]
    assert maps == [(0, 0), (0, 1), (0, 2)]


def test_hom_monoid(chain2, max3):
    homs = enumerate_hom(chain2, max3)
    zero = zero_morphism(chain2, max3)
    for f in homs:
        assert hom_add(f, zero).map == f.map
        for g in homs:
            assert hom_add(f, g).map == hom_add(g, f).map
            assert hom_add(f, g).map in {h.map for h in homs}


def test_composition_laws(nat3_universe):
    """Transfer of k/i-uniformity along composition with injective g or
    surjective f, all six directions."""
    small = [m for m in nat3_universe if m.size <= 3]
    for L in small:
        for M in small:
            for f in enumerate_hom(L, M):
                cf = classify(f)
                for N in small:
                    for g in enumerate_hom(M, N):
                        cg = classify(g)
                        gf = classify(compose(g, f))
                        if is_injective(g):
                            assert cf.k_uniform == gf.k_uniform
                            if gf.i_uniform:
                                assert cf.i_uniform
                            if gf.uniform:
                                assert cf.uniform
                            if cg.i_uniform:
                                assert cf.i_uniform == gf.i_uniform
                                assert cf.uniform == gf.uniform
                        if is_surjective(f):
                            assert cg.i_uniform == gf.i_uniform
                            if gf.k_uniform:
                                assert cg.k_uniform
                            if gf.uniform:
                                assert cg.uniform
                            if cf.k_uniform:
                                assert cg.k_uniform == gf.k_uniform
                                assert cg.uniform == gf.uniform


@settings(max_examples=60)
@given(data=st.data())
def test_hom_linearity_random(nat3_universe, data):
    """Every enumerated hom passes full linearity; every non-enumerated total
    map fails it (enumerate_hom is complete)."""
    small = [m for m in nat3_universe if m.size <= 3]
    M = data.draw(st.sampled_from(small))
    N = data.draw(st.sampled_from(small))
    table = tuple(data.draw(st.integers(0, N.size - 1)) for _ in range(M.size))
    enumerated = {h.map for h in enumerate_hom(M, N)}
    try:
        Morphism("cand", M, N, table)
        valid = True
    except StructureError:
        valid = False
    assert valid == (table in enumerated)


FACTOR_SEMIRINGS = [make_zmod(2), make_saturating_naturals(2), make_boolean()]


def _maps_by_end(semiring):
    """Every map of the size-3 universe, grouped by codomain and by domain."""
    mods = enumerate_semimodules(UniverseSpec(semiring, 3)).modules
    into = {M: [h for X in mods for h in enumerate_hom(X, M)] for M in mods}
    out_of = {M: [h for X in mods for h in enumerate_hom(M, X)] for M in mods}
    return mods, into, out_of


@pytest.mark.parametrize("semiring", FACTOR_SEMIRINGS, ids=lambda s: s.name)
def test_factor_through_injection(semiring):
    """For every i: X -> M and h: D -> M of the universe: PreconditionError
    when i is not injective, else None exactly when h leaves image(i), else
    a map D -> X with i∘k = h."""
    mods, into, _ = _maps_by_end(semiring)
    outcomes = set()
    for M in mods:
        for i in into[M]:
            for h in into[M]:
                if not is_injective(i):
                    with pytest.raises(PreconditionError):
                        factor_through_injection(i, h.map, h.domain, "k")
                    outcomes.add("raised")
                    continue
                k = factor_through_injection(i, h.map, h.domain, "k")
                if not image_set(h) <= image_set(i):
                    assert k is None
                    outcomes.add("none")
                    continue
                assert (k.domain, k.codomain) == (h.domain, i.domain)
                assert _table(i, k) == h.map
                assert Morphism(k.name, k.domain, k.codomain, k.map) == k  # linear
                outcomes.add("lifted")
    assert outcomes == {"raised", "none", "lifted"}


def test_nat4_maps_equal_their_public_rebuilds(nat4_universe):
    """The 2,280 maps of the nat4@4 universe, which enumerate_hom builds
    without re-validation, pass the validating constructor, and equal and
    hash as its rebuilds; every cached hash is the field-tuple hash."""
    maps = [f for M in nat4_universe for N in nat4_universe for f in enumerate_hom(M, N)]
    assert len(maps) == 2280
    for f in maps:
        rebuilt = Morphism(f.name, f.domain, f.codomain, f.map)
        assert rebuilt == f and hash(rebuilt) == hash(f)
        assert hash(f) == hash((f.name, f.domain, f.codomain, f.map))
    for M in nat4_universe:
        assert hash(M) == hash((M.name, M.semiring, M.size, M.add, M.action, M.zero))
    S = nat4_universe[0].semiring
    assert hash(S) == hash((S.name, S.size, S.add, S.mul, S.zero, S.one))


def _uncached_classify(f):
    return morphisms._classified.__wrapped__(f.domain, f.codomain, f.map)


def _uncached_k_uniform(f):
    pair = morphisms._k_uniform_witness.__wrapped__(f.domain, f.codomain.zero, f.map)
    return pair is None, pair


def test_structure_caches_ignore_names(nat4_universe):
    """classify and is_k_uniform, cached by tables, equal the uncached
    computation on all 2,280 nat4@4 maps and on their copies between renamed
    modules; enumerate_hom on renamed modules gives the same tables, with
    maps named after the new modules."""
    renamed = {M: Semimodule(f"{M.name}'", M.semiring, M.size, M.add, M.action, M.zero)
               for M in nat4_universe}
    count = 0
    for M in nat4_universe:
        for N in nat4_universe:
            homs, copies = enumerate_hom(M, N), enumerate_hom(renamed[M], renamed[N])
            assert [g.map for g in copies] == [f.map for f in homs]
            assert [g.name for g in copies] == [f"h{i}[{M.name}'->{N.name}']"
                                                for i in range(len(homs))]
            for f, g in zip(homs, copies):
                assert (g.domain, g.codomain) == (renamed[M], renamed[N])
                assert classify(g) == classify(f) == _uncached_classify(f)
                assert is_k_uniform(g, witness=True) == is_k_uniform(f, witness=True) \
                    == _uncached_k_uniform(f)
                count += 1
    assert count == 2280


def test_structure_caches_separate_semiring_and_zero():
    """Modules with equal tables but another semiring (equal tables, another
    name) or another zero share no cache entry: each has a twin of its own,
    the hom search runs once for each, and each gets its own hom-set."""
    B = make_boolean()
    B2 = Semiring("B2", B.size, B.add, B.mul)
    add, action = ((0, 1), (1, 1)), ((0, 0), (0, 1))
    variants = [Semimodule("M", B, 2, add, action), Semimodule("M", B2, 2, add, action),
                Semimodule("M", B, 2, add, action, zero=1)]
    assert len({V.unnamed for V in variants}) == 3
    morphisms._hom_tables.cache_clear()
    homs = [enumerate_hom(V, V) for V in variants]
    assert morphisms._hom_tables.cache_info().currsize == 3
    assert [[f.map for f in fs] for fs in homs] == [[(0, 0), (0, 1)], [(0, 0), (0, 1)], [(0, 1)]]
    for fs in homs:
        for f in fs:
            assert classify(f) == _uncached_classify(f)
            assert is_k_uniform(f, witness=True) == _uncached_k_uniform(f)


def _uncached_kernel_module(f):
    """Ker(f) as a module with its inclusion, every table built here."""
    M, members, name = f.domain, kernel(f).members, f"Ker({f.name})"
    pos = {m: i for i, m in enumerate(members)}
    sub = Semimodule(name, M.semiring, len(members),
                     [[pos[M.add[a][b]] for b in members] for a in members],
                     [[pos[M.action[a][s]] for s in range(M.semiring.size)] for a in members],
                     pos[M.zero])
    return sub, Morphism(f"incl[{name}]", sub, M, members)


@pytest.mark.parametrize("semiring", [make_zmod(2), make_boolean()], ids=lambda s: s.name)
def test_kernels_and_cokernels_come_from_one_structure_cache(monkeypatch, semiring):
    """kernel_module and cokernel of every map of the @4 pool equal an
    uncached construction, names, tables and congruence classes included,
    and the structure cache checks each kernel's closure and each Bourne
    congruence once per (module table, members)."""
    mods = enumerate_semimodules(UniverseSpec(semiring, 4)).modules
    maps = [f for M in mods for N in mods for f in enumerate_hom(M, N)]
    checks = {"closure": 0, "bourne": 0}
    for cls, kind in ((Subsemimodule, "closure"), (morphisms.Congruence, "bourne")):
        def counted(self, check=cls.__post_init__, kind=kind):
            checks[kind] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    monkeypatch.setattr(morphisms, "_substructures",
                        lru_cache(maxsize=None)(morphisms._substructures.__wrapped__))
    built = [(kernel_module(f), cokernel(f)) for f in maps for _ in range(2)]
    assert checks == {
        "closure": len({(f.domain.unnamed, tuple(sorted(kernel_set(f)))) for f in maps}),
        "bourne": len({(f.codomain.unnamed, tuple(sorted(image_set(f)))) for f in maps})}
    monkeypatch.undo()
    for f, (kmod, coker) in zip([f for f in maps for _ in range(2)], built):
        assert kmod == _uncached_kernel_module(f), f.name
        assert coker == quotient(f.codomain, bourne_congruence(image(f)), name=f"Coker({f.name})")
        assert coker.quotient.name == f"Coker({f.name})", f.name


def test_derived_maps_skip_validation(monkeypatch, nat3_universe):
    """Hom-set members (already checked by is_linear_table), composites and
    factored maps are linear by construction: building them makes no
    validating Morphism."""
    mods = nat3_universe[:8]
    homs = {(M, N): enumerate_hom(M, N) for M in mods for N in mods}
    built = []
    post_init = Morphism.__post_init__

    def counted(self):
        built.append(self.name)
        post_init(self)
    monkeypatch.setattr(Morphism, "__post_init__", counted)
    fresh = [f for M in mods for N in mods for f in enumerate_hom.__wrapped__(M, N)]
    assert fresh == [f for fs in homs.values() for f in fs]
    made = 0
    for (L, M), fs in homs.items():
        for N in mods:
            for f in fs:
                for g in homs[M, N]:
                    compose(g, f)
                    if is_injective(g):
                        made += factor_through_injection(g, _table(g, f), L, "k") is not None
                    if is_surjective(f):
                        made += factor_through_surjection(f, _table(g, f), N, "k") is not None
    assert made > 100
    assert built == []


@pytest.mark.parametrize("semiring", FACTOR_SEMIRINGS, ids=lambda s: s.name)
def test_factor_through_surjection(semiring):
    """For every p: M -> Q and h: M -> N of the universe: None exactly when p
    is not onto or h is not constant on a fibre of p, else a map Q -> N with
    k∘p = h."""
    mods, _, out_of = _maps_by_end(semiring)
    outcomes = set()
    for M in mods:
        for p in out_of[M]:
            for h in out_of[M]:
                k = factor_through_surjection(p, h.map, h.codomain, "k")
                fibres_ok = all(h.map[x] == h.map[y] for x in M.elements()
                                for y in M.elements() if p.map[x] == p.map[y])
                if not is_surjective(p) or not fibres_ok:
                    assert k is None
                    outcomes.add("not onto" if not is_surjective(p) else "fibre")
                    continue
                assert (k.domain, k.codomain) == (p.codomain, h.codomain)
                assert _table(k, p) == h.map
                assert Morphism(k.name, k.domain, k.codomain, k.map) == k  # linear
                outcomes.add("descended")
    assert outcomes == {"not onto", "fibre", "descended"}
    p = next(p for M in mods for p in out_of[M] if p.domain.size > 1)
    with pytest.raises(PreconditionError):
        factor_through_surjection(p, p.map[:-1], p.codomain, "short")


def _generating_sequence(M):
    """Greedy generators of M plus a derivation for every element: zero, a
    generator, a sum or an action of elements derived before it."""
    derivation = {M.zero: ("zero",)}
    order = [M.zero]
    gens = []

    def close():
        changed = True
        while changed:
            changed = False
            for a in list(order):
                for b in list(order):
                    c = M.add[a][b]
                    if c not in derivation:
                        derivation[c] = ("add", a, b)
                        order.append(c)
                        changed = True
                for s in range(M.semiring.size):
                    c = M.action[a][s]
                    if c not in derivation:
                        derivation[c] = ("act", a, s)
                        order.append(c)
                        changed = True

    close()
    for m in M.elements():
        if m not in derivation:
            gens.append(m)
            derivation[m] = ("gen", len(gens) - 1)
            order.append(m)
            close()
    return gens, order, derivation


def _product_hom_tables(M, N):
    """The hom search that checks equivariance at every element of S: each
    assignment of images to a greedy generating set of M, extended along its
    derivation and kept when is_linear_table accepts it."""
    gens, order, derivation = _generating_sequence(M)
    out = []
    for images in product(range(N.size), repeat=len(gens)):
        table = [None] * M.size
        for m in order:
            d = derivation[m]
            if d[0] == "zero":
                table[m] = N.zero
            elif d[0] == "gen":
                table[m] = images[d[1]]
            elif d[0] == "add":
                table[m] = N.add[table[d[1]]][table[d[2]]]
            else:
                table[m] = N.action[table[d[1]]][d[2]]
        if is_linear_table(M, N, table):
            out.append(tuple(table))
    return tuple(sorted(out))


def _relabelled(M):
    """M with every index i renamed (i + 1) mod |M|, so its zero is not 0."""
    n = M.size
    pos = [(i + 1) % n for i in range(n)]
    add, action = [[0] * n for _ in range(n)], [[0] * M.semiring.size for _ in range(n)]
    for a in M.elements():
        for b in M.elements():
            add[pos[a]][pos[b]] = pos[M.add[a][b]]
        for s in range(M.semiring.size):
            action[pos[a]][s] = pos[M.action[a][s]]
    return Semimodule(f"{M.name}+1", M.semiring, n, add, action, zero=pos[M.zero])


def _invalid_action_mutants(M):
    """Every copy of M with one action cell changed that fails validation."""
    out = []
    for a in M.elements():
        for s in range(M.semiring.size):
            for v in M.elements():
                if v != M.action[a][s]:
                    X = mutated_module(M, "action", a, s, v)
                    if not validate_semimodule(X).ok:
                        out.append(X)
    return out


def _assert_same_homs(pairs):
    for M, N in pairs:
        assert morphisms._hom_tables(M.unnamed, N.unnamed) == _product_hom_tables(M, N), \
            (M.name, N.name)


def test_hom_tables_match_product_search(nat4_universe):
    """The descent finds the maps the product search finds: on every pair of
    modules of size <= 3 over each builtin semiring and over the
    non-commutative UT2B, on every pair of nat4@4 (2,280 maps), on the
    builtin fixtures with and without their elements relabelled so that zero
    is not index 0, and between the action mutants of sat3 and T2.self that
    fail validation, where equivariance is checked over all of S, and the
    fixtures over their semiring."""
    semirings = [*builtin_semirings().values(), make_upper_triangular_boolean()]
    for s in semirings:
        mods = enumerate_semimodules(UniverseSpec(s, 3)).modules
        _assert_same_homs((M, N) for M in mods for N in mods)
    maps = 0
    for M in nat4_universe:
        for N in nat4_universe:
            tables = morphisms._hom_tables(M.unnamed, N.unnamed)
            assert tables == _product_hom_tables(M, N)
            maps += len(tables)
    assert maps == 2280
    fixtures = list(builtin_modules().values())
    relabelled = [_relabelled(M) for M in fixtures if M.size > 1]
    assert all(M.zero != 0 for M in relabelled)
    both = fixtures + relabelled
    _assert_same_homs((M, N) for M in both for N in both if M.semiring == N.semiring)
    mutants = 0
    for M in (builtin_modules()["sat3"], builtin_modules()["T2.self"]):
        over = [N for N in both if N.semiring == M.semiring]
        for X in _invalid_action_mutants(M):
            _assert_same_homs([(X, X), *((X, N) for N in over), *((N, X) for N in over)])
            mutants += 1
    assert mutants == 114


NAT5_HOMS = Path(__file__).resolve().parent / "data" / "nat5_homs.json"


def test_nat5_hom_sweep_is_pinned():
    """Every hom-set of nat5@5, against counts and a sha256 of the sorted
    tables of every pair in universe order, recorded from the product search
    (_product_hom_tables), which takes about ten times as long."""
    mods = enumerate_semimodules(UniverseSpec(monoid_semiring(5), 5)).modules
    homs = [morphisms._hom_tables(M.unnamed, N.unnamed) for M in mods for N in mods]
    got = {"modules": len(mods), "maps": sum(map(len, homs)),
           "sha256": hashlib.sha256(json.dumps(homs).encode()).hexdigest()}
    assert got == json.loads(NAT5_HOMS.read_text(encoding="utf-8"))
