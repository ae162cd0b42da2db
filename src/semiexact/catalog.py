"""The counterexample catalog, and the bounded mono and epi tests it reads.

The catalog is one table, _CATALOG: each Property has its description, its
candidate stream over a universe, one predicate holds(spec, witnesses) that
runs its cheap, selective tests first, and the text of a found
counterexample. A search returns the first candidate that holds, counting
every candidate inspected; a replay is the same predicate on the stored spec
and witnesses, so it re-checks the whole property over the universe the
counterexample was found in. PROPERTIES is its public view. The candidate
streams of maps and composable pairs walk the universe's hom-sets by
enumeration.maps_among, the one walk the harness's row pools read too.

The paper's separating examples are maps, so the catalog needs morphisms.
It lives apart from enumeration so that a corpus export, which enumerates
modules only, loads neither morphisms nor quotients.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

from .core import (all_subsemimodules, is_cancellative_module, is_subtractive, self_module,
                   subtractive_closure_set)
from .enumeration import UniverseSpec, enumerate_semimodules, maps_among, oracle_iso_exists
from .errors import ParameterError
from .morphisms import (Morphism, classify, compose, enumerate_hom, image_set, is_injective,
                        is_isomorphism, is_k_uniform, is_surjective, kernel_set)


@lru_cache(maxsize=None)
def universe_with_free_module(spec: UniverseSpec):
    """Universe modules plus the rank-one free module (the semiring over
    itself), which separates any two elements with equal image and makes the
    bounded monomorphism test exact. Built once per spec."""
    uni = enumerate_semimodules(spec)
    mods = list(uni.modules)
    free = self_module(spec.semiring)
    if not any(oracle_iso_exists(free, m) for m in mods if m.size == free.size):
        mods.append(free)
    return tuple(mods)


def is_monomorphism(f: Morphism, test_modules) -> bool:
    """Brute-force: no pair h1 != h2 with f∘h1 = f∘h2 over the test modules."""
    for Z in test_modules:
        homs = enumerate_hom(Z, f.domain)
        seen = {}
        for h in homs:
            key = tuple(f.map[v] for v in h.map)
            if key in seen:
                return False
            seen[key] = h
    return True


def is_epimorphism(f: Morphism, test_modules) -> bool:
    """Brute-force: no pair g1 != g2 with g1∘f = g2∘f over the test modules."""
    for Z in test_modules:
        homs = enumerate_hom(f.codomain, Z)
        seen = {}
        for g in homs:
            key = tuple(g.map[v] for v in f.map)
            if key in seen:
                return False
            seen[key] = g
    return True


class Counterexample(NamedTuple):
    property_id: str
    witnesses: tuple
    description: str
    spec: UniverseSpec  # the universe it was found in, which a replay re-checks


class ExhaustionReport(NamedTuple):
    property_id: str
    spec: UniverseSpec
    searched: int
    description: str


class Property(NamedTuple):
    """One catalog entry: candidates(spec) yields witness tuples in search
    order, holds(spec, witnesses) is the whole property over the universe,
    and found(*witnesses) is the text of a counterexample."""
    description: str
    candidates: Callable
    holds: Callable
    found: Callable


def _subobjects(spec):
    for M in enumerate_semimodules(spec).modules:
        for L in all_subsemimodules(M):
            yield M, L


def _maps(spec):
    return ((f,) for f in maps_among(enumerate_semimodules(spec).modules))


def _cancellative_maps(spec):
    return ((f,) for f in maps_among([M for M in enumerate_semimodules(spec).modules
                                      if is_cancellative_module(M)]))


def _composable_pairs(spec):
    """(f, g) for L -f-> M -g-> N, by g first, then by f."""
    mods = enumerate_semimodules(spec).modules
    return ((f, g) for g in maps_among(mods) for f in maps_among(mods, (g.domain,)))


def _short_five_tuples(spec):
    """(row1, row2, a1, a2, a3): short-exact rows with cancellative middles
    and commuting verticals."""
    from .harness import vertical_triples  # a lemma layer, loaded by this search only

    for row1, row2, verts in vertical_triples(spec, require_cancellative_mid=True):
        yield (row1, row2, *verts)


def _cancellative_epi_not_onto(spec, witnesses):
    """Epi in the cancellative category (the image's subtractive closure is
    the codomain) but not onto: the naturals inside the integers. Expected
    absent at desk scale, since finite cancellative monoids are groups."""
    (f,) = witnesses
    N = f.codomain
    return (len(subtractive_closure_set(N, image_set(f))) == N.size
            and not is_surjective(f)
            and is_cancellative_module(f.domain) and is_cancellative_module(N))


def _bimorphism_not_iso(spec, witnesses):
    (f,) = witnesses
    return (not is_isomorphism(f) and is_injective(f)
            and is_epimorphism(f, pool := universe_with_free_module(spec))
            and is_monomorphism(f, pool))


def _proper_exact_not_exact(spec, witnesses):
    f, g = witnesses
    return (f.codomain == g.domain and image_set(f) == kernel_set(g)
            and not is_k_uniform(g))


def _semi_exact_not_proper(spec, witnesses):
    f, g = witnesses
    if f.codomain != g.domain:
        return False
    img, ker = image_set(f), kernel_set(g)
    return img != ker and subtractive_closure_set(g.domain, img) == ker


def _short_five_needs_i_uniform(spec, witnesses):
    """Outer verticals isomorphisms and a2 neither i-uniform nor iso, both
    squares commuting and short-five's hypotheses holding. Expected to
    exhaust: finite cancellative modules are groups, where every morphism
    is i-uniform."""
    from .diagrams import CLAUSES  # imported by this search only

    (f1, g1), (f2, g2), a1, a2, a3 = witnesses
    return (is_isomorphism(a1) and is_isomorphism(a3)
            and not classify(a2).i_uniform and not is_isomorphism(a2)
            and compose(f2, a1).map == compose(a2, f1).map
            and compose(a3, g1).map == compose(g2, a2).map
            and CLAUSES["short-five"].filter(())((f1, g1, f2, g2, a1, a2, a3)))


_CATALOG = {
    "non-subtractive-subsemimodule": Property(
        "a subsemimodule strictly below its subtractive closure", _subobjects,
        lambda spec, w: not is_subtractive(w[1]),
        lambda M, L: f"{{{','.join(map(str, L.members))}}} <= {M.name} "
                     "is strictly smaller than its subtractive closure"),
    "semi-mono-not-mono": Property(
        "zero kernel without injectivity", _maps,
        lambda spec, w: (classify(w[0]).semi_mono and not is_injective(w[0])
                         and not is_monomorphism(w[0], universe_with_free_module(spec))),
        lambda f: f"{f.name} has zero kernel yet identifies two elements"),
    "mono-not-injective": Property(
        "bounded-universe monomorphism that is not injective (expected absent)", _maps,
        lambda spec, w: (not is_injective(w[0])
                         and is_monomorphism(w[0], universe_with_free_module(spec))),
        lambda f: f"{f.name} is a bounded-universe monomorphism but not injective"),
    "cancellative-epi-not-surjective": Property(
        "non-surjective epimorphism of cancellative modules (expected absent)",
        _cancellative_maps, _cancellative_epi_not_onto,
        lambda f: f"{f.name} is epi in the cancellative category but not onto"),
    "non-i-uniform-bimorphism-cs": Property(
        "cancellative bimorphism that is not i-uniform (expected absent)",
        _cancellative_maps,
        lambda spec, w: (is_injective(w[0]) and _cancellative_epi_not_onto(spec, w)
                         and not classify(w[0]).i_uniform),
        lambda f: f"{f.name} is a bimorphism in the cancellative category "
                  "but not i-uniform"),
    "bimorphism-not-iso": Property(
        "bimorphism over the bounded universe that is not an isomorphism", _maps,
        _bimorphism_not_iso,
        lambda f: f"{f.name} is mono and epi over the bounded universe but not iso"),
    "proper-exact-not-exact": Property(
        "image equals kernel without k-uniformity", _composable_pairs,
        _proper_exact_not_exact,
        lambda f, g: "image equals kernel but the right map is not k-uniform"),
    "semi-exact-not-proper-exact": Property(
        "closure of image equals kernel while the image does not", _composable_pairs,
        _semi_exact_not_proper,
        lambda f, g: "closure of the image is the kernel but the image is not"),
    "short-five-needs-i-uniform": Property(
        "short-five middle hypothesis dropped (expected absent at desk scale)",
        _short_five_tuples, _short_five_needs_i_uniform,
        lambda *w: "outer isomorphisms with a non-i-uniform, non-iso middle"),
}


def _searcher(property_id, prop):
    """search(spec): the first candidate that holds, and how many were inspected."""
    def search(spec):
        count = 0
        for witnesses in prop.candidates(spec):
            count += 1
            if prop.holds(spec, witnesses):
                return Counterexample(property_id, witnesses, prop.found(*witnesses),
                                      spec), count
        return None, count
    return search


# id -> (description, search(spec) -> (Counterexample or None, instances
# inspected), replay(spec, witnesses) -> bool), all read off _CATALOG.
PROPERTIES = {pid: (p.description, _searcher(pid, p), p.holds)
              for pid, p in _CATALOG.items()}


def search_counterexample(property_id: str, spec: UniverseSpec):
    """Smallest-first deterministic search; a Counterexample or an
    ExhaustionReport with the number of instances inspected."""
    if property_id not in PROPERTIES:
        raise ParameterError(f"unknown property id {property_id!r}; known: "
                             + ", ".join(sorted(PROPERTIES)))
    description, searcher, _ = PROPERTIES[property_id]
    found, count = searcher(spec)
    if found is not None:
        return found
    return ExhaustionReport(property_id, spec, count, description)


def replay_counterexample(cx: Counterexample) -> bool:
    """Re-check the whole property on the stored witnesses over the stored
    universe; True iff the counterexample reproduces."""
    if cx.property_id not in PROPERTIES:
        raise ParameterError(f"unknown property id {cx.property_id!r}")
    return PROPERTIES[cx.property_id][2](cx.spec, cx.witnesses)
