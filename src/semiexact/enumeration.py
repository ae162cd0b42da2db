"""Exhaustive generation of small semimodules and independent oracles.

Enumeration is complete up to isomorphism for the requested bound:
candidates are kept only when their (add, action) tables are the
lexicographically smallest among all carrier permutations fixing zero.
Everything here is deterministic; the seed in a UniverseSpec only matters
to downstream samplers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product

from .core import Semimodule, Semiring, freeze_table, validate_semimodule
from .errors import ParameterError
from .morphisms import Morphism, enumerate_hom


@dataclass(frozen=True)
class UniverseSpec:
    semiring: Semiring
    max_module_size: int
    max_modules: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.max_module_size < 1:
            raise ParameterError("UniverseSpec: max_module_size must be >= 1")


@dataclass(frozen=True)
class Universe:
    spec: UniverseSpec
    modules: tuple
    truncated: bool


def canonical_form(add, action):
    """Lexicographically minimal (add, action) flattening over permutations fixing 0."""
    n = len(add)
    scols = len(action[0]) if action else 0
    best = None
    for tail in permutations(range(1, n)):
        perm = (0,) + tail  # perm[old] = new
        inv = [0] * n
        for old, new in enumerate(perm):
            inv[new] = old
        flat = []
        for i in range(n):
            oi = inv[i]
            flat.extend(perm[add[oi][j2]] for j2 in (inv[j] for j in range(n)))
        for i in range(n):
            oi = inv[i]
            flat.extend(perm[action[oi][s]] for s in range(scols))
        key = tuple(flat)
        if best is None or key < best:
            best = key
    return best


def _commutative_monoid_tables(n):
    """All commutative monoid tables on 0..n-1 with 0 neutral (not up to iso)."""
    if n == 1:
        yield ((0,),)
        return
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    for values in product(range(n), repeat=len(cells)):
        add = [[0] * n for _ in range(n)]
        for j in range(n):
            add[0][j] = j
            add[j][0] = j
        for (i, j), v in zip(cells, values):
            add[i][j] = v
            add[j][i] = v
        ok = True
        for a in range(n):
            for b in range(n):
                ab = add[a][b]
                for c in range(n):
                    if add[ab][c] != add[a][add[b][c]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            yield freeze_table(add)


def _actions_for_monoid(semiring, add):
    """All valid action tables for one monoid, by propagation plus backtracking.

    Cells forced by the monoid's addition (rows of sums) and by the
    semiring's additive/multiplicative structure are filled eagerly; the
    rare remaining cells are branched on.
    """
    n = len(add)
    s = semiring
    cols = s.size
    grid = [[None] * cols for _ in range(n)]
    for c in range(cols):
        grid[0][c] = 0
    for m in range(n):
        grid[m][s.zero] = 0
        grid[m][s.one] = m

    sum_pairs = [[] for _ in range(cols)]   # x = a + b decompositions
    prod_pairs = [[] for _ in range(cols)]  # x = a * b decompositions
    for a in range(cols):
        for b in range(cols):
            sum_pairs[s.add[a][b]].append((a, b))
            prod_pairs[s.mul[a][b]].append((a, b))
    madd_pairs = [[] for _ in range(n)]     # m = x + y in the monoid
    for a in range(n):
        for b in range(n):
            madd_pairs[add[a][b]].append((a, b))

    def propagate(g):
        changed = True
        while changed:
            changed = False
            for m in range(n):
                row = g[m]
                for x in range(cols):
                    forced = None
                    for a, b in sum_pairs[x]:
                        if row[a] is not None and row[b] is not None:
                            forced = add[row[a]][row[b]]
                            break
                    if forced is None:
                        for a, b in prod_pairs[x]:
                            if row[a] is not None and g[row[a]][b] is not None:
                                forced = g[row[a]][b]
                                break
                    if forced is None and m:
                        for a, b in madd_pairs[m]:
                            if (a, b) != (m, 0) and (a, b) != (0, m) and \
                               g[a][x] is not None and g[b][x] is not None:
                                forced = add[g[a][x]][g[b][x]]
                                break
                    if forced is not None:
                        if row[x] is None:
                            row[x] = forced
                            changed = True
                        elif row[x] != forced:
                            return False
        return True

    results = []

    def search(g):
        g = [r[:] for r in g]
        if not propagate(g):
            return
        for m in range(n):
            for x in range(cols):
                if g[m][x] is None:
                    for v in range(n):
                        h = [r[:] for r in g]
                        h[m][x] = v
                        search(h)
                    return
        table = freeze_table(g)
        candidate = Semimodule("cand", semiring, n, add, table)
        if validate_semimodule(candidate).ok:
            results.append(table)

    search(grid)
    results.sort()
    return results


@lru_cache(maxsize=None)
def _enumerated(semiring: Semiring, max_size: int):
    found = []
    for n in range(1, max_size + 1):
        for add in _commutative_monoid_tables(n):
            for action in _actions_for_monoid(semiring, add):
                if canonical_form(add, action) == tuple(
                        x for row in add for x in row) + tuple(
                        x for row in action for x in row):
                    found.append((n, add, action))
    found.sort()
    return tuple(
        Semimodule(f"U{semiring.name}.{i}", semiring, n, add, action)
        for i, (n, add, action) in enumerate(found))


def enumerate_semimodules(spec: UniverseSpec) -> Universe:
    """All modules over spec.semiring with carrier <= max_module_size, up to
    isomorphism, in canonical order; truncated when the cap is hit."""
    modules = _enumerated(spec.semiring, spec.max_module_size)
    truncated = len(modules) > spec.max_modules
    return Universe(spec, modules[:spec.max_modules], truncated)


def enumerate_semimodules_naive(semiring: Semiring, max_size: int):
    """Second generator with no canonical-form pruning, for recount checks.

    Returns the set of canonical forms of every valid (add, action) pair.
    """
    forms = set()
    for n in range(1, max_size + 1):
        for add in _commutative_monoid_tables(n):
            for action in _actions_for_monoid(semiring, add):
                forms.add((n, canonical_form(add, action)))
    return forms


def oracle_iso_exists(M: Semimodule, N: Semimodule):
    """A structure-preserving zero-fixing bijection, or None (exhaustive)."""
    if M.semiring != N.semiring or M.size != N.size:
        return None
    n = M.size
    for tail in permutations(range(1, n)):
        perm = (0,) + tail
        ok = True
        for a in range(n):
            for b in range(n):
                if perm[M.add[a][b]] != N.add[perm[a]][perm[b]]:
                    ok = False
                    break
            if not ok:
                break
            for s in range(M.semiring.size):
                if perm[M.action[a][s]] != N.action[perm[a]][s]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return Morphism(f"iso[{M.name}->{N.name}]", M, N, perm)
    return None


def universe_with_free_module(spec: UniverseSpec):
    """Universe modules plus the rank-one free module (the semiring over
    itself), which separates any two elements with equal image and makes the
    bounded monomorphism test exact."""
    from .core import self_module

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


# ------------------------------------------------- abelian-group snake oracle

def _negation(M: Semimodule):
    neg = [None] * M.size
    for a in M.elements():
        for b in M.elements():
            if M.add[a][b] == M.zero:
                neg[a] = b
                break
        if neg[a] is None:
            return None
    return neg


def abelian_snake_delta(f1, g1, f2, g2, a1, a2, a3):
    """Connecting-map oracle for diagrams of abelian groups.

    Solves the classical construction with group subtraction: cosets of
    a1's image partition L2, each kernel element of a3 is lifted through g1
    and f2, and the coset must not depend on the lift. Returns
    (partition of L2 into cosets, coset id per kernel element of a3,
    kernel elements of a3); raises if any module is not a group or a lift
    is ambiguous.
    """
    L2 = f2.domain
    neg = _negation(L2)
    assert neg is not None, "abelian oracle needs additive inverses"
    im_a1 = sorted(set(a1.map))
    coset_id = [None] * L2.size
    cosets = []
    for x in range(L2.size):
        if coset_id[x] is not None:
            continue
        members = sorted(L2.add[x][v] for v in im_a1)
        cid = len(cosets)
        cosets.append(tuple(sorted(set(members))))
        for y in cosets[-1]:
            assert coset_id[y] is None
            coset_id[y] = cid
    ker_a3 = [x for x in range(a3.domain.size) if a3.map[x] == a3.codomain.zero]
    out = []
    for k3 in ker_a3:
        classes = set()
        for m1 in range(g1.domain.size):
            if g1.map[m1] != k3:
                continue
            target = a2.map[m1]
            for l2 in range(L2.size):
                if f2.map[l2] == target:
                    classes.add(coset_id[l2])
        assert len(classes) == 1, f"oracle: ambiguous connecting value at {k3}"
        out.append(classes.pop())
    return tuple(tuple(c) for c in cosets), tuple(out), tuple(ker_a3)


# --------------------------------------------------- counterexample catalog

@dataclass(frozen=True)
class Counterexample:
    property_id: str
    witnesses: tuple
    description: str
    minimal: bool


@dataclass(frozen=True)
class ExhaustionReport:
    property_id: str
    spec: UniverseSpec
    searched: int
    description: str


def _search_non_subtractive(spec):
    from .core import all_subsemimodules, is_subtractive

    count = 0
    for M in enumerate_semimodules(spec).modules:
        for L in all_subsemimodules(M):
            count += 1
            if not is_subtractive(L):
                return Counterexample(
                    "non-subtractive-subsemimodule", (M, L),
                    f"{{{','.join(map(str, L.members))}}} <= {M.name} "
                    "is strictly smaller than its subtractive closure", True), count
    return None, count


def _replay_non_subtractive(witnesses):
    from .core import is_subtractive

    _, L = witnesses
    return not is_subtractive(L)


def _all_morphisms(spec):
    mods = enumerate_semimodules(spec).modules
    for M in mods:
        for N in mods:
            yield from enumerate_hom(M, N)


def _search_semi_mono_not_mono(spec):
    from .morphisms import classify, is_injective

    test_pool = universe_with_free_module(spec)
    count = 0
    for f in _all_morphisms(spec):
        count += 1
        if classify(f).semi_mono and not is_injective(f) \
                and not is_monomorphism(f, test_pool):
            return Counterexample(
                "semi-mono-not-mono", (f,),
                f"{f.name} has zero kernel yet identifies two elements", True), count
    return None, count


def _replay_semi_mono_not_mono(witnesses):
    from .morphisms import classify, is_injective

    (f,) = witnesses
    return classify(f).semi_mono and not is_injective(f)


def _search_mono_not_injective(spec):
    from .morphisms import is_injective

    test_pool = universe_with_free_module(spec)
    count = 0
    for f in _all_morphisms(spec):
        count += 1
        if not is_injective(f) and is_monomorphism(f, test_pool):
            return Counterexample(
                "mono-not-injective", (f,),
                f"{f.name} is a bounded-universe monomorphism but not injective",
                True), count
    return None, count


def _replay_mono_not_injective(witnesses):
    (f,) = witnesses
    from .morphisms import is_injective

    return not is_injective(f)


def _cancellative_modules(spec):
    from .core import is_cancellative_module

    return [M for M in enumerate_semimodules(spec).modules if is_cancellative_module(M)]


def _search_cancellative_epi_not_surjective(spec):
    """Finite analog of the naturals inside the integers: a non-surjective
    epimorphism of cancellative modules. Expected to exhaust at desk scale,
    since finite cancellative monoids are groups."""
    from .core import subtractive_closure_set
    from .morphisms import image_set, is_surjective

    mods = _cancellative_modules(spec)
    count = 0
    for M in mods:
        for N in mods:
            for f in enumerate_hom(M, N):
                count += 1
                closure = subtractive_closure_set(N, image_set(f))
                if len(closure) == N.size and not is_surjective(f):
                    return Counterexample(
                        "cancellative-epi-not-surjective", (f,),
                        f"{f.name} is epi in the cancellative category but not onto",
                        True), count
    return None, count


def _replay_cancellative_epi_not_surjective(witnesses):
    from .core import subtractive_closure_set
    from .morphisms import image_set, is_surjective

    (f,) = witnesses
    closure = subtractive_closure_set(f.codomain, image_set(f))
    return len(closure) == f.codomain.size and not is_surjective(f)


def _search_non_i_uniform_bimorphism_cs(spec):
    """Injective epimorphism of cancellative modules that is not i-uniform."""
    from .core import subtractive_closure_set
    from .morphisms import image_set, is_injective, is_surjective

    mods = _cancellative_modules(spec)
    count = 0
    for M in mods:
        for N in mods:
            for f in enumerate_hom(M, N):
                count += 1
                closure = subtractive_closure_set(N, image_set(f))
                if is_injective(f) and len(closure) == N.size and not is_surjective(f):
                    return Counterexample(
                        "non-i-uniform-bimorphism-cs", (f,),
                        f"{f.name} is a bimorphism in the cancellative category "
                        "but not i-uniform", True), count
    return None, count


def _replay_non_i_uniform_bimorphism_cs(witnesses):
    from .core import is_cancellative_module
    from .morphisms import classify, is_injective

    (f,) = witnesses
    return (is_cancellative_module(f.domain) and is_cancellative_module(f.codomain)
            and is_injective(f) and _replay_cancellative_epi_not_surjective(witnesses)
            and not classify(f).i_uniform)


def _search_bimorphism_not_iso(spec):
    """Bimorphism (bounded-universe mono and epi) that is not an isomorphism."""
    from .morphisms import is_injective, is_isomorphism

    pool = universe_with_free_module(spec)
    count = 0
    for f in _all_morphisms(spec):
        count += 1
        if is_isomorphism(f):
            continue
        if is_injective(f) and is_epimorphism(f, pool) and is_monomorphism(f, pool):
            return Counterexample(
                "bimorphism-not-iso", (f,),
                f"{f.name} is mono and epi over the bounded universe but not iso",
                True), count
    return None, count


def _replay_bimorphism_not_iso(witnesses):
    from .morphisms import is_isomorphism

    (f,) = witnesses
    return not is_isomorphism(f)


def _search_proper_exact_not_exact(spec):
    from .exactness import Sequence, analyze
    from .morphisms import image_set, kernel_set

    mods = enumerate_semimodules(spec).modules
    count = 0
    for M in mods:
        for N in mods:
            for g in enumerate_hom(M, N):
                for L in mods:
                    for f in enumerate_hom(L, M):
                        count += 1
                        if image_set(f) != kernel_set(g):
                            continue
                        v = analyze(Sequence("s", (f, g)))
                        if v.proper_exact and not v.exact:
                            return Counterexample(
                                "proper-exact-not-exact", (f, g),
                                "image equals kernel but the right map is not k-uniform",
                                True), count
    return None, count


def _replay_proper_exact_not_exact(witnesses):
    from .exactness import Sequence, analyze

    f, g = witnesses
    v = analyze(Sequence("s", (f, g)))
    return v.proper_exact and not v.exact


def _search_semi_exact_not_proper(spec):
    from .core import subtractive_closure_set
    from .morphisms import image_set, kernel_set

    mods = enumerate_semimodules(spec).modules
    count = 0
    for M in mods:
        for N in mods:
            for g in enumerate_hom(M, N):
                ker = kernel_set(g)
                for L in mods:
                    for f in enumerate_hom(L, M):
                        count += 1
                        img = image_set(f)
                        if img != ker and subtractive_closure_set(M, img) == ker:
                            return Counterexample(
                                "semi-exact-not-proper-exact", (f, g),
                                "closure of the image is the kernel but the image is not",
                                True), count
    return None, count


def _replay_semi_exact_not_proper(witnesses):
    from .core import subtractive_closure_set
    from .morphisms import image_set, kernel_set

    f, g = witnesses
    img = image_set(f)
    ker = kernel_set(g)
    return img != ker and subtractive_closure_set(f.codomain, img) == ker


def _search_short_five_needs_i_uniform(spec):
    """Rows short exact, middles cancellative, outer verticals isos, middle
    vertical not i-uniform and not iso. Expected to exhaust: finite
    cancellative modules are groups, where every morphism is i-uniform."""
    from .harness import vertical_triples
    from .morphisms import classify, is_isomorphism

    count = 0
    for row1, row2, verts in vertical_triples(spec, require_cancellative_mid=True):
        count += 1
        a1, a2, a3 = verts
        if is_isomorphism(a1) and is_isomorphism(a3):
            c2 = classify(a2)
            if not c2.i_uniform and not is_isomorphism(a2):
                return Counterexample(
                    "short-five-needs-i-uniform", (row1, row2, a1, a2, a3),
                    "outer isomorphisms with a non-i-uniform, non-iso middle", True), count
    return None, count


def _replay_short_five_needs_i_uniform(witnesses):
    from .core import is_cancellative_module
    from .exactness import is_short_exact, short_sequence
    from .morphisms import classify, compose, is_isomorphism

    (f1, g1), (f2, g2), a1, a2, a3 = witnesses
    return (is_short_exact(short_sequence(f1, g1)).ok
            and is_short_exact(short_sequence(f2, g2)).ok
            and is_cancellative_module(f1.codomain) and is_cancellative_module(f2.codomain)
            and compose(f2, a1).map == compose(a2, f1).map
            and compose(a3, g1).map == compose(g2, a2).map
            and is_isomorphism(a1) and is_isomorphism(a3)
            and not classify(a2).i_uniform and not is_isomorphism(a2))


PROPERTIES = {
    "non-subtractive-subsemimodule": (
        "a subsemimodule strictly below its subtractive closure",
        _search_non_subtractive, _replay_non_subtractive),
    "semi-mono-not-mono": (
        "zero kernel without injectivity",
        _search_semi_mono_not_mono, _replay_semi_mono_not_mono),
    "mono-not-injective": (
        "bounded-universe monomorphism that is not injective (expected absent)",
        _search_mono_not_injective, _replay_mono_not_injective),
    "cancellative-epi-not-surjective": (
        "non-surjective epimorphism of cancellative modules (expected absent)",
        _search_cancellative_epi_not_surjective, _replay_cancellative_epi_not_surjective),
    "non-i-uniform-bimorphism-cs": (
        "cancellative bimorphism that is not i-uniform (expected absent)",
        _search_non_i_uniform_bimorphism_cs, _replay_non_i_uniform_bimorphism_cs),
    "bimorphism-not-iso": (
        "bimorphism over the bounded universe that is not an isomorphism",
        _search_bimorphism_not_iso, _replay_bimorphism_not_iso),
    "proper-exact-not-exact": (
        "image equals kernel without k-uniformity",
        _search_proper_exact_not_exact, _replay_proper_exact_not_exact),
    "semi-exact-not-proper-exact": (
        "closure of image equals kernel while the image does not",
        _search_semi_exact_not_proper, _replay_semi_exact_not_proper),
    "short-five-needs-i-uniform": (
        "short-five middle hypothesis dropped (expected absent at desk scale)",
        _search_short_five_needs_i_uniform, _replay_short_five_needs_i_uniform),
}


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
    """Re-run the property on stored witnesses; True iff the failure reproduces."""
    if cx.property_id not in PROPERTIES:
        raise ParameterError(f"unknown property id {cx.property_id!r}")
    return PROPERTIES[cx.property_id][2](cx.witnesses)
