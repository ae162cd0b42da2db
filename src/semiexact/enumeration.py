"""Exhaustive generation of small semimodules, independent oracles and the
counterexample catalog.

Enumeration is complete up to isomorphism for the requested bound: a
module is kept when its (add, action) tables, flattened row by row, are the
lexicographically smallest among all carrier relabellings fixing zero.
That key compares the add table before the action, so a kept module's add
table is its own canonical form: the action search runs only on those
tables, one per commutative monoid up to isomorphism (1, 2, 5, 19, 78 for
orders 1-5), found once per carrier size and shared by every semiring. A
table is dropped from that filter as soon as some relabelling's first
differing row is smaller. A canonical add table is strictly smaller than
its image under every relabelling that is not one of its automorphisms, so
(add, action) is canonical exactly when no automorphism of add turns the
action into a smaller one: each action is compared only against the
automorphisms of its add table, computed once per table. Every
relabelling loop (this filter, the automorphisms, canonical_form and the
isomorphism oracle) reads the one table of relabellings per carrier size,
_relabellings. canonical_form, the full minimum, remains the key of
enumerate_semimodules_naive, the unpruned recount oracle.

The monoid tables and the action tables are completed by the search engine
of core (_completions), each with its own laws: associativity, and the
module laws, the sum and product laws only at generators of S
(core.generators), which imply the rest (see the core docstring). So a
grid that completes is a module, and validate_semimodule confirms it, once
per table in the verdict cache the hom search reads too (core._validates).
The tests hold both searches to unpruned sweeps. Everything here is
deterministic; the seed in a UniverseSpec only matters to downstream
samplers.

The counterexample catalog is one table, _CATALOG: each Property has its
description, its candidate stream over a universe, one predicate
holds(spec, witnesses) that runs its cheap, selective tests first, and the
text of a found counterexample. A search returns the first candidate that
holds, counting every candidate inspected; a replay is the same predicate
on the stored spec and witnesses, so it re-checks the whole property over
the universe the counterexample was found in. PROPERTIES is its public view.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Callable, NamedTuple

from .core import (Semimodule, Semiring, Value, _completions, _validates, all_subsemimodules,
                   generators, is_cancellative_module, is_subtractive, self_module,
                   subtractive_closure_set)
from .errors import LemmaRefuted, ParameterError, PreconditionError
from .morphisms import (Morphism, classify, compose, enumerate_hom, image_set, is_injective,
                        is_isomorphism, is_k_uniform, is_surjective, kernel_set)


class UniverseSpec(Value):
    semiring: Semiring
    max_module_size: int
    max_modules: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.max_module_size < 1:
            raise ParameterError("UniverseSpec: max_module_size must be >= 1")


class Universe(NamedTuple):
    spec: UniverseSpec
    modules: tuple
    truncated: bool


@lru_cache(maxsize=None)
def _relabellings(n):
    """Every relabelling of 0..n-1 that fixes 0, as (perm, inv) with
    perm[old] = new and inv its inverse: the identity first, then in the
    order of itertools.permutations. Built once per carrier size."""
    out = []
    for tail in permutations(range(1, n)):
        perm = (0,) + tail
        inv = [0] * n
        for old, new in enumerate(perm):
            inv[new] = old
        out.append((perm, tuple(inv)))
    return tuple(out)


def _rows(table, perm, inv, by_column):
    """The rows of table relabelled by perm (inv its inverse), lazily: row i
    is old row inv[i] mapped through perm, its columns also taken through inv
    when by_column (an add table), kept as they are otherwise (an action)."""
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


def canonical_form(add, action):
    """Lexicographically minimal (add, action) flattening over permutations fixing 0."""
    tables = ((add, True), (action, False)) if action else ((add, True),)
    return min(tuple(x for table, by_column in tables
                     for row in _rows(table, perm, inv, by_column) for x in row)
               for perm, inv in _relabellings(len(add)))


def _commutative_monoid_tables(n):
    """All commutative monoid tables on 0..n-1 with 0 neutral (not up to iso),
    in lexicographic order of the upper triangle read row by row.

    Row and column 0 are fixed and the upper triangle is branched on. The
    laws of a cell copy it to its mirror, so the table is symmetric whenever
    they read it, and check the triples of associativity with a lookup of the
    cell whose lookups are all known. The triple (a, b, c) makes the same
    four lookups as (c, b, a) in a symmetric table, so it is enough to check
    those that read the cell as the lookup a+b or as the lookup (a+b)+c: the
    mirror's laws check the other orientation.
    """
    rest = range(1, n)

    def laws(t, k, put):
        x, y = divmod(k, n)
        xy, row_x, row_y = t[k], x * n, y * n
        if t[row_y + x] is None:
            put(row_y + x, xy)
        for u in rest:
            yu = t[row_y + u]  # (x+y)+u = x+(y+u)
            if yu is not None:
                left, right = t[xy * n + u], t[row_x + yu]
                if left is not None and right is not None and left != right:
                    return False
            row_u = u * n
            for w in rest:
                if t[row_u + w] == x:  # (u+w)+y = u+(w+y), with u+w = x
                    wy = t[w * n + y]
                    if wy is not None:
                        right = t[row_u + wy]
                        if right is not None and right != xy:
                            return False
        return True

    table = [max(i, j) if 0 in (i, j) else None for i in range(n) for j in range(n)]
    order = [i * n + j for i in rest for j in range(i, n)]
    for t in _completions(table, order, range(n), laws, ()):
        yield tuple(t[i:i + n] for i in range(0, n * n, n))


@lru_cache(maxsize=None)
def _operand_laws(s: Semiring):
    """The action laws over s by the column of an operand cell, less those
    that hold by the fixed row 0 and columns 0_S and 1_S, and those that
    the rest imply (core.generators): a sum law keeps an operand in A, a
    product law its right factor in G. For a cell (m, x):
    sum_by[x] lists (b, c), c = x+b or b+x, for m.c = m.x + m.b;
    prod_by[x] lists (b, xb) for m.(xb) = (m.x).b; and second_by[x] lists
    (a, ax) for r.(ax) = (r.a).x in every row r with r.a = m."""
    unit = (s.zero, s.one)
    adds, gens = generators(s) or (range(s.size), range(s.size))
    sum_by = [set() for _ in range(s.size)]
    prod_by = [[] for _ in range(s.size)]
    second_by = [[] for _ in range(s.size)]
    for a in range(s.size):
        for b in range(s.size):
            if s.zero not in (a, b) and (a in adds or b in adds):
                sum_by[a].add((b, s.add[a][b]))
                sum_by[b].add((a, s.add[a][b]))
            if a not in unit and b not in unit and b in gens:
                prod_by[a].append((b, s.mul[a][b]))
                second_by[b].append((a, s.mul[a][b]))
    return [sorted(p) for p in sum_by], prod_by, second_by


def _actions_for_monoid(semiring, add):
    """All valid action tables for one monoid, in lexicographic order.

    Row 0, column 0_S and column 1_S are fixed. Each remaining module law
    ties a result cell to two operand cells: m(a+b) = ma + mb,
    m(ab) = (ma)b and (p+q)x = px + qx. The laws of a cell are those it is an
    operand of: with the other operand known, an unknown result is filled
    and a known one must agree. A table that completes satisfies every law
    that _operand_laws keeps, and by core's reduction every law.
    """
    n, cols = len(add), semiring.size
    sum_by, prod_by, second_by = _operand_laws(semiring)
    bases = range(cols, n * cols, cols)  # the first cells of the rows after row 0
    # for row m, the first cells of rows q and m+q, for each q after 0
    madd_by = [[(q * cols, add[m][q] * cols) for q in range(1, n)] for m in range(n)]

    def laws(t, k, put):
        m, x = divmod(k, cols)
        v, base = t[k], k - x
        add_v = add[v]
        for b, c in sum_by[x]:  # m.c = m.x + m.b
            mb = t[base + b]
            if mb is not None:
                c, f = base + c, add_v[mb]
                if t[c] is None:
                    put(c, f)
                elif t[c] != f:
                    return False
        for b, c in prod_by[x]:  # m.(xb) = (m.x).b
            f = t[v * cols + b]
            if f is not None:
                c += base
                if t[c] is None:
                    put(c, f)
                elif t[c] != f:
                    return False
        for a, c in second_by[x]:  # r.(ax) = (r.a).x wherever r.a = m
            for r in bases:
                if t[r + a] == m:
                    if t[r + c] is None:
                        put(r + c, v)
                    elif t[r + c] != v:
                        return False
        for q, p in madd_by[m]:  # (m+q).x = m.x + q.x
            qx = t[q + x]
            if qx is not None:
                c, f = p + x, add_v[qx]
                if t[c] is None:
                    put(c, f)
                elif t[c] != f:
                    return False
        return True

    zero, one = semiring.zero, semiring.one
    table = [0 if m == 0 or x == zero else m if x == one else None
             for m in range(n) for x in range(cols)]
    out = []
    for t in _completions(table, range(n * cols), range(n), laws,
                          [m * cols + one for m in range(1, n)]):
        action = tuple(t[i:i + cols] for i in range(0, n * cols, cols))
        if _validates(Semimodule._trusted("", semiring, n, add, action)):
            out.append(action)
    return out


@lru_cache(maxsize=None)
def _canonical_monoid_tables(n):
    """The monoid tables of order n that are their own canonical form: one
    per commutative monoid up to isomorphism, shared by every semiring. A
    table is dropped at the first relabelling that makes it smaller."""
    others = _relabellings(n)[1:]
    return tuple(add for add in _commutative_monoid_tables(n)
                 if all(_sign(_rows(add, perm, inv, True), add) >= 0 for perm, inv in others))


@lru_cache(maxsize=None)
def _automorphisms(add):
    """The relabellings (perm, inv) that fix the add table, identity first."""
    return tuple((perm, inv) for perm, inv in _relabellings(len(add))
                 if _sign(_rows(add, perm, inv, True), add) == 0)


@lru_cache(maxsize=None)
def _enumerated(semiring: Semiring, max_size: int):
    found = []
    for n in range(1, max_size + 1):
        for add in _canonical_monoid_tables(n):
            others = _automorphisms(add)[1:]
            for action in _actions_for_monoid(semiring, add):
                if all(_sign(_rows(action, perm, inv, False), action) >= 0
                       for perm, inv in others):
                    found.append((n, add, action))
    found.sort()
    return tuple(
        Semimodule._trusted(f"U{semiring.name}.{i}", semiring, n, add, action)
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
    for perm, inv in _relabellings(M.size):
        if (_sign(_rows(M.add, perm, inv, True), N.add) == 0
                and _sign(_rows(M.action, perm, inv, False), N.action) == 0):
            return Morphism(f"iso[{M.name}->{N.name}]", M, N, perm)
    return None


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
    if neg is None:
        raise PreconditionError("abelian oracle needs additive inverses")
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
            if coset_id[y] is not None:
                raise LemmaRefuted(f"oracle: cosets of {L2.name} overlap at {y}")
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
        if len(classes) != 1:
            raise LemmaRefuted(f"oracle: ambiguous connecting value at {k3}")
        out.append(classes.pop())
    return tuple(tuple(c) for c in cosets), tuple(out), tuple(ker_a3)


# --------------------------------------------------- counterexample catalog

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


def _maps_among(mods):
    for M in mods:
        for N in mods:
            for f in enumerate_hom(M, N):
                yield (f,)


def _maps(spec):
    return _maps_among(enumerate_semimodules(spec).modules)


def _cancellative_maps(spec):
    return _maps_among([M for M in enumerate_semimodules(spec).modules
                        if is_cancellative_module(M)])


def _composable_pairs(spec):
    """(f, g) for L -f-> M -g-> N, by g first, then by f."""
    mods = enumerate_semimodules(spec).modules
    for M in mods:
        for N in mods:
            for g in enumerate_hom(M, N):
                for L in mods:
                    for f in enumerate_hom(L, M):
                        yield f, g


def _short_five_tuples(spec):
    """(row1, row2, a1, a2, a3): short-exact rows with cancellative middles
    and commuting verticals."""
    from .harness import vertical_triples  # harness imports this module

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
