"""Deterministic generation of hypothesis-satisfying diagram corpora.

Rows are built constructively (surjections onto kernel submodules give
exact stretches by construction), verticals are drawn from hom-sets, which
morphisms caches by tables, as it does classifications. The row pools walk
the pool's hom-sets by enumeration.maps_among, as the catalog does. Each
capped pool is a cached view of an uncapped ordered stream, named with
"_stream" added: _any_rows, _exact_5rows and _snake_left_rows keep its
first 400, 600 and 200 rows. Rows are built from hom tables once per
kernel structure, not once per map (_onto, _isos_and_automorphisms), and
only the maps of their rows are named, by Morphism._trusted, under the
names kernel_module and compose give them. The exact-row pools (right
exact, left exact, short exact, each optionally with cancellative middles)
are filtered once per (semiring, bound).
Each generator draws for one entry of diagrams.CLAUSES and keeps the
candidates that pass the clause's hypotheses, minus those its construction
guarantees, which each generator lists by id (row exactness from the
exact-row pools, cancellative middles from the filtered pools, column
exactness from the quotient row). The hypotheses run on the raw arrows,
before a Diagram is built, split by Clause.split: one that reads a single
part (`alpha1 surjective`, `g1 surjective`, `M1 cancellative`) runs as soon
as that part is drawn, on a row pair once it is drawn, on a2 once it comes
out of its shuffle, and on the members of a hom-set as _index groups them;
the rest run on the whole tuple. Only drawn parts and unshuffled hom-set
groups are tested early, never a pool before its shuffle, so the accepted
candidates are the same, in the same order, as with every test on the
whole tuple. The 3x3 stream tests its whole tuples, which are cheap.

Squares are filled by a hash join on composite tables: for a fixed arrow
such as f2, the hom-set of candidate a1 is indexed once by the table of
f2∘a1 (morphisms._table), and the other side of the square, a2∘f1, is
looked up as a plain tuple. No Morphism is built to test a square;
Diagram.from_arrows still checks every square of every diagram it is handed.
Maps forced by a square (the 3x3 quotient row, snake's outer verticals) are
factored through the square's injection or surjection by
morphisms.factor_through_injection and factor_through_surjection.

Given the same spec (semiring, bound, seed) the generated corpus is
identical run to run; the seed only shuffles the candidate order so corpora
are not dominated by zero maps. Every shuffle is one lazy seeded
permutation (_permutation): a front-to-back Fisher-Yates shuffle that makes
one draw per index it yields, so a generator that stops after k candidates
pays for k, not for the whole pool. Row pairs are drawn as indices into the
product, which is never materialised.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from itertools import islice

from .core import Semiring, Subsemimodule, Value, is_cancellative_module
from .diagrams import Diagram, clause_key, lookup
from .enumeration import UniverseSpec, enumerate_semimodules, maps_among, oracle_iso_exists
from .errors import ParameterError
from .morphisms import (Morphism, _hom_tables, _k_uniform_witness, _table, classify,
                        enumerate_hom, factor_through_injection, factor_through_surjection,
                        image_set, is_injective, is_k_uniform, is_surjective, kernel_set,
                        submodule_as_module)
from .quotients import bourne_congruence, quotient


class HarnessSpec(Value):
    semiring: Semiring
    max_size: int = 4
    seed: int = 0
    quota: int = 120

    def __post_init__(self):
        for name in ("max_size", "quota"):
            if getattr(self, name) < 1:
                raise ParameterError(f"HarnessSpec: {name} must be >= 1")


@lru_cache(maxsize=None)
def _pool(semiring, max_size):
    return enumerate_semimodules(UniverseSpec(semiring, max_size)).modules


def _permutation(n, seed, tag):
    """0..n-1 in a seeded random order, drawn lazily: a front-to-back
    Fisher-Yates shuffle (Durstenfeld) that keeps only the displaced indices,
    in a dict, so a caller that stops after k indices has made k draws."""
    # str seeding is sha512-based, stable across processes (unlike hash())
    rng = random.Random(f"{seed}:{tag}")
    moved = {}
    for i in range(n):
        j = rng.randrange(i, n)
        k = moved.get(j, j)
        moved[j] = moved.pop(i, i)
        yield k


def _shuffled(items, seed, tag):
    return (items[k] for k in _permutation(len(items), seed, tag))


def _shuffled_pairs(left, right, seed, tag):
    """The pairs of _shuffled([(l, r) for l in left for r in right], seed, tag),
    decoded from indices into the product, which is never materialised."""
    m = len(right)
    return ((left[k // m], right[k % m]) for k in _permutation(len(left) * m, seed, tag))


def _index(homs, key, test=None):
    """Members of a hom-set that pass test (all of them when it is None),
    grouped by key(h), each group in hom-set order."""
    out = {}
    for h in homs:
        if test is None or test(h):
            out.setdefault(key(h), []).append(h)
    return out


def _joint(tests):
    """parts -> bool: tests[i] passes on parts[i] wherever it is not None."""
    tested = [(i, t) for i, t in enumerate(tests) if t is not None]
    return lambda parts: all(t(parts[i]) for i, t in tested)


@lru_cache(maxsize=None)
def _exact_pairs(semiring, max_size):
    """(f, g) with image(f) = Ker(g) and g k-uniform, over the module pool,
    by g, then f, in maps_among order: the maps into each module are indexed
    by image once, and each g looks up its kernel."""
    mods = _pool(semiring, max_size)
    by_image = {M: _index(maps_among(mods, (M,)), image_set) for M in mods}
    return tuple((f, g) for g in maps_among(mods) if is_k_uniform(g)
                 for f in by_image[g.domain].get(kernel_set(g), ()))


@lru_cache(maxsize=None)
def _exact_rows(semiring, max_size, cancellative=False, injective=False, surjective=False):
    """The pairs of _exact_pairs, in order, with f injective, g surjective
    and a cancellative middle module where those are asked for."""
    return tuple((f, g) for f, g in _exact_pairs(semiring, max_size)
                 if (not injective or is_injective(f)) and (not surjective or is_surjective(g))
                 and (not cancellative or is_cancellative_module(f.codomain)))


# Rows L -f-> M -g-> N -> 0, 0 -> L -f-> M -g-> N and 0 -> L -f-> M -g-> N -> 0.
_right_exact_rows = partial(_exact_rows, surjective=True)
_left_exact_rows = partial(_exact_rows, injective=True)
_short_exact_rows = partial(_exact_rows, injective=True, surjective=True)


def _verticals(seed, tag, f1, g1, f2, g2, tests):
    """Yield (a1, a2, a3) with a2 in a seeded order and both squares of the
    row pair (f1, g1), (f2, g2) commuting, the tests (for a1, a2, a3, each
    skipped where it is None) passing on each part: a1 and a3 are looked up
    by composite table."""
    a1_test, a2_test, a3_test = tests
    a1_by = _index(enumerate_hom(f1.domain, f2.domain), lambda h: _table(f2, h), a1_test)
    a3_by = _index(enumerate_hom(g1.codomain, g2.codomain), lambda h: _table(h, g1), a3_test)
    if not (a1_by and a3_by):
        return
    for a2 in _shuffled(enumerate_hom(f1.codomain, f2.codomain), seed, tag + "a2"):
        if a2_test is not None and not a2_test(a2):
            continue
        for a1 in a1_by.get(_table(a2, f1), ()):
            for a3 in a3_by.get(_table(g2, a2), ()):
                yield a1, a2, a3


def _row_pairs_with_verticals(spec, rows_top, rows_bottom, tag, tests=(None,) * 7):
    """Yield (f1, g1, f2, g2, a1, a2, a3) with both squares commuting and
    tests[i], where it is not None, passing on the i-th part."""
    rows_ok = _joint(tests[:4])
    for top, bottom in _shuffled_pairs(rows_top, rows_bottom, spec.seed, tag):
        if rows_ok(top + bottom):
            for verts in _verticals(spec.seed, tag, *top, *bottom, tests[4:7]):
                yield top + bottom + verts


def _build(name, shape, parts):
    """The full grid of this shape with these parts, in Diagram.parts() order."""
    rows, cols = shape
    k, h = cols - 1, rows * (cols - 1)
    return Diagram.from_arrows(name, [parts[r * k:r * k + k] for r in range(rows)],
                               [parts[h + r * cols:h + r * cols + cols]
                                for r in range(rows - 1)])


def _collect(spec, clause, stream, guaranteed):
    """The first spec.quota candidate parts that pass the clause's
    hypotheses, less those in `guaranteed`, as diagrams named by its tag.
    stream(tests) yields the candidates that pass the single-part tests of
    Clause.split; the other hypotheses are tested here."""
    tests, keep = clause.split(guaranteed)
    out = []
    for parts in stream(tests):
        if keep(parts):
            out.append(_build(f"{clause.tag}.{len(out)}", clause.shape, parts))
            if len(out) >= spec.quota:
                break
    return out


def vertical_triples(spec: UniverseSpec, require_cancellative_mid=False):
    """Short-exact row pairs with commuting verticals over the universe's
    modules; used by the dropped-hypothesis searches."""
    rows = _short_exact_rows(spec.semiring, spec.max_module_size)
    hspec = HarnessSpec(spec.semiring, spec.max_module_size, spec.seed)
    mid = (lambda f: is_cancellative_module(f.codomain)) if require_cancellative_mid else None
    tests = (mid, None, mid, None, None, None, None)
    for f1, g1, f2, g2, a1, a2, a3 in _row_pairs_with_verticals(hspec, rows, rows, "vt",
                                                                tests):
        yield (f1, g1), (f2, g2), (a1, a2, a3)


# ----------------------------------------------------------- 2x3 generators

_EXACT_ROWS = ("first row exact", "second row exact")


def _any_rows_stream(semiring, max_size):
    """Every composable (f, g) over the pool with g∘f = 0, by g, then f, in
    maps_among order; Ker(g) is found once per g."""
    mods = _pool(semiring, max_size)
    for g in maps_among(mods):
        ker = kernel_set(g)
        yield from ((f, g) for f in maps_among(mods, (g.domain,)) if image_set(f) <= ker)


@lru_cache(maxsize=None)
def _any_rows(semiring, max_size):
    """The first 400 rows of _any_rows_stream, for non-exact rows."""
    return tuple(islice(_any_rows_stream(semiring, max_size), 400))


def _gen_rows(spec: HarnessSpec, clause):
    """Short and diagram clauses: a row the clause assumes exact is drawn
    from the exact rows, any other from all rows with g∘f = 0."""
    s, n = spec.semiring, spec.max_size
    exact = _exact_pairs(s, n)
    top, bottom = (exact if row in clause.ids else tuple(dict.fromkeys(exact + _any_rows(s, n)))
                   for row in _EXACT_ROWS)
    return _collect(spec, clause, partial(_row_pairs_with_verticals, spec, top, bottom,
                                          clause.tag), _EXACT_ROWS)


# What the short-five row pools guarantee: cancellative middles, a right
# exact top row and a left exact bottom row, or two short exact rows.
_HALF_ROWS = ("M1 cancellative", "M2 cancellative", "first row exact at middle",
              "first row: g surjective", "second row: f injective",
              "second row exact at middle")
_SHORT_FIVE_ROWS = _HALF_ROWS + ("first row: f injective", "second row: g surjective")


def _gen_half(spec: HarnessSpec, clause):
    s, n = spec.semiring, spec.max_size
    right = _right_exact_rows(s, n, cancellative=True)
    left = _left_exact_rows(s, n, cancellative=True)
    return _collect(spec, clause, partial(_row_pairs_with_verticals, spec, right, left,
                                          clause.tag), _HALF_ROWS)


def _gen_short_five(spec: HarnessSpec, clause):
    rows = _short_exact_rows(spec.semiring, spec.max_size, cancellative=True)
    return _collect(spec, clause, partial(_row_pairs_with_verticals, spec, rows, rows,
                                          clause.tag), _SHORT_FIVE_ROWS)


# ----------------------------------------------------------- 2x5 generators

@lru_cache(maxsize=None)
def _kernel_structure(P, members):
    """P's subsemimodule `members` as a module named "" (Semimodule.unnamed):
    built, and its closure checked, once however many maps have it as
    kernel; equal tables give equal structures, whatever P is."""
    return submodule_as_module(Subsemimodule(P, members))[0].unnamed


def _kernel(c):
    """The members of Ker(c), sorted, and its kernel structure."""
    members = tuple(sorted(kernel_set(c)))
    return members, _kernel_structure(c.domain, members)


@lru_cache(maxsize=None)
def _onto(X, K, k_uniform):
    """(i, table) of the maps h<i> from X onto the kernel structure K,
    k-uniform too where k_uniform is set; i is the position in the
    hom-set, as enumerate_hom names it."""
    return tuple((i, t) for i, t in enumerate(_hom_tables(X.unnamed, K))
                 if len(set(t)) == K.size
                 and (not k_uniform or _k_uniform_witness(X, K.zero, t) is None))


def _onto_kernel(mods, c, k_uniform):
    """incl∘q for each map q from a pool module onto Ker(c), k-uniform too
    where k_uniform is set: the maps whose image is Ker(c), by domain and
    then hom-set position, each named as compose(incl, q) names it, with
    incl and q from kernel_module(c) and enumerate_hom."""
    (members, K), ker = _kernel(c), f"Ker({c.name})"
    for X in mods:
        for i, t in _onto(X, K, k_uniform):
            yield Morphism._trusted(f"incl[{ker}]*h{i}[{X.name}->{ker}]", X, c.domain,
                                    tuple(map(members.__getitem__, t)))


def _exact_5rows_stream(semiring, max_size):
    """Every row U -d-> L -f-> M -g-> N -h-> V exact at L, M, N, by h in
    maps_among order, built right to left: g, f and d map onto the kernels
    of h, g and f."""
    mods = _pool(semiring, max_size)
    for h in maps_among(mods):
        if is_k_uniform(h):
            for g in _onto_kernel(mods, h, True):
                for f in _onto_kernel(mods, g, True):
                    yield from ((d, f, g, h) for d in _onto_kernel(mods, f, False))


@lru_cache(maxsize=None)
def _exact_5rows(semiring, max_size):
    """The first 600 rows of _exact_5rows_stream."""
    return tuple(islice(_exact_5rows_stream(semiring, max_size), 600))


def _squares_2x5(spec: HarnessSpec, tag, tests):
    """Yield the parts of 2x5 grids of exact rows with every square commuting
    and tests[i], where it is not None, passing on the i-th part."""
    rows = _exact_5rows(spec.semiring, spec.max_size)
    rows_ok = _joint(tests[:8])
    for row1, row2 in _shuffled_pairs(rows, rows, spec.seed, tag):
        both = row1 + row2
        if not rows_ok(both):
            continue
        (d1, f1, g1, h1), (d2, f2, g2, h2) = row1, row2
        gamma_by = delta_by = None
        for a1, a2, a3 in _verticals(spec.seed, tag, f1, g1, f2, g2, tests[9:12]):
            if gamma_by is None:
                gamma_by = _index(enumerate_hom(d1.domain, d2.domain), lambda g: _table(d2, g),
                                  tests[8])
                delta_by = _index(enumerate_hom(h1.codomain, h2.codomain),
                                  lambda dd: _table(dd, h1), tests[12])
            for gamma in gamma_by.get(_table(a1, d1), ()):
                for delta in delta_by.get(_table(h2, a3), ()):
                    yield both + (gamma, a1, a2, a3, delta)


def _gen_2x5(spec: HarnessSpec, clause):
    return _collect(spec, clause, partial(_squares_2x5, spec, clause.tag), _EXACT_ROWS)


# ----------------------------------------------------------- 3x3 generators

@lru_cache(maxsize=None)
def _bourne_quotient(M, members):
    """M modulo the Bourne congruence of the image `members` of a map into M,
    sorted: a subsemimodule by linearity (morphisms.image)."""
    return quotient(M, bourne_congruence(Subsemimodule._trusted(M, members)))


def _derive_quotient_row(f2, g2, a1, a2, a3):
    """Bottom row of a 3x3: quotients by the vertical images with the induced
    maps; None when an induced map is not well-defined."""
    q1, q2, q3 = (_bourne_quotient(a.codomain, tuple(sorted(image_set(a)))) for a in (a1, a2, a3))

    def induced(q_src, q_dst, f):
        return factor_through_surjection(q_src.projection, _table(q_dst.projection, f),
                                         q_dst.quotient, f"[{f.name}]")

    f3 = induced(q1, q2, f2)
    g3 = induced(q2, q3, g2)
    if f3 is None or g3 is None:
        return None
    return (q1, q2, q3), (f3, g3)


# What the 3x3 construction guarantees: a short exact middle row, and under
# it the quotient row, whose projections are surjective and make each column
# exact at its middle (the tops are i-uniform) and short exact where the top
# is injective; a top is drawn injective where the clause assumes it or a
# short exact column.
_QUOTIENT_ROW = (
    "second row exact", "second row short exact", "f2 injective", "g2 surjective",
    "left column exact at middle", "middle column exact at middle",
    "right column exact at middle", "beta1 surjective", "beta2 surjective",
    "alpha1 injective", "alpha2 injective", "alpha3 injective",
    "column 0 short exact", "column 1 short exact", "column 2 short exact")


def _squares_3x3(spec: HarnessSpec, clause, tests):
    """Yield 3x3 parts: middle row short exact; tops i-uniform, and injective
    where the clause needs it; top row enumerated against the squares; bottom
    row is the quotient row. tests[i], where it is not None, must pass on
    the i-th part; they run on the whole tuple."""
    parts_ok = _joint(tests)
    s, n = spec.semiring, spec.max_size
    mods = _pool(s, n)
    mid_rows = _short_exact_rows(s, n)
    injective = [f"alpha{c + 1} injective" in clause.ids
                 or f"column {c} short exact" in clause.ids for c in range(3)]

    tops_by = {}  # (target, injective) -> the candidate tops, found once

    def tops(c, target):
        inj = injective[c]
        if (target, inj) not in tops_by:
            tops_by[target, inj] = [a for a in maps_among(mods, (target,))
                                    if classify(a).i_uniform
                                    and (not inj or classify(a).injective)]
        return tops_by[target, inj]
    seed, tag = spec.seed, clause.tag
    for f2, g2 in _shuffled(mid_rows, seed, tag):
        a1s, a2s, a3s = (tops(c, X) for c, X in
                         enumerate((f2.domain, f2.codomain, g2.codomain)))
        g1_by = {}  # (M1, position of a3) -> index of Hom(M1, N1) by a3∘g1
        for a2 in _shuffled(a2s, seed, tag + "a2"):
            M1 = a2.domain
            f1_by = {}  # L1 -> index of Hom(L1, M1) by a2∘f1
            for a1 in a1s:
                L1 = a1.domain
                if L1 not in f1_by:
                    f1_by[L1] = _index(enumerate_hom(L1, M1), lambda f1: _table(a2, f1))
                f1s = f1_by[L1].get(_table(f2, a1))
                if not f1s:
                    continue
                for j, a3 in enumerate(a3s):
                    if (M1, j) not in g1_by:
                        g1_by[M1, j] = _index(enumerate_hom(M1, a3.domain),
                                              lambda g1: _table(a3, g1))
                    g1s = g1_by[M1, j].get(_table(g2, a2))
                    if not g1s:
                        continue
                    derived = _derive_quotient_row(f2, g2, a1, a2, a3)
                    if derived is None:
                        continue
                    (q1, q2, q3), (f3, g3) = derived
                    betas = (q1.projection, q2.projection, q3.projection)
                    for f1 in f1s:
                        for g1 in g1s:
                            parts = (f1, g1, f2, g2, f3, g3, a1, a2, a3) + betas
                            if parts_ok(parts):
                                yield parts


def _gen_3x3(spec: HarnessSpec, clause):
    return _collect(spec, clause, partial(_squares_3x3, spec, clause), _QUOTIENT_ROW)


def _generator(family, gen):
    """gen_*: the corpus of the table entry `diagrams.clause_key(family,
    clause)`, the clause the family's verify_* reads; ParameterError for an
    unknown clause."""
    def generate(spec: HarnessSpec, clause=None):
        return gen(spec, lookup(clause_key(family, clause), ParameterError))
    return generate


gen_lemma_short = _generator("short", _gen_rows)
gen_lemma_diagram = _generator("diagram", _gen_rows)
gen_short_five_half = _generator("short-five-half", _gen_half)
gen_short_five = _generator("short-five", _gen_short_five)
gen_five_parts = _generator("five-parts", _gen_2x5)
gen_five = _generator("five", _gen_2x5)
gen_nine_first = _generator("nine-first", _gen_3x3)
gen_nine_third = _generator("nine-third", _gen_3x3)
gen_nine = _generator("nine", _gen_3x3)


# --------------------------------------------------------- snake generation

@lru_cache(maxsize=None)
def _isos_and_automorphisms(semiring, max_size, K):
    """(L, table) of the isomorphism oracle_iso_exists finds from each pool
    module L onto the kernel structure K that has one, and (i, table) of
    each automorphism h<i> of K."""
    isos = ((L, oracle_iso_exists(L, K)) for L in _pool(semiring, max_size)
            if L.size == K.size)
    return ([(L, iso.map) for L, iso in isos if iso is not None],
            [(i, t) for i, t in enumerate(_hom_tables(K, K)) if len(set(t)) == K.size])


def _snake_left_rows_stream(semiring, max_size):
    """Every row 0 -> L2 -f2-> M2 -g2-> N2 with f2 injective onto Ker(g2), by
    g2 in maps_among order: f2 is incl∘aut∘iso for each pool module L with
    an isomorphism iso onto the kernel structure and each automorphism aut
    of it, both found once per structure, and named as
    compose(incl, compose(aut, iso)) names it."""
    for g in maps_among(_pool(semiring, max_size)):
        if not is_k_uniform(g):
            continue
        members, K = _kernel(g)
        isos, auts = _isos_and_automorphisms(semiring, max_size, K)
        ker = f"Ker({g.name})"
        for L, iso in isos:
            for i, aut in auts:
                yield Morphism._trusted(
                    f"incl[{ker}]*h{i}[{ker}->{ker}]*iso[{L.name}->{ker}]", L, g.domain,
                    tuple(members[aut[x]] for x in iso)), g


@lru_cache(maxsize=None)
def _snake_left_rows(semiring, max_size):
    """The first 200 rows of _snake_left_rows_stream."""
    return tuple(islice(_snake_left_rows_stream(semiring, max_size), 200))


def gen_snake(spec: HarnessSpec):
    """Snake inputs: top row right-exact, bottom row left-exact, verticals
    with alpha1/alpha3 k-uniform and alpha2 uniform; alpha1 and alpha3 are
    derived from alpha2 through the squares, factored through the injective
    f2 and the surjective g1, so only alpha2 is enumerated."""
    s, n = spec.semiring, spec.max_size
    top_rows = _right_exact_rows(s, n)
    bottom_rows = _snake_left_rows(s, n)
    seed = spec.seed
    out = []
    for (f1, g1), (f2, g2) in _shuffled_pairs(top_rows, bottom_rows, seed, "snake"):
        for a2 in _shuffled(enumerate_hom(f1.codomain, f2.codomain), seed, "snake.a2"):
            if not classify(a2).uniform:
                continue
            a1 = factor_through_injection(f2, _table(a2, f1), f1.domain,
                                          f"a1[{f1.domain.name}->{f2.domain.name}]")
            if a1 is None or not classify(a1).k_uniform:
                continue
            a3 = factor_through_surjection(g1, _table(g2, a2), g2.codomain,
                                           f"a3[{g1.codomain.name}->{g2.codomain.name}]")
            if a3 is None or not classify(a3).k_uniform:
                continue
            out.append(_build(f"snake.{len(out)}", (2, 3), (f1, g1, f2, g2, a1, a2, a3)))
            if len(out) >= spec.quota:
                return out
    return out

