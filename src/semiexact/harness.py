"""Deterministic generation of hypothesis-satisfying diagram corpora.

Every exact row comes from one list, _exact_pairs: the pairs (f, g) over
the pool's modules with image(f) = Ker(g) and g k-uniform, by g, then f, in
enumeration.maps_among order, so every arrow of a row is a hom-set member
as enumerate_hom names it. Exactness at an object reads only the two
arrows that meet there. So a 2x3 row assumed exact is an exact pair with
the row's other conditions (_exact_rows), the snake's left exact bottom
row an exact pair with f injective, and a 2x5 row exact at L, M and N
three overlapping exact pairs (_exact_5rows_stream). The other 2x3 rows,
with g∘f = 0, come from _any_rows_stream. Each capped pool is the front of
an uncapped ordered stream: _any_rows, _exact_5rows and _snake_left_rows
keep its first 400, 600 and 200 rows. The caps stay, as a pool's length
sets its shuffle and so the corpus. Verticals are drawn from hom-sets.
The caches, all lru_caches: _pool and the row pools _exact_pairs,
_exact_rows (per set of conditions too), _any_rows, _exact_5rows and
_snake_left_rows, per (semiring, bound). Hom-sets, classifications and the
3x3 quotient row's Bourne quotients (bourne_quotient) come from morphisms'
caches.
The generator of a clause's shape draws for its entry of diagrams.CLAUSES,
gen_snake for diagrams._SNAKE_GATES, and _collect keeps the candidates that
pass the hypotheses, minus those the construction guarantees: the
hypotheses listed in _ROW_POOLS choose a 2x3 row pool (the snake's pools
hold its gates listed there), which guarantees those that chose it when
the row is exact; 2x5 rows guarantee their exactness, the 3x3 quotient row
the ids of _QUOTIENT_ROW. The hypotheses run on the raw arrows, before a
Diagram is built, split by Clause.split: one that reads a single part
(`alpha1 surjective`, `g1 surjective`, `M1 cancellative`) runs as soon as
that part is drawn, on a row pair once it is drawn, on a2 once it comes
out of its shuffle, and on the members of a hom-set once per join and
column; the rest run on the whole tuple. Only drawn parts and hom-set
members are tested early, never a pool before its shuffle, so the
accepted candidates are the same, in the same order, as with every test
on the whole tuple. The 3x3 stream tests its whole tuples, which are cheap.

Every 2x3 and 2x5 grid is filled by one join, _two_row_join, by hash joins
on composite tables: for a fixed arrow such as f2, the hom-set of
candidate a1 is indexed once by the table of f2∘a1 (morphisms._table), and
the other side of the square, a2∘f1, is looked up as a plain tuple. No
Morphism is built to test a square; Diagram.from_arrows still checks every
square of every diagram it is handed. Which verticals of a column pass its
single-part test depends on the column's two modules alone, so the join
finds them once per column and modules, and drops a row pair whose column
beside the middle has none before it indexes anything: the same pairs are
dropped, in the same order, as by indexing both squares and finding one
empty. Maps forced by a square (the 3x3 quotient row, snake's outer
verticals) are factored through the square's injection or surjection by
morphisms.factor_through_injection and factor_through_surjection; the 3x3
stream takes each vertical's quotient once per generator and, per middle
row, induces f3 once per (a1, a2) and g3 once per (a2, a3).

Given the same spec (semiring, bound, seed) the generated corpus is
identical run to run; the seed only shuffles the candidate order so corpora
are not dominated by zero maps. Every shuffle is a seeded permutation
(_permutation): a front-to-back Fisher-Yates shuffle, drawn lazily, one
draw per index it yields, so a generator that stops after k candidates
pays for k, not for the whole list. A pool or a product of row pools is
shuffled once per generator; row pairs are drawn as indices into the
product, which is never materialised. The 3x3 and snake streams shuffle
an a2 hom-set per row; the join shuffles the middle column's hom-set once
per modules, with the verticals it finds there, not per row pair.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from itertools import islice

from .core import Semiring, Value, is_cancellative_module
from .diagrams import _SNAKE_GATES, Diagram, clause_key, lookup
from .enumeration import UniverseSpec, enumerate_semimodules, maps_among
from .errors import ParameterError
from .morphisms import (_table, bourne_quotient, classify, enumerate_hom,
                        factor_through_injection, factor_through_surjection, image_set,
                        is_injective, is_k_uniform, is_surjective, kernel_set)


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
    return map(items.__getitem__, _permutation(len(items), seed, tag))


def _shuffled_pairs(left, right, seed, tag):
    """The pairs of _shuffled([(l, r) for l in left for r in right], seed, tag),
    decoded from indices into the product, which is never materialised."""
    m = len(right)
    return ((left[k // m], right[k % m]) for k in _permutation(len(left) * m, seed, tag))


def _passes(test, part):
    return test is None or test(part)


def _index(homs, key):
    """Members of a hom-set grouped by key(h), each group in hom-set order."""
    out = {}
    for h in homs:
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
    by image once, and each k-uniform g looks up its kernel."""
    mods = _pool(semiring, max_size)
    by_image = {M: _index(maps_among(mods, (M,)), image_set) for M in mods}
    return tuple((f, g) for g in maps_among(mods) if is_k_uniform(g)
                 for f in by_image[g.domain].get(kernel_set(g), ()))


@lru_cache(maxsize=None)
def _exact_rows(semiring, max_size, cancellative=False, injective=False, surjective=False):
    """The pairs of _exact_pairs, in order, with f injective, g surjective
    and a cancellative middle module where those are asked for."""
    middles = {M for M in _pool(semiring, max_size)
               if not cancellative or is_cancellative_module(M)}
    return tuple((f, g) for f, g in _exact_pairs(semiring, max_size)
                 if (not injective or is_injective(f)) and (not surjective or is_surjective(g))
                 and f.codomain in middles)


def _square_index(top, bottom, c, n, homs):
    """homs, verticals at column c, grouped by the table of their side of the
    square they close with column n."""
    if c < n:
        return _index(homs, lambda h: _table(bottom[c], h))
    return _index(homs, lambda h: _table(h, top[n]))


def _two_row_join(spec, rows_top, rows_bottom, tag, tests):
    """Yield the parts of two-row grids with a middle column (2x3, 2x5) whose
    squares all commute and tests[i], where it is not None, passes on the
    i-th part: a row pair from _shuffled_pairs, the middle vertical from its
    shuffled hom-set, then the others outward from it, inner before outer
    and left before right (alpha1, alpha3, then gamma, delta), each looked up
    in the _square_index of the square it closes with its neighbour toward
    the middle, by the table of that square's other side."""
    k = len(tests) // 3  # arrows per row: the grid has 2k horizontals, k + 1 verticals
    mid, rows_ok, vtests = (k + 1) // 2, _joint(tests[:2 * k]), tests[2 * k:]
    # the verticals in the order they are drawn: (column, neighbour toward the middle)
    order = [(mid, None)] + [(c, c + 1 if c < mid else c - 1)
                             for j in range(1, mid + 1) for c in (mid - j, mid + j)]
    passing = {}  # the verticals that pass, by column

    def members(top, bottom, c):
        """The verticals at column c that pass vtests[c], the middle ones in
        their shuffled order: found once per column and modules, keyed by
        identity, as the row pools hold the modules."""
        if c < k:
            X, Y = top[c].domain, bottom[c].domain
        else:  # the right edge
            X, Y = top[-1].codomain, bottom[-1].codomain
        key = c, id(X), id(Y)
        if key not in passing:
            homs = enumerate_hom(X, Y)
            if c == mid:
                homs = _shuffled(homs, spec.seed, tag + "a2")
            passing[key] = [h for h in homs if _passes(vtests[c], h)]
        return passing[key]
    for top, bottom in _shuffled_pairs(rows_top, rows_bottom, spec.seed, tag):
        # every middle vertical needs a vertical that passes on each side of it
        if not (rows_ok(top + bottom) and members(top, bottom, order[1][0])
                and members(top, bottom, order[2][0])):
            continue
        indexes = {}  # column -> its _square_index, built when first looked up
        verts = [None] * (k + 1)

        def candidates(i):
            """The verticals at order[i] that close its square with verts."""
            c, n = order[i]
            if c not in indexes:
                indexes[c] = _square_index(top, bottom, c, n, members(top, bottom, c))
            side = _table(verts[n], top[c]) if c < n else _table(bottom[n], verts[n])
            return indexes[c].get(side, ())

        def fill(i, found):
            """verts completed by each of `found` at order[i], then by the
            verticals after it."""
            c = order[i][0]
            for v in found:
                verts[c] = v
                if i + 1 == len(order):
                    yield top + bottom + tuple(verts)
                elif more := candidates(i + 1):
                    yield from fill(i + 1, more)
        yield from fill(0, members(top, bottom, mid))


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


# ----------------------------------------------------------- 2x3 generators

# Each hypothesis id that chooses a 2x3 row pool: (row, condition). Ids that
# choose none (`f2 injective`, say) stay filters: as pools they would change
# a pool's length, and with it the shuffle.
_ROW_POOLS = {
    "first row exact": (0, "exact"), "first row exact at middle": (0, "exact"),
    "first row: f injective": (0, "injective"), "first row: g surjective": (0, "surjective"),
    "M1 cancellative": (0, "cancellative"),
    "second row exact": (1, "exact"), "second row exact at middle": (1, "exact"),
    "second row: f injective": (1, "injective"), "second row: g surjective": (1, "surjective"),
    "M2 cancellative": (1, "cancellative")}


def _any_rows_stream(semiring, max_size):
    """Every composable (f, g) over the pool with g∘f = 0, by g, then f, in
    maps_among order; Ker(g) is found once per g and each image once per
    map."""
    mods = _pool(semiring, max_size)
    into = {M: [(f, image_set(f)) for f in maps_among(mods, (M,))] for M in mods}
    for g in maps_among(mods):
        ker = kernel_set(g)
        yield from ((f, g) for f, image in into[g.domain] if image <= ker)


@lru_cache(maxsize=None)
def _any_rows(semiring, max_size):
    """The first 400 rows of _any_rows_stream, for non-exact rows."""
    return tuple(islice(_any_rows_stream(semiring, max_size), 400))


def _row_pools(semiring, max_size, ids):
    """(top, bottom, guaranteed): the row pools that a 2x3 clause's
    hypothesis ids choose through _ROW_POOLS, and the ids they guarantee. A
    row the clause assumes exact is drawn from _exact_rows with the row's
    other conditions, and guarantees the ids that chose it; any other row
    from all rows with g∘f = 0, exact pairs first, and its ids stay filters."""
    pools, guaranteed = [], set()
    for row in (0, 1):
        chosen = [i for i in ids if _ROW_POOLS.get(i, (None,))[0] == row]
        conditions = {_ROW_POOLS[i][1] for i in chosen}
        if "exact" in conditions:
            keywords = dict.fromkeys(sorted(conditions - {"exact"}), True)
            pools.append(_exact_rows(semiring, max_size, **keywords))
            guaranteed.update(chosen)
        else:
            rows = _exact_pairs(semiring, max_size) + _any_rows(semiring, max_size)
            pools.append(tuple(dict.fromkeys(rows)))
    return (*pools, frozenset(guaranteed))


def _gen_2x3(spec: HarnessSpec, clause):
    top, bottom, guaranteed = _row_pools(spec.semiring, spec.max_size, clause.ids)
    return _collect(spec, clause, partial(_two_row_join, spec, top, bottom, clause.tag),
                    guaranteed)


def vertical_triples(spec: UniverseSpec):
    """The short-five clause's row pairs with commuting verticals over the
    universe's modules; used by the dropped-hypothesis searches."""
    s, n = spec.semiring, spec.max_module_size
    top, bottom, _ = _row_pools(s, n, lookup("short-five").ids)
    for parts in _two_row_join(HarnessSpec(s, n, spec.seed), top, bottom, "vt", (None,) * 7):
        yield parts[:2], parts[2:4], parts[4:]


# ----------------------------------------------------------- 2x5 generators

def _exact_5rows_stream(semiring, max_size):
    """Every row U -d-> L -f-> M -g-> N -h-> V exact at L, M and N, three
    overlapping exact pairs (d, f), (f, g) and (g, h): by h, then g, f and d,
    each in _exact_pairs order."""
    pairs = _exact_pairs(semiring, max_size)
    before = {}  # g -> the f of its exact pairs, in order
    for f, g in pairs:
        before.setdefault(g, []).append(f)
    for g, h in pairs:
        for f in before.get(g, ()):
            yield from ((d, f, g, h) for d in before.get(f, ()))


@lru_cache(maxsize=None)
def _exact_5rows(semiring, max_size):
    """The first 600 rows of _exact_5rows_stream."""
    return tuple(islice(_exact_5rows_stream(semiring, max_size), 600))


def _gen_2x5(spec: HarnessSpec, clause):
    rows = _exact_5rows(spec.semiring, spec.max_size)
    exact = {i for i in clause.ids if _ROW_POOLS.get(i, (None, None))[1] == "exact"}
    return _collect(spec, clause, partial(_two_row_join, spec, rows, rows, clause.tag), exact)


# ----------------------------------------------------------- 3x3 generators

def _induced(f, q_src, q_dst):
    """f between quotients of its domain and codomain, as the 3x3 quotient
    row's f3 or g3; None where it is not well-defined, which the 3x3 stream
    never asks for."""
    return factor_through_surjection(q_src.projection, _table(q_dst.projection, f),
                                     q_dst.quotient, f"[{f.name}]")


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
    mid_rows = _exact_rows(s, n, injective=True, surjective=True)
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
    quotients = {}  # vertical -> its Bourne quotient by its image

    def quotient(a):
        if a not in quotients:
            quotients[a] = bourne_quotient(a.codomain, tuple(sorted(image_set(a))))
        return quotients[a]
    seed, tag = spec.seed, clause.tag
    for f2, g2 in _shuffled(mid_rows, seed, tag):
        a1s, a2s, a3s = (tops(c, X) for c, X in
                         enumerate((f2.domain, f2.codomain, g2.codomain)))
        g1_by = {}  # (M1, position of a3) -> index of Hom(M1, N1) by a3∘g1
        for a2 in _shuffled(a2s, seed, tag + "a2"):
            M1, q2 = a2.domain, quotient(a2)
            f1_by = {}  # L1 -> index of Hom(L1, M1) by a2∘f1
            g3_by = {}  # position of a3 -> g3, induced by a2 and a3
            for a1 in a1s:
                L1 = a1.domain
                if L1 not in f1_by:
                    f1_by[L1] = _index(enumerate_hom(L1, M1), lambda f1: _table(a2, f1))
                f1s = f1_by[L1].get(_table(f2, a1))
                if not f1s:
                    continue
                # f3 is well-defined once a square closes over a1, and g3 once
                # one closes over a3: f2(im a1) = im(a2∘f1) lies in im a2 and
                # g2(im a2) = im(a3∘g1) in im a3, so Bourne classes go to
                # Bourne classes
                f3 = _induced(f2, quotient(a1), q2)
                for j, a3 in enumerate(a3s):
                    if (M1, j) not in g1_by:
                        g1_by[M1, j] = _index(enumerate_hom(M1, a3.domain),
                                              lambda g1: _table(a3, g1))
                    g1s = g1_by[M1, j].get(_table(g2, a2))
                    if not g1s:
                        continue
                    if j not in g3_by:
                        g3_by[j] = _induced(g2, q2, quotient(a3))
                    rest = (f2, g2, f3, g3_by[j], a1, a2, a3, quotient(a1).projection,
                            q2.projection, quotient(a3).projection)
                    for f1 in f1s:
                        for g1 in g1s:
                            parts = (f1, g1) + rest
                            if parts_ok(parts):
                                yield parts


def _gen_3x3(spec: HarnessSpec, clause):
    return _collect(spec, clause, partial(_squares_3x3, spec, clause), _QUOTIENT_ROW)


_GENERATORS = {(2, 3): _gen_2x3, (2, 5): _gen_2x5, (3, 3): _gen_3x3}


def _generator(family):
    """gen_*: the corpus of the table entry `diagrams.clause_key(family,
    clause)`, the clause the family's verify_* reads, drawn by the generator
    of its shape; ParameterError for an unknown clause."""
    def generate(spec: HarnessSpec, clause=None):
        entry = lookup(clause_key(family, clause), ParameterError)
        return _GENERATORS[entry.shape](spec, entry)
    return generate


gen_lemma_short = _generator("short")
gen_lemma_diagram = _generator("diagram")
gen_short_five_half = _generator("short-five-half")
gen_short_five = _generator("short-five")
gen_five_parts = _generator("five-parts")
gen_five = _generator("five")
gen_nine_first = _generator("nine-first")
gen_nine_third = _generator("nine-third")
gen_nine = _generator("nine")


# --------------------------------------------------------- snake generation

@lru_cache(maxsize=None)
def _snake_left_rows(semiring, max_size):
    """The first 200 rows 0 -> L2 -f2-> M2 -g2-> N2 exact at L2 and M2, the
    exact pairs with f2 injective."""
    return _exact_rows(semiring, max_size, injective=True)[:200]


def _snake_squares(spec: HarnessSpec, tests):
    """Yield snake inputs, right exact top rows over _snake_left_rows, with
    tests[i], where it is not None, passing on the i-th part: only alpha2 is
    enumerated; alpha1 and alpha3 are derived from it through the squares,
    factored through the injective f2 and the surjective g1."""
    s, n, seed = spec.semiring, spec.max_size, spec.seed
    rows_ok, (a1_test, a2_test, a3_test) = _joint(tests[:4]), tests[4:]
    for (f1, g1), (f2, g2) in _shuffled_pairs(_exact_rows(s, n, surjective=True),
                                              _snake_left_rows(s, n), seed, "snake"):
        if not rows_ok((f1, g1, f2, g2)):
            continue
        for a2 in _shuffled(enumerate_hom(f1.codomain, f2.codomain), seed, "snake.a2"):
            if not _passes(a2_test, a2):
                continue
            a1 = factor_through_injection(f2, _table(a2, f1), f1.domain,
                                          f"a1[{f1.domain.name}->{f2.domain.name}]")
            if a1 is None or not _passes(a1_test, a1):
                continue
            a3 = factor_through_surjection(g1, _table(g2, a2), g2.codomain,
                                           f"a3[{g1.codomain.name}->{g2.codomain.name}]")
            if a3 is not None and _passes(a3_test, a3):
                yield f1, g1, f2, g2, a1, a2, a3


def gen_snake(spec: HarnessSpec):
    """Snake inputs that pass diagrams._SNAKE_GATES; the row pools guarantee
    the gates that choose a row pool in _ROW_POOLS."""
    return _collect(spec, _SNAKE_GATES, partial(_snake_squares, spec),
                    _SNAKE_GATES.ids & _ROW_POOLS.keys())
