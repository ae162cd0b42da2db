"""Exhaustive generation of small semimodules, and independent oracles.

Enumeration is complete up to isomorphism for the requested bound: a
module is kept when its (add, action) tables, flattened row by row, are the
lexicographically smallest among all carrier relabellings fixing zero.
That key compares the add table before the action, so a kept module's add
table is its own canonical form: the action search runs only on those
tables, one per commutative monoid up to isomorphism (1, 2, 5, 19, 78, 421
for orders 1-6), generated orderly once per carrier size and shared by
every semiring. A canonical add table is strictly smaller than its image
under every relabelling but its automorphisms, so (add, action) is
canonical exactly when no automorphism of add, computed once per table,
makes the action smaller. Every relabelling loop reads one kernel,
_relabellings: each relabelling as a gather of a flat table's cells and a
map of their values, built on first use per carrier size and column
count. canonical_form, the full minimum, remains the key of
enumerate_semimodules_naive, the unpruned recount oracle.

The monoid tables and the action tables are completed by the search engine
of core (_completions), each with its own laws: associativity, and the
module laws, the sum and product laws only at generators of S
(core.generators), which imply the rest (see the core docstring). So a
grid that completes is a module, and validate_semimodule confirms it, once
per table in the verdict cache the hom search reads too (core._validates).
Over a semiring that 1 additively generates (B, Z_n, T_k, nat_k) the
action is forced, m.s being a sum of copies of m, so the one candidate table
(core.natural_action) is checked and sent to the same verdict cache
instead of searched; _actions_for_monoid has the proof. The tests hold
both paths to unpruned sweeps. Everything here is deterministic; the seed
in a UniverseSpec only matters to downstream samplers.

The oracles are the isomorphism test, the walk over a pool's hom-sets
(maps_among) that the catalog and the harness's row pools read, and the
abelian-group snake. The two that build maps import their morphisms name
when they run, so a corpus export, which runs neither, loads no morphisms
layer. The counterexample catalog lives in the catalog module; the names it
took from here still resolve here, to the catalog's own objects.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, permutations
from operator import itemgetter
from typing import NamedTuple

from .core import (Semimodule, Semiring, Value, _completions, _validates, generators,
                   natural_action)
from .errors import LemmaRefuted, ParameterError, PreconditionError


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


def _flat(table):
    """A table's cells in row-major order, as bytes: the relabelling kernel
    gathers and maps them in C, and bytes compare as the tuples of their
    values do. Values stay below 255, an unknown cell of a partial table:
    relabelling a carrier that large is out of reach anyway."""
    return bytes(chain.from_iterable(table))


@lru_cache(maxsize=None)
def _relabellings(n, cols=None):
    """Every relabelling of 0..n-1 that fixes 0, as (perm, take, table) with
    perm[old] = new: the identity first, then in the order of
    itertools.permutations. A flat table (_flat) relabelled is
    bytes(take(flat)).translate(table) (_relabel): take gathers the cells in
    their new order, and table, perm padded to 256 bytes, 255 fixed, maps the values.
    Row i comes from row perm^-1(i), and so does column j of an add table
    (cols None); an action table with cols columns keeps its columns. Built
    on first use, once per carrier size and column count."""
    out = []
    for tail in permutations(range(1, n)):
        perm = (0,) + tail
        inv = [0] * n
        for old, new in enumerate(perm):
            inv[new] = old
        src = ([inv[i] * n + inv[j] for i in range(n) for j in range(n)] if cols is None
               else [inv[i] * cols + x for i in range(n) for x in range(cols)])
        # itemgetter of one index returns the value, not a 1-tuple: a one-cell
        # table (n = 1, add) is its own gather
        take = itemgetter(*src) if len(src) > 1 else bytes
        out.append((perm, take, bytes(perm).ljust(255, b"\0") + b"\xff"))
    return tuple(out)


def _relabel(flat, move):
    """The flat table relabelled by one move (perm, take, table) of
    _relabellings. Compared with flat, it is decided at the first cell where
    they differ."""
    _, take, table = move
    return bytes(take(flat)).translate(table)


def _least(flat, moves):
    """True when no relabelling among moves makes the flat table smaller,
    decided at the first relabelling that does (_relabel, written out)."""
    for _, take, table in moves:
        if bytes(take(flat)).translate(table) < flat:
            return False
    return True


def canonical_form(add, action):
    """Lexicographically minimal (add, action) flattening over permutations fixing 0."""
    n, flat = len(add), _flat(add)
    if not action:
        return tuple(min(_relabel(flat, move) for move in _relabellings(n)))
    acts = _flat(action)
    return tuple(min(_relabel(flat, move) + _relabel(acts, act_move) for move, act_move
                     in zip(_relabellings(n), _relabellings(n, len(action[0])))))


def _commutative_monoid_tables(n, prune=None):
    """All commutative monoid tables on 0..n-1 with 0 neutral (not up to iso),
    in lexicographic order of the upper triangle read row by row, less those prune drops.

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
    for t in _completions(table, order, range(n), laws, (), prune):
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

    When 1 additively generates S (core.natural_action is not None) there is
    at most one, the table natural_action builds: each s is a sum of j ones
    for the least such j, and m.0 = 0, m.1 = m and m(s+1) = ms + m.1 =
    ms + m give ms = m + ... + m (j terms). That table is an action only if
    m(s+1) = ms + m also holds where the sums of ones come round to an
    element already reached (in Z_n, or in nat_k past its index), so the law
    is checked at every m and s, and a table that passes goes to the verdict
    cache, as a grid the search completes does. The other semirings are
    searched (_searched_actions).
    """
    forced = natural_action(semiring, add)
    if forced is None:
        return _searched_actions(semiring, add)
    succ = [row[semiring.one] for row in semiring.add]  # s -> s + 1
    # m(s+1) = ms + m in each row m, reading ms + m as m + ms in the symmetric add
    if (all(list(map(row.__getitem__, succ)) == list(map(add[m].__getitem__, row))
            for m, row in enumerate(forced))
            and _validates(Semimodule._trusted("", semiring, len(add), add, forced))):
        return [forced]
    return []


def _searched_actions(semiring, add):
    """All valid action tables for one monoid, in lexicographic order, by search.

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
    """The monoid tables of order n that are their own canonical form, one per
    commutative monoid up to isomorphism, made orderly (Read, 1978): a partial
    table goes, with its completions, at the first relabelling that makes it
    smaller up to the first cell unknown (255) in it or its image, a prefix its
    completions keep. A stack of the tables kept holds the relabellings open
    on each, with the cell that keeps each open."""
    others = _relabellings(n)[1:]
    stack = [(b"", [(take(range(n * n)), take, table, 0) for _, take, table in others])]

    def prune(t):
        flat = bytes([255 if v is None else v for v in t])
        cut = flat.index(255)
        while not flat.startswith(stack[-1][0]):  # back to the nearest ancestor
            stack.pop()
        still = []
        for move in stack[-1][1]:  # (cell sources, take, table, the cell keeping it open)
            src, take, table, watch = move
            if flat[watch] == 255:
                still.append(move)
                continue
            image = bytes(take(flat)).translate(table)
            k = min(image.index(255), cut)
            if image[:k] < flat[:k]:
                return True
            if image[:k] == flat[:k]:
                still.append((src, take, table, src[k]))
        stack.append((flat[:cut], still))
        return False

    return tuple(add for add in _commutative_monoid_tables(n, prune) if _least(_flat(add), others))


@lru_cache(maxsize=None)
def _automorphisms(add):
    """The positions in _relabellings(len(add)) of the relabellings that fix
    the add table: 0, the identity, first."""
    flat = _flat(add)
    return tuple(i for i, move in enumerate(_relabellings(len(add)))
                 if _relabel(flat, move) == flat)


@lru_cache(maxsize=None)
def _enumerated(semiring: Semiring, max_size: int):
    found = []
    for n in range(1, max_size + 1):
        moves = _relabellings(n, semiring.size)
        for add in _canonical_monoid_tables(n):
            others = [moves[i] for i in _automorphisms(add)[1:]]
            for action in _actions_for_monoid(semiring, add):
                if not others or _least(_flat(action), others):
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
    from .morphisms import Morphism  # kept off the corpus path

    if M.semiring != N.semiring or M.size != N.size:
        return None
    add, action, N_add, N_action = map(_flat, (M.add, M.action, N.add, N.action))
    for move, act_move in zip(_relabellings(M.size), _relabellings(M.size, M.semiring.size)):
        if _relabel(add, move) == N_add and _relabel(action, act_move) == N_action:
            return Morphism(f"iso[{M.name}->{N.name}]", M, N, move[0])
    return None


def maps_among(mods, codomains=None):
    """Every map from a module of mods to one of codomains (mods itself when
    None), by domain, then codomain, then hom-set order: the one walk over
    a pool's hom-sets, which the catalog and the harness's row pools read."""
    from .morphisms import enumerate_hom  # kept off the corpus path

    for M in mods:
        for N in mods if codomains is None else codomains:
            yield from enumerate_hom(M, N)


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


# names the catalog took from this module, which perfbench still imports from
# here; they resolve to the catalog's own objects, not copies (PEP 562)
_MOVED = frozenset("""Counterexample PROPERTIES is_epimorphism is_monomorphism
    replay_counterexample search_counterexample universe_with_free_module""".split())


def __getattr__(name):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import catalog

    return getattr(catalog, name)
