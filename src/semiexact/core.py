"""Finite semirings and semimodules as dense operation tables.

Elements are indices 0..n-1. Index 0 is the additive zero in every
structure this package builds itself; hand-written inputs may declare a
different zero and validation is relative to the declared constants.
All tables are row-major tuples, so every structure is immutable,
hashable and safe to share. Checked values (structures, maps, congruences,
specs) subclass Value; results such as ValidationReport are NamedTuples.

Each value is checked once, where it enters. A derived value that is valid
by construction (an image, kernel-pair congruence, subsemimodule, quotient,
identity, composite, hom-set member, inclusion, projection or factored map)
is built by Value._trusted, with a proof at its call site from what its
inputs' constructors checked, not from module laws. What needs such a law
stays checked: kernel, subtractive_closure, bourne_congruence,
zero_morphism, hom_add, oracle_iso_exists, snake's connecting map, every
Diagram, and the _validates verdict on each grid of the action search and
on each forced action (natural_action) that takes its place. A semiring is
validated once: _semiring_validates keeps the verdict that the builders,
generators and the parser read, and the full report is built only when it
is False. Each semiring value is one object: the builders and the parser
hand out _kept(s), the first equal semiring this process kept.

Validation reports every violated law (one witness each) instead of
stopping at the first: fixtures are authored by hand and full reports
make table typos obvious.

Laws that quantify over S are checked on generators of S, generators(S):
A generates (S, +) from 0 and G generates S under + and * from 0 and 1
(A = {1} and G empty for B, Z_n, T_k and nat_k; G = {2} for minplus,
{1, 2} for T2xB and {2, 3, 5} for UT2B). Each reduction rests on laws
checked in full first; when one of those fails, the law is scanned over
all of S. A law that fails on the generators is scanned again over all of
S in the full scan's order, so every report names the witness the full
scan names. The proofs:

- Two tools. Additive maps that agree on A agree on S. And the set T of
  t at which a law holds for every value of its other arguments is closed
  under + (and under *, for the action laws) and holds 0 (and 1); then T
  holds the closure of the generators, which is S.
- Semiring, given 0 neutral and absorbing: (a+b)+t = a+(b+t) holds at
  t = 0, and at t + u when it holds at t and u, by three uses at u and one
  at t. With + associative, a(b+t) = ab+at and (b+t)a = ba+ta hold at 0
  and are closed under +. With both distributive laws, (ab)c = a(bc) on
  A^3 spreads to S one argument at a time: in each, both sides are
  additive maps that agree on A.
- Module, given S valid, M a commutative monoid, m1 = m and m0_S = 0_M:
  m(s+t) = ms+mt holds at t = 0 and is closed under + by associativity of
  both additions. With it, (ms)t = m(st) holds at 0 and 1, is closed under
  + by left distributivity in S, and under * since
  (ms)(tu) = ((ms)t)u = (m(st))u = m((st)u) = m(s(tu)). With both,
  (m+m')s = ms+m's holds at s = 0 (0_M + 0_M = 0_M) and s = 1, at s + t
  when it holds at s and t, as (m+m')(s+t) = (m+m')s + (m+m')t =
  ms+m's+mt+m't = m(s+t) + m'(s+t) in the commutative monoid M, and at st,
  as (m+m')(st) = ((m+m')s)t = (ms+m's)t = (ms)t+(m's)t = m(st)+m'(st).
- Maps, when both modules validate: an additive map f with f(0) = 0 is
  equivariant, f(ms) = f(m)s, at 0 and 1, at s + t when it is at s and t,
  and at st, as f(m(st)) = f((ms)t) = f(ms)t = (f(m)s)t. So the hom search
  checks equivariance at G only; the Morphism constructor checks all of S.

The exhaustive searches (monoid tables, action grids, hom tables) are one
backtracking engine, _completions, over a flat table in which None marks an
unknown cell. Each search gives a cell order, the candidate values and its
laws: laws(t, k, put) checks what the value of cell k implies wherever the
other cells a law reads are known, fills an unknown cell a law forces by
put(c, v), and returns False at the first known cell that disagrees. Each
law must run from whichever of its cells is known last; then a completed
table satisfies every law. The engine branches on the first unknown cell
of the order, trying each value in ascending order, and keeps one trail of
filled cells that is both the undo log and the worklist of cells whose
laws are still to run. A forced cell is never branched on, and the tables
under a branch agree on every cell before it in the order, so completions
come out in lexicographic order of the order.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from operator import attrgetter
from typing import NamedTuple

from .errors import LemmaRefuted, ParameterError, StructureError


def freeze_table(rows):
    return tuple(tuple(map(int, row)) for row in rows)


# Fields, _hash and _unnamed are set by object.__setattr__, never through an instance
# __dict__: once one is built, attribute reads take a slower path (CPython 3.11).
_setattr = object.__setattr__


def hash_once(value):
    """The hash of a Value's field tuple, kept as its _hash once computed: the
    fields never change, and re-walking nested tables on every dict and
    lru_cache lookup was a large share of diagram generation."""
    h = value._hash
    if h is None:
        h = hash(value._key(value))
        _setattr(value, "_hash", h)
    return h


class Value:
    """An immutable value, checked when built, compared and hashed by its
    field tuple. A subclass's fields are its own annotations, in order (two
    or more); a default is the class attribute of that name, and defaults
    trail. The constructor binds its arguments as a def over the fields
    would, sets them as instance attributes and calls __post_init__, the
    subclass's check, which may normalise a field with object.__setattr__."""

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields, cls._key = fields, attrgetter(*fields)
        cls._defaults = {n: cls.__dict__[n] for n in fields if n in cls.__dict__}
        tail = tuple(cls._defaults.values())  # what a short positional call leaves off
        cls._tails = {len(fields) - k: tail[len(tail) - k:] for k in range(len(tail) + 1)}

    def __init__(self, *args, **kwargs):
        tail = None if kwargs else self._tails.get(len(args))
        for name, value in zip(self._fields,
                               self._bind(args, kwargs) if tail is None else args + tail):
            _setattr(self, name, value)
        self.__post_init__()

    @classmethod
    def _trusted(cls, *args):
        """The value the constructor builds from args, all fields or all but
        trailing defaults, as __post_init__ would leave them, without its check."""
        value = object.__new__(cls)
        for name, v in zip(cls._fields, args + cls._tails[len(args)]):
            _setattr(value, name, v)
        return value

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values of a call with keywords or with other than all or
        all but trailing defaults positionally; TypeError for a missing,
        unknown or repeated argument."""
        fields, given = cls._fields, dict(zip(cls._fields, args))
        values = {**cls._defaults, **given, **kwargs}
        if len(args) > len(fields) or values.keys() - set(fields) or given.keys() & kwargs:
            raise TypeError(f"{cls.__name__}() takes ({', '.join(fields)}), got "
                            f"{len(args)} positional and keywords {list(kwargs)}")
        missing = [n for n in fields if n not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() missing argument(s) {', '.join(missing)}")
        return tuple(values[n] for n in fields)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    _hash = None
    __hash__ = hash_once

    def __repr__(self):
        pairs = zip(self._fields, self._key(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _check_table(table, nrows, ncols, vmax, what):
    if len(table) != nrows:
        raise StructureError(f"{what}: expected {nrows} rows, got {len(table)}")
    if (all(len(row) == ncols for row in table)
            and min(map(min, table)) >= 0 and max(map(max, table)) < vmax):
        return
    for i, row in enumerate(table):  # name the first bad row or entry
        if len(row) != ncols:
            raise StructureError(f"{what}: row {i} has {len(row)} entries, expected {ncols}")
        for x in row:
            if not 0 <= x < vmax:
                raise StructureError(f"{what}: entry {x} in row {i} out of range 0..{vmax - 1}")


class Violation(NamedTuple):
    law: str
    witness: str

    def __str__(self):
        return f"{self.law} [{self.witness}]"


class ValidationReport(NamedTuple):
    subject: str
    violations: tuple

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        if self.ok:
            return f"{self.subject}: ok"
        lines = [f"{self.subject}: {len(self.violations)} violation(s)"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


class Semiring(Value):
    """(S, +, *, 0, 1) with dense addition and multiplication tables."""

    name: str
    size: int
    add: tuple
    mul: tuple
    zero: int = 0
    one: int = 1

    def __post_init__(self):
        object.__setattr__(self, "add", freeze_table(self.add))
        object.__setattr__(self, "mul", freeze_table(self.mul))
        self._check()

    def _check(self):  # shape and range, on frozen tables (the parser's are)
        if self.size < 1:
            raise StructureError(f"semiring {self.name}: size must be >= 1")
        _check_table(self.add, self.size, self.size, self.size, f"semiring {self.name} add")
        _check_table(self.mul, self.size, self.size, self.size, f"semiring {self.name} mul")
        for c in (self.zero, self.one):
            if not 0 <= c < self.size:
                raise StructureError(f"semiring {self.name}: constant {c} out of range")

    def __repr__(self):
        return f"Semiring({self.name!r}, size={self.size})"


class Semimodule(Value):
    """Right semimodule: commutative monoid plus a right action table.

    action[m][s] is m acted on by semiring element s.
    """

    name: str
    semiring: Semiring
    size: int
    add: tuple
    action: tuple
    zero: int = 0

    def __post_init__(self):
        object.__setattr__(self, "add", freeze_table(self.add))
        object.__setattr__(self, "action", freeze_table(self.action))
        self._check()

    def _check(self):  # shape and range, on frozen tables (the parser's are)
        if self.size < 1:
            raise StructureError(f"module {self.name}: size must be >= 1")
        _check_table(self.add, self.size, self.size, self.size, f"module {self.name} add")
        _check_table(self.action, self.size, self.semiring.size, self.size,
                      f"module {self.name} action")
        if not 0 <= self.zero < self.size:
            raise StructureError(f"module {self.name}: zero {self.zero} out of range")

    _unnamed = None

    @property
    def unnamed(self):
        """This module named "", every other field (semiring and zero too) kept,
        built once as _hash is: the key of caches of results of tables alone."""
        if self._unnamed is None:
            _setattr(self, "_unnamed", self._trusted("", *self._key(self)[1:]))
        return self._unnamed

    def __repr__(self):
        return f"Semimodule({self.name!r}, size={self.size}, over={self.semiring.name!r})"

    def elements(self):
        return range(self.size)


class Subsemimodule(Value):
    """Subset of a module carrier closed under + and the action."""

    parent: Semimodule
    members: tuple

    def __post_init__(self):
        members = tuple(sorted(set(int(m) for m in self.members)))
        object.__setattr__(self, "members", members)
        M = self.parent
        if not members:
            raise StructureError(f"subsemimodule of {M.name}: empty member list")
        for m in members:
            if not 0 <= m < M.size:
                raise StructureError(f"subsemimodule of {M.name}: member {m} out of range")
        if M.zero not in members:
            raise StructureError(f"subsemimodule of {M.name}: missing zero {M.zero}")
        inside = set(members)
        for a in members:
            for b in members:
                if M.add[a][b] not in inside:
                    raise StructureError(
                        f"subsemimodule of {M.name}: not closed under add ({a}+{b}={M.add[a][b]})")
            for s in range(M.semiring.size):
                if M.action[a][s] not in inside:
                    raise StructureError(
                        f"subsemimodule of {M.name}: not closed under action ({a}.{s}={M.action[a][s]})")

    def __repr__(self):
        return f"Subsemimodule({self.parent.name!r}, {{{','.join(map(str, self.members))}}})"


class Element(Value):
    module: Semimodule
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.module.size:
            raise StructureError(f"element {self.index} out of range in {self.module.name}")


def _law(law, keys, fails, ranges, narrowed=None):
    """The Violation of a law over the product of ranges, witnessed by the
    first failing args in that order (named by keys), or None. fails(*ranges)
    yields the failing args in that order, the law's test written inline.
    narrowed, when given, are ranges on which the law holds exactly when it
    holds on all of ranges: they are scanned first, and ranges only once they
    fail."""
    if narrowed is not None and next(fails(*narrowed), None) is None:
        return None
    bad = next(fails(*ranges), None)
    return None if bad is None else Violation(law, ",".join(f"{k}={v}" for k, v in zip(keys, bad)))


def _monoid_violations(size, add, zero, label, adds=None):
    """Commutative-monoid laws with one witness per violated law; (a+b)+c =
    a+(b+c) is checked for c in adds, additive generators, when given."""
    rng = range(size)
    neutral = _law(f"{label} zero not neutral for addition", "a",
                   lambda A: ((a,) for a in A if add[a][zero] != a or add[zero][a] != a), (rng,))
    laws = (
        _law(f"{label} addition not commutative", "ab",
             lambda A, B: ((a, b) for a in A for ra in (add[a],) for b in B
                           if ra[b] != add[b][a]), (rng, rng)),
        _law(f"{label} addition not associative", "abc",
             lambda A, B, C: ((a, b, c) for a in A for ra in (add[a],)
                              for b in B for rb in (add[b],) for rab in (add[ra[b]],)
                              for c in C if rab[c] != ra[rb[c]]), (rng,) * 3,
             None if neutral or adds is None else (rng, rng, adds)),
        neutral)
    return [v for v in laws if v]


def _spanning(s: Semiring, fixed, tables):
    """The elements of s, in order, that the closure of fixed and the earlier
    ones under the operations `tables` misses: a generating set over fixed."""
    reach, gens = set(), []

    def close(x):
        reach.add(x)
        todo = [x]
        while todo:
            a = todo.pop()
            for b in tuple(reach):
                for t in tables:
                    for c in (t[a][b], t[b][a]):
                        if c not in reach:
                            reach.add(c)
                            todo.append(c)

    for x in fixed:
        close(x)
    for x in range(s.size):
        if x not in reach:
            gens.append(x)
            close(x)
    return tuple(gens)


@lru_cache(maxsize=None)
def generators(s: Semiring):
    """(A, G): A generates (S, +) with 0, G generates S under + and * with 0
    and 1, each picked greedily in element order; None unless s validates."""
    if not _semiring_validates(s):
        return None
    return _spanning(s, (s.zero,), (s.add,)), _spanning(s, (s.zero, s.one), (s.add, s.mul))


def validate_semiring(s: Semiring) -> ValidationReport:
    """Check every semiring law, returning all violated laws with witnesses."""
    add, mul, zero, one = s.add, s.mul, s.zero, s.one
    rng = range(s.size)
    full = (rng,) * 3
    adds = _spanning(s, (zero,), (add,))
    monoid = _monoid_violations(s.size, add, zero, "semiring", adds)
    absorbing = _law("zero not absorbing", "a",
                     lambda A: ((a,) for a in A if mul[zero][a] != zero or mul[a][zero] != zero),
                     (rng,))
    on_gens = None if monoid or absorbing else (rng, rng, adds)
    left = _law("left distributivity fails", "abc",
                lambda A, B, C: ((a, b, c) for a in A for ma in (mul[a],)
                                 for b in B for rb in (add[b],) for mab in (add[ma[b]],)
                                 for c in C if ma[rb[c]] != mab[ma[c]]),
                full, on_gens)
    right = _law("right distributivity fails", "abc",
                 lambda A, B, C: ((a, b, c) for a in A for b in B for rb in (add[b],)
                                  for mba in (add[mul[b][a]],)
                                  for c in C if mul[rb[c]][a] != mba[mul[c][a]]),
                 full, on_gens)
    laws = (
        _law("multiplication not associative", "abc",
             lambda A, B, C: ((a, b, c) for a in A for ma in (mul[a],)
                              for b in B for mb in (mul[b],) for mab in (mul[ma[b]],)
                              for c in C if mab[c] != ma[mb[c]]),
             full, None if on_gens is None or left or right else (adds,) * 3),
        _law("one not neutral for multiplication", "a",
             lambda A: ((a,) for a in A if mul[a][one] != a or mul[one][a] != a), (rng,)),
        left, right, absorbing,
        Violation("zero equals one", f"zero={zero}") if zero == one else None)
    return ValidationReport(f"semiring {s.name}", tuple(monoid + [v for v in laws if v]))


def validate_semimodule(m: Semimodule) -> ValidationReport:
    """Check every right-semimodule law over the module's semiring."""
    s = m.semiring
    add, act, zero = m.add, m.action, m.zero
    sadd, smul, one = s.add, s.mul, s.one
    mrng, srng = range(m.size), range(s.size)
    monoid = _monoid_violations(m.size, add, zero, "module")
    unit = _law("m.1 != m", "m", lambda A: ((a,) for a in A if act[a][one] != a), (mrng,))
    scalar_zero = _law("m.0_S != 0_M", "m",
                       lambda A: ((a,) for a in A if act[a][s.zero] != zero), (mrng,))
    gens = None if monoid or unit or scalar_zero else generators(s)
    sums = _law("m(s+s') != ms+ms'", "mst",
                lambda A, X, Y: ((a, x, y) for a in A for ra in (act[a],)
                                 for x in X for sx in (sadd[x],) for ax in (add[ra[x]],)
                                 for y in Y if ra[sx[y]] != ax[ra[y]]),
                (mrng, srng, srng), None if gens is None else (mrng, srng, gens[0]))
    products = _law("(ms)s' != m(ss')", "mst",
                    lambda A, X, Y: ((a, x, y) for a in A for ra in (act[a],)
                                     for x in X for rx in (act[ra[x]],) for mx in (smul[x],)
                                     for y in Y if rx[y] != ra[mx[y]]),
                    (mrng, srng, srng), None if gens is None or sums else (mrng, srng, gens[1]))
    laws = (
        products,
        _law("(m+m')s != ms+m's", "mns",
             lambda A, B, X: ((a, b, x) for a in A for ra in (act[a],) for ab in (add[a],)
                              for b in B for rb in (act[b],) for rab in (act[ab[b]],)
                              for x in X if rab[x] != add[ra[x]][rb[x]]),
             (mrng, mrng, srng),
             None if gens is None or sums or products else (mrng, mrng, gens[1])),
        sums, unit, scalar_zero,
        _law("0_M.s != 0_M", "s", lambda X: ((x,) for x in X if act[zero][x] != zero), (srng,)))
    return ValidationReport(f"module {m.name}", tuple(monoid + [v for v in laws if v]))


@lru_cache(maxsize=None)
def _semiring_validates(s: Semiring) -> bool:
    """validate_semiring(s).ok, once per semiring: the builders, generators
    and the parser read this verdict and build the full report only when it
    is False."""
    return validate_semiring(s).ok


@lru_cache(maxsize=None)
def _validates(m: Semimodule) -> bool:
    """validate_semimodule(m).ok, once per table: m is name-free, a
    Semimodule.unnamed or a module built with the name "", so the action
    search and the hom search share one verdict per module."""
    return validate_semimodule(m).ok


def _completions(table, order, values, laws, start, prune=None):
    """Every completion of a partial table that the laws accept, as a tuple,
    in lexicographic order of the cells `order` lists (see the module
    docstring). table is a flat list, None where a cell is unknown, and is
    filled in place; the laws of the known cells in start run first. A hook
    prune(table), if given, runs after the laws before each branch (never on
    a complete table): True drops the partial table and all its completions."""
    trail = list(start)

    def put(c, v):
        table[c] = v
        trail.append(c)

    # frames: (branch cell, its values left, trail length before it, next index of order)
    frames, i, j, end = [], 0, 0, len(order)
    while True:
        while j < len(trail) and laws(table, trail[j], put):  # run the laws of trail[j:]
            j += 1
        if j == len(trail):
            while i < end and table[order[i]] is not None:
                i += 1
            if i == end:
                yield tuple(table)
            elif prune is None or not prune(table):
                frames.append((order[i], iter(values), len(trail), i + 1))
        while frames:  # undo to the deepest branch cell with a value left, and set it
            k, vs, j, i = frames[-1]
            while len(trail) > j:
                table[trail.pop()] = None
            v = next(vs, None)
            if v is not None:
                table[k] = v
                trail.append(k)
                break
            frames.pop()
        else:
            return


def _cancellable(M: Semimodule, m) -> bool:
    """True iff m + x = m + y forces x = y in M: row m of the add table
    repeats no value."""
    row = M.add[m]
    return len(set(row)) == len(row)


def is_cancellable(el: Element) -> bool:
    """True iff el + x = el + y forces x = y."""
    return _cancellable(el.module, el.index)


def is_cancellative_module(M: Semimodule) -> bool:
    return all(_cancellable(M, m) for m in M.elements())


def subtractive_closure_set(M: Semimodule, members) -> frozenset:
    """{m | m + x1 = x2 for some x1, x2 in members}, as a plain set."""
    inside = set(members)
    out = set()
    for m in M.elements():
        if any(M.add[m][x1] in inside for x1 in inside):
            out.add(m)
    return frozenset(out)


def subtractive_closure(X: Subsemimodule) -> Subsemimodule:
    return Subsemimodule(X.parent, tuple(sorted(subtractive_closure_set(X.parent, X.members))))


def is_subtractive(X: Subsemimodule) -> bool:
    return set(X.members) == subtractive_closure_set(X.parent, X.members)


def all_subsemimodules(M: Semimodule):
    """Every subsemimodule, ordered by (size, members)."""
    from itertools import combinations

    rest = [m for m in M.elements() if m != M.zero]
    out = []
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            members = {M.zero, *extra}
            if all(M.add[a][b] in members for a in members for b in members) and \
               all(M.action[a][s] in members for a in members for s in range(M.semiring.size)):
                out.append(Subsemimodule._trusted(M, tuple(sorted(members))))  # closed: tested
    out.sort(key=lambda X: (len(X.members), X.members))
    return out


# ---------------------------------------------------------------- builders

@lru_cache(maxsize=None)
def _kept(s: Semiring) -> Semiring:
    """The first semiring equal to s that this process kept: one object per
    semiring value, so a cache keyed on modules over it compares the
    semiring by identity instead of walking its tables."""
    return s


def _built(s: Semiring) -> Semiring:
    s = _kept(s)
    if not _semiring_validates(s):
        raise LemmaRefuted(f"builder produced an invalid semiring:\n{validate_semiring(s)}")
    return s


def make_boolean() -> Semiring:
    """Two-element lattice: OR as addition, AND as multiplication (N(1, 1))."""
    return _natural_quotient("B", 1, 1)


def make_zmod(n: int) -> Semiring:
    """The ring of integers mod n presented as tables (N(0, n))."""
    if n < 2:
        raise ParameterError("make_zmod: n must be >= 2")
    return _natural_quotient(f"Z{n}", 0, n)


def make_saturating_naturals(k: int) -> Semiring:
    """T_k: carrier 0..k with addition and multiplication clamped at k (N(k, 1))."""
    if k < 1:
        raise ParameterError("make_saturating_naturals: k must be >= 1")
    return _natural_quotient(f"T{k}", k, 1)


@lru_cache(maxsize=None)
def make_truncated_minplus(k: int) -> Semiring:
    """Min-plus on 0..k with a top element.

    Index 0 is top (the min-neutral, hence the additive zero); index i >= 1
    carries the value i-1. Addition is min, multiplication is value addition
    clamped at k, with top absorbing.
    """
    if k < 1:
        raise ParameterError("make_truncated_minplus: k must be >= 1")
    n = k + 2
    top = 0

    def val(i):
        return i - 1

    def idx(v):
        return v + 1

    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a == top:
                add[a][b] = b
            elif b == top:
                add[a][b] = a
            else:
                add[a][b] = idx(min(val(a), val(b)))
            if a == top or b == top:
                mul[a][b] = top
            else:
                mul[a][b] = idx(min(val(a) + val(b), k))
    return _built(Semiring(f"minplus{k}", n, add, mul, zero=top, one=idx(0)))


@lru_cache(maxsize=None)
def make_upper_triangular_boolean() -> Semiring:
    """UT2B: the upper-triangular 2x2 Boolean matrices [[a, b], [0, d]] under
    entrywise OR and the matrix product, a semiring whose multiplication is not
    commutative. 0 is the zero matrix, 1 the identity, and the other six
    follow in the lexicographic order of (a, b, d)."""
    order = [(0, 0, 0), (1, 0, 1)]
    order += [x for x in product((0, 1), repeat=3) if x not in order]
    index = {x: i for i, x in enumerate(order)}

    def plus(x, y):
        return index[tuple(p | q for p, q in zip(x, y))]

    def times(x, y):
        (a, b, d), (e, f, h) = x, y
        return index[(a & e, (a & f) | (b & h), d & h)]

    return _built(Semiring("UT2B", 8, [[plus(x, y) for y in order] for x in order],
                           [[times(x, y) for y in order] for x in order]))


@lru_cache(maxsize=None)
def make_product(s1: Semiring, s2: Semiring) -> Semiring:
    """Componentwise product semiring on lexicographically indexed pairs."""
    n1, n2 = s1.size, s2.size

    def pack(a, b):
        return a * n2 + b

    n = n1 * n2
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for a1 in range(n1):
        for a2 in range(n2):
            for b1 in range(n1):
                for b2 in range(n2):
                    i, j = pack(a1, a2), pack(b1, b2)
                    add[i][j] = pack(s1.add[a1][b1], s2.add[a2][b2])
                    mul[i][j] = pack(s1.mul[a1][b1], s2.mul[a2][b2])
    return _built(Semiring(f"{s1.name}x{s2.name}", n, add, mul,
                           zero=pack(s1.zero, s2.zero), one=pack(s1.one, s2.one)))


def make_natural_quotient(index: int, period: int) -> Semiring:
    """Quotient of the natural numbers by identifying index with index+period.

    Carrier 0..index+period-1 with clock arithmetic past the index.
    make_natural_quotient(0, n) is the ring Z/n; make_natural_quotient(k, 1)
    is the saturating semiring T_k.
    """
    if index < 0 or period < 1 or index + period < 2:
        raise ParameterError("make_natural_quotient: need index >= 0, period >= 1, size >= 2")
    return _natural_quotient(f"N{index}_{period}", index, period)


@lru_cache(maxsize=None)
def _natural_quotient(name, index, period) -> Semiring:
    """N(index, period) under name: the one construction of make_natural_quotient,
    make_boolean, make_zmod and make_saturating_naturals."""
    n = index + period

    def rep(x):
        return x if x < n else index + (x - index) % period

    add = [[rep(a + b) for b in range(n)] for a in range(n)]
    mul = [[rep(a * b) for b in range(n)] for a in range(n)]
    return _built(Semiring(name, n, add, mul))


@lru_cache(maxsize=None)
def monoid_semiring(max_size: int) -> Semiring:
    """Smallest natural-quotient semiring acting on every commutative monoid
    with at most max_size elements (index max_size, period lcm(1..max_size))."""
    if max_size < 1:
        raise ParameterError("monoid_semiring: max_size must be >= 1")
    return make_natural_quotient(max_size, math.lcm(*range(1, max_size + 1)))


@lru_cache(maxsize=None)
def _counts_of_one(semiring: Semiring):
    """For each s, the least j with s = 1 + ... + 1 (j ones, 0 for 0_S), or
    None when 1 does not additively generate the semiring."""
    reach = {semiring.zero: 0}
    x = semiring.zero
    while True:
        x = semiring.add[x][semiring.one]
        if x in reach:
            break
        reach[x] = len(reach)
    if len(reach) != semiring.size:
        return None
    return tuple(map(reach.__getitem__, range(semiring.size)))


def natural_action(semiring: Semiring, add, zero=0):
    """Action forced by repeated addition, for semirings additively generated by 1.

    Returns the action table, or None when 1 does not additively generate
    the semiring (then actions are genuinely free choices).
    """
    counts = _counts_of_one(semiring)
    if counts is None:
        return None
    action = []
    for m in range(len(add)):
        folds = [zero]  # folds[j] = m + ... + m, j terms
        for _ in range(max(counts)):
            folds.append(add[folds[-1]][m])
        action.append(tuple(map(folds.__getitem__, counts)))
    return tuple(action)


def module_from_monoid(add, name, semiring=None) -> Semimodule:
    """Wrap a commutative-monoid table as a module with the repeated-addition
    action; the default semiring is monoid_semiring(len(add))."""
    if semiring is None:
        semiring = monoid_semiring(len(add))
    action = natural_action(semiring, add)
    if action is None:
        raise StructureError(
            f"module {name}: semiring {semiring.name} is not additively generated by 1")
    return Semimodule(name, semiring, len(add), freeze_table(add), action)


def self_module(s: Semiring) -> Semimodule:
    """A semiring as a right module over itself (action = multiplication)."""
    return Semimodule(s.name, s, s.size, s.add, s.mul, zero=s.zero)


@lru_cache(maxsize=None)
def zero_module(s: Semiring) -> Semimodule:
    """The one-element module over s, cached per semiring."""
    return Semimodule("0", s, 1, ((0,),), tuple((0,) * s.size for _ in range(1)))
