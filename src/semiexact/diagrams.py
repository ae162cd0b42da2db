"""Commutative diagrams and mechanical verifiers for the homological lemmas.

Every lemma clause is one entry of CLAUSES: its grid shape, its ordered
hypotheses and its ordered conclusions, each a Claim over named parts of
the grid (an assertion id, a test and the witness reported when the test
fails; a conclusion may carry a condition), and the tag its harness
generator names diagrams by. One interpreter, verify(), reads the table:
it re-checks every hypothesis from the raw tables (raising HypothesisError
at the first that fails) and only then evaluates the conclusions, returning
a certificate that carries a witness for anything that failed. A failed
conclusion on a hypothesis-satisfying instance is an implementation bug,
never new mathematics. The harness derives its clause filters from the same
entries (Clause.filter), and the CLI's lemma names are the table's keys.
Exactness, in a clause, a declared hypothesis tag or a snake certificate, is
decided by morphisms.exact_at, through exact_row and short_exact_row.

Grid layout: nodes[r][c] with horizontals (r,c): nodes[r][c] -> nodes[r][c+1]
and verticals (r,c): nodes[r][c] -> nodes[r+1][c].
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import eq, itemgetter
from typing import Callable, NamedTuple

from .core import _cancellable, is_cancellative_module, subtractive_closure_set
from .errors import HypothesisError, LemmaRefuted, StructureError
from .morphisms import (PREDICATES, Morphism, _table, classify, cokernel, exact_at, exact_row,
                        factor_through_injection, factor_through_surjection, image_set,
                        is_cancellative_morphism, is_injective, is_k_uniform, is_surjective,
                        kernel_module, kernel_set, short_exact_row)


class Assertion(NamedTuple):
    id: str
    ok: bool
    witness: str = "-"


class Certificate(NamedTuple):
    lemma: str
    hypotheses: tuple
    conclusions: tuple

    @property
    def ok(self):
        return all(a.ok for a in self.conclusions)

    def failures(self):
        return tuple(a for a in self.conclusions if not a.ok)


def _certificate(lemma, *checks):
    """The Certificate of a snake clause with these checks (id, ok, witness)
    as its conclusions, in order; a check's witness is reported only where
    it fails."""
    return Certificate(lemma, (), tuple(Assertion(aid, bool(ok), "-" if ok else witness)
                                        for aid, ok, witness in checks))


# The part of the grid a declared hypothesis tag names, where it is no morphism.
_TAGS = {"row-exact": "row", "col-exact": "column", "cancellative": "module"}


class Diagram:
    """Labeled grid of semimodules and morphisms.

    Every complete square is checked to commute on the nose at
    construction time, and declare re-verifies each hypothesis tag; both
    failures raise HypothesisError. The parts tuple is kept: from_arrows
    keeps the arrows it is handed, already in parts() order, and any other
    grid sorts its keys once, when parts() is first read. The arrow dicts
    are never changed after construction.
    """

    def __init__(self, name, nodes, horizontals, verticals):
        self.name = name
        self.nodes = tuple(tuple(row) for row in nodes)
        self.horizontals = dict(horizontals)
        self.verticals = dict(verticals)
        self.hypotheses = ()
        self.rows = len(self.nodes)
        self.cols = max((len(r) for r in self.nodes), default=0)
        self._validate_shape()
        self._check_squares()

    @classmethod
    def from_arrows(cls, name, row_arrows, gap_verticals):
        """Build a full grid from per-row horizontal lists and per-gap vertical lists."""
        nodes = []
        horizontals = {}
        verticals = {}
        for r, arrows in enumerate(row_arrows):
            row = [arrows[0].domain] + [a.codomain for a in arrows]
            nodes.append(row)
            for c, a in enumerate(arrows):
                horizontals[(r, c)] = a
        for r, verts in enumerate(gap_verticals):
            for c, v in enumerate(verts):
                verticals[(r, c)] = v
        d = cls(name, nodes, horizontals, verticals)
        d._parts = (*horizontals.values(), *verticals.values())  # keys went in sorted
        return d

    def node(self, r, c):
        return self.nodes[r][c]

    def horizontal(self, r, c):
        return self.horizontals[(r, c)]

    def vertical(self, r, c):
        return self.verticals[(r, c)]

    _parts = None

    def parts(self):
        """The arrows, horizontals row by row and then verticals row by row:
        on a full grid, the order of the part names in _PART_NAMES."""
        if self._parts is None:
            self._parts = (tuple(self.horizontals[k] for k in sorted(self.horizontals))
                           + tuple(self.verticals[k] for k in sorted(self.verticals)))
        return self._parts

    def _validate_shape(self):
        nodes, rows = self.nodes, self.rows
        for (r, c), f in self.horizontals.items():
            if not (0 <= r < rows and 0 <= c < len(nodes[r]) - 1) \
                    or f.domain != nodes[r][c] or f.codomain != nodes[r][c + 1]:
                raise StructureError(
                    f"diagram {self.name}: horizontal at ({r},{c}) does not match its nodes")
        for (r, c), f in self.verticals.items():
            if not (0 <= r < rows - 1 and 0 <= c < len(nodes[r]) and c < len(nodes[r + 1])) \
                    or f.domain != nodes[r][c] or f.codomain != nodes[r + 1][c]:
                raise StructureError(
                    f"diagram {self.name}: vertical at ({r},{c}) does not match its nodes")

    def _check_squares(self):
        for (r, c) in self.horizontals:
            if (r, c) in self.verticals and (r, c + 1) in self.verticals \
                    and (r + 1, c) in self.horizontals:
                top = self.horizontals[(r, c)]
                bottom = self.horizontals[(r + 1, c)]
                left = self.verticals[(r, c)]
                right = self.verticals[(r, c + 1)]
                down_then_right = _table(bottom, left)
                right_then_down = _table(right, top)
                if down_then_right != right_then_down:
                    bad = next(x for x in range(top.domain.size)
                               if down_then_right[x] != right_then_down[x])
                    raise HypothesisError(
                        f"diagram {self.name}: square ({r},{c}) does not commute",
                        f"element {bad} of {top.domain.name}")

    def _part(self, what, name):
        """The arrows of row or column `name`, or the module or morphism of
        that name; None where the grid has none, or a gap in the line."""
        if what == "module":
            found = (m for row in self.nodes for m in row if m is not None and m.name == name)
            return next(found, None)
        if what == "morphism":
            return next((f for f in self.parts() if f.name == name), None)
        if not name.isdecimal():
            return None
        i = int(name)
        if what == "row":
            keys = [(i, c) for c in range(len(self.nodes[i]) - 1 if i < self.rows else 0)]
        else:
            keys = [(r, i) for r in range(self.rows - 1)]
        arrows = self.horizontals if what == "row" else self.verticals
        return [arrows[k] for k in keys] if keys and all(k in arrows for k in keys) else None

    def declare(self, tag):
        """Re-verify the hypothesis tag and add it to the declared ones:
        HypothesisError when it fails, StructureError as check_tag."""
        ok, witness = self.check_tag(tag)
        if not ok:
            raise HypothesisError(f"diagram {self.name}: declared '{tag}'", witness)
        self.hypotheses += (tag,)

    def check_tag(self, tag):
        """Re-verify one declared hypothesis tag; (ok, witness). StructureError
        for an unknown kind, and then for an argument that names no part."""
        kind, *args = tag.split() or [""]
        if kind == "commutes":
            return True, "-"  # squares are always re-checked at construction
        what = _TAGS.get(kind, "morphism" if kind in PREDICATES else None)
        if what is None:
            raise StructureError(f"diagram {self.name}: unknown hypothesis tag {tag!r}")
        part = self._part(what, args[0]) if args else None
        if part is None:
            raise StructureError(f"diagram {self.name}: hypothesis tag {tag!r} names no {what}")
        if what in ("row", "column"):
            return exact_row(part)[0], f"{kind} {args[0]} fails"
        if what == "module":
            return is_cancellative_module(part), f"module {args[0]} not cancellative"
        return PREDICATES[kind](part), f"{kind} {args[0]} fails"


def _require_grid(d: Diagram, rows, cols, lemma):
    if d.rows != rows or any(len(r) != cols for r in d.nodes):
        raise StructureError(f"{lemma}: expected a {rows}x{cols} diagram, got {d.name}")
    # every arrow matched its nodes at construction, so a full count is a full grid
    if len(d.horizontals) == rows * (cols - 1) and len(d.verticals) == (rows - 1) * cols:
        return
    for r in range(rows):
        for c in range(cols - 1):
            if (r, c) not in d.horizontals:
                raise StructureError(f"{lemma}: missing horizontal at ({r},{c})")
    for r in range(rows - 1):
        for c in range(cols):
            if (r, c) not in d.verticals:
                raise StructureError(f"{lemma}: missing vertical at ({r},{c})")


# ------------------------------------------------------------ the clause table

# Part names of each grid, in the order of Diagram.parts() and of the arrow
# tuples the harness filters: the horizontals row by row, then the verticals.
_PART_NAMES = {
    (2, 3): "f1 g1 f2 g2 alpha1 alpha2 alpha3".split(),
    (2, 5): "d1 f1 g1 h1 d2 f2 g2 h2 gamma alpha1 alpha2 alpha3 delta".split(),
    (3, 3): "f1 g1 f2 g2 f3 g3 alpha1 alpha2 alpha3 beta1 beta2 beta3".split(),
}
_ORDINALS = {"first": 1, "second": 2, "third": 3, "left": 1, "middle": 2, "right": 3}
_WORDS = {"isomorphism": "iso", "cancellative": "cancellative-morphism"}


class Claim(NamedTuple):
    """A bound assertion: test(parts) -> bool, the witness(parts) reported
    when the test fails and, for a conclusion, an optional condition
    when(parts) under which it is asserted at all. A claim that reads one
    part and has no condition also carries part = (i, predicate), with
    test(parts) == predicate(parts[i])."""
    id: str
    test: Callable
    witness: Callable
    when: Callable = None
    part: tuple = None


class Relation(NamedTuple):
    """Conclusion holds(a, b) on the truth values of assertions a and b,
    witnessed by both: `x=a y=b` for labels "x y"."""
    id: str
    left: str
    right: str
    holds: Callable
    labels: str


def _name(f):
    return f.name


def _uncancellable(f):
    M = f.codomain
    bad = next(m for m in M.elements() if not _cancellable(M, m))
    return f"violated by element {bad} of {M.name}"


def _over(fn, index):
    """fn of the parts at `index`, as a function of a grid's parts tuple."""
    if len(index) == 1:
        i = index[0]
        return lambda p: fn(p[i])
    get = itemgetter(*index)
    return lambda p: fn(*get(p))


@lru_cache(maxsize=None)
def _bind(spec, shape, conclusion=False):
    """The Claim an assertion id states on a grid of this shape, bound once
    per (spec, shape, conclusion) and shared by the clauses that state it.

    spec is the id, an (id, witness) pair overriding the witness, or a
    Relation. The id says what is asserted:
      `<ordinal> row|column exact`, `... exact at middle` or `... short
        exact`: the row's arrows or the column's alphai, betai, by
        morphisms.exact_row (exact_at at every interior object) or
        short_exact_row (`column c short exact` is column c + 1);
      `<ordinal> row: f|g <word>`: fi or gi of that row;
      `Mi cancellative`: the module fi maps into;
      `<part> <word>`, optionally `(<predicate> case)`: a PREDICATES entry
        (`isomorphism` is iso, `cancellative` the morphism kind), asserted
        only where the case predicate holds.
    The witness of a part is its name; of a conclusion, classify's witness
    for the flag where it has one.
    """
    names = _PART_NAMES[shape]
    if isinstance(spec, Relation):
        left, right = _bind(spec.left, shape), _bind(spec.right, shape)
        a, b = spec.labels.split()
        return Claim(spec.id, lambda p: spec.holds(left.test(p), right.test(p)),
                     lambda p: f"{a}={left.test(p)} {b}={right.test(p)}")
    aid, witness = (spec, None) if isinstance(spec, str) else spec
    line = re.fullmatch(r"(?:(\w+) (row|column)|column (\d)) (exact at middle|short exact|exact)",
                        aid)
    if line:
        ordinal, kind, column, how = line.groups()
        i = int(column) + 1 if column else _ORDINALS[ordinal]
        k = shape[1] - 1  # arrows per row
        parts = names[(i - 1) * k:i * k] if kind == "row" else [f"alpha{i}", f"beta{i}"]
        check = short_exact_row if how == "short exact" else lambda *arrows: exact_row(arrows)
        index = tuple(map(names.index, parts))
        return Claim(aid, _over(lambda *a: check(*a)[0], index),
                     _over(lambda *a: check(*a)[1], index))
    if re.fullmatch(r"M\d cancellative", aid):
        i = names.index("f" + aid[1])

        def into_cancellative(f):
            return is_cancellative_module(f.codomain)
        return Claim(aid, _over(into_cancellative, (i,)), _over(_uncancellable, (i,)),
                     part=(i, into_cancellative))
    arrow = re.fullmatch(r"(\w+) row: ([fg]) (\S+)", aid)
    if arrow:
        part, word, when = f"{arrow[2]}{_ORDINALS[arrow[1]]}", arrow[3], None
    else:
        part, word, when = re.fullmatch(r"(\S+) (\S+)(?: \((\S+) case\))?", aid).groups()
    flag = word.replace("-", "_")
    if witness is None and conclusion:
        def witness(f):
            return dict(classify(f).witnesses).get(flag) or f.name
    i = names.index(part)
    test = PREDICATES[_WORDS.get(word, word)]
    return Claim(aid, _over(test, (i,)), _over(witness or _name, (i,)),
                 when and _over(PREDICATES[when], (i,)), None if when else (i, test))


class Clause:
    """One table entry: grid shape, harness tag, and the ordered hypotheses
    and conclusions, bound to the grid's parts tuple."""

    def __init__(self, shape, tag, hypotheses, conclusions):
        self.shape, self.tag = shape, tag
        self.hypotheses = tuple(_bind(h, shape) for h in hypotheses)
        self.conclusions = tuple(_bind(c, shape, conclusion=True) for c in conclusions)
        self.ids = frozenset(h.id for h in self.hypotheses)
        self._passed = tuple(Assertion(h.id, True) for h in self.hypotheses)

    def gate(self, lemma, parts):
        """The hypotheses' assertions on parts, in order; HypothesisError
        at the first that fails."""
        for h in self.hypotheses:
            if not h.test(parts):
                raise HypothesisError(f"{lemma}: {h.id}", h.witness(parts))
        return self._passed

    def filter(self, guaranteed):
        """parts -> bool: the hypotheses in table order, minus those in
        `guaranteed` (ids a generator's construction already ensures)."""
        return _conjunction([h.test for h in self.hypotheses if h.id not in guaranteed])

    def split(self, guaranteed):
        """filter(guaranteed) in two stages, for a generator that draws some
        parts before others: (tests, keep), where tests[i] is the conjunction
        of the hypotheses that read part i alone (None where there are
        none), to run on part i as soon as it is drawn, and keep(parts) tests
        the other hypotheses on the whole tuple. A tuple passes filter
        exactly when every tests[i] passes on its part and keep passes."""
        single, rest = {}, []
        for h in self.hypotheses:
            if h.id in guaranteed:
                continue
            if h.part is None:
                rest.append(h.test)
            else:
                single.setdefault(h.part[0], []).append(h.part[1])
        tests = tuple(_conjunction(single[i]) if i in single else None
                      for i in range(len(_PART_NAMES[self.shape])))
        return tests, _conjunction(rest)


def _conjunction(tests):
    """x -> bool: every test passes on x, tried in order."""
    if len(tests) == 1:
        return tests[0]

    def holds(x):
        for test in tests:
            if not test(x):
                return False
        return True
    return holds


_ROWS = ("first row exact", "second row exact")
_MIDDLES = ("M1 cancellative", "M2 cancellative")
# top row right exact (L -> M -> N -> 0), bottom row left exact (0 -> L -> M -> N)
_RIGHT_LEFT = ("first row exact at middle", "first row: g surjective",
               "second row: f injective", "second row exact at middle")
_SHORT = (("alpha1 surjective", lambda f: f"{f.name} misses part of {f.codomain.name}"),
          ("alpha3 injective", lambda f: f"{f.name} identifies two elements"))
_FIVE = _ROWS + ("gamma surjective", "delta injective") + _MIDDLES
_COLUMNS = ("left column exact at middle", "middle column exact at middle",
            "right column exact at middle")
_NINE_FIRST = (_COLUMNS[0], "alpha2 injective", _COLUMNS[1], "alpha3 injective",
               _COLUMNS[2], "second row exact")
_NINE_THIRD = (_COLUMNS[0], "beta1 surjective", _COLUMNS[1], "beta2 surjective",
               _COLUMNS[2], "second row exact")
_NINE = ("column 0 short exact", "column 1 short exact", "column 2 short exact",
         "second row short exact", "M2 cancellative", "f3 i-uniform", "g1 i-uniform")


def _i_uniform_iso(aid, holds):
    return Relation(aid, "alpha2 i-uniform", "alpha2 isomorphism", holds, "lhs rhs")


# Keyed by certificate name. Snake is not here: it is a construction. Its
# gates are the clause _SNAKE_GATES, which gen_snake filters by too, and
# snake() builds its own certificates with _certificate.
CLAUSES = {
    # 2x3, alpha1 surjective and alpha3 injective: exactness of one row
    # transfers to the other along the middle vertical.
    "short.1": Clause((2, 3), "short1", _SHORT + ("alpha2 surjective", "first row exact"),
                      ("second row exact",)),
    "short.2": Clause((2, 3), "short2", _SHORT + ("alpha2 injective", "second row exact"),
                      ("first row exact",)),
    "short.3": Clause((2, 3), "short3", _SHORT + ("alpha2 isomorphism",),
                      (Relation("rows equi-exact", *_ROWS, eq, "first second"),)),
    # 2x3 with both rows exact: transfer of injectivity/surjectivity across
    # the verticals.
    "diagram.1a": Clause((2, 3), "diag1a", _ROWS + (
        "g1 surjective", "alpha1 surjective", "alpha2 injective"), ("alpha3 injective",)),
    "diagram.1b": Clause((2, 3), "diag1b", _ROWS + (
        "f2 injective", "alpha3 semi-mono", "alpha2 surjective"),
        (("alpha1 surjective", _name),)),
    "diagram.2a": Clause((2, 3), "diag2a", _ROWS + (
        "f2 semi-mono", "alpha1 semi-mono", "alpha3 semi-mono"), ("alpha2 semi-mono",)),
    "diagram.2b": Clause((2, 3), "diag2b", _ROWS + (
        "f1 cancellative", "alpha2 cancellative", "alpha1 injective", "alpha3 injective",
        "f2 injective"), ("alpha2 injective",)),
    "diagram.3": Clause((2, 3), "diag3", _ROWS + (
        "alpha1 surjective", "alpha3 surjective", "g1 surjective"),
        ("alpha2 semi-epi", "alpha2 surjective (i-uniform case)")),
    # 2x3, top row right exact, bottom row left exact, cancellative middles:
    # isomorphism bookkeeping around the middle vertical.
    "short-five-half.1": Clause((2, 3), "cs5.1", _MIDDLES + _RIGHT_LEFT + (
        "alpha2 isomorphism",), (Relation(
            "alpha1 surjective iff alpha3 injective", "alpha1 surjective", "alpha3 injective",
            eq, "alpha1-surj alpha3-inj"),)),
    "short-five-half.2": Clause((2, 3), "cs5.2", _MIDDLES + _RIGHT_LEFT + (
        "alpha2 i-uniform", "alpha1 isomorphism", "alpha3 isomorphism"),
        ("alpha2 isomorphism",)),
    # Both rows short exact, cancellative middles, outer verticals
    # isomorphisms: the middle vertical is an isomorphism exactly when it is
    # i-uniform. The outer isomorphisms must be hypotheses, not part of the
    # iff: with rows 0 -> 0 -> M -> M -> 0 and 0 -> M -> M -> 0 -> 0 the
    # identity middle is an isomorphism while the outer verticals never are.
    "short-five": Clause((2, 3), "short5", _MIDDLES + (
        "first row: f injective", "first row exact at middle", "first row: g surjective",
        "second row: f injective", "second row exact at middle", "second row: g surjective",
        "alpha1 isomorphism", "alpha3 isomorphism"), (
        _i_uniform_iso("alpha2 i-uniform iff alpha2 iso", eq),
        _i_uniform_iso("i-uniform implies iso", lambda i, o: not i or o),
        _i_uniform_iso("iso implies i-uniform", lambda i, o: not o or i))),
    # 2x5 with exact rows: the four working clauses behind the Five Lemma.
    "five-parts.1a": Clause((2, 5), "fd1a", _ROWS + (
        "gamma surjective", "alpha1 injective", "alpha3 semi-mono"), ("alpha2 semi-mono",)),
    "five-parts.1b": Clause((2, 5), "fd1b", _ROWS + (
        "gamma surjective", "f1 cancellative", "alpha2 cancellative", "alpha1 injective",
        "alpha3 injective"), ("alpha2 injective",)),
    "five-parts.2": Clause((2, 5), "fd2", _ROWS + (
        "delta semi-mono", "alpha1 surjective", "alpha3 surjective"),
        ("alpha2 semi-epi", "alpha2 surjective (i-uniform case)")),
    "five-parts.3": Clause((2, 5), "fd3", _ROWS + (
        "f1 cancellative", "alpha2 cancellative", "gamma surjective", "delta injective",
        "alpha1 isomorphism", "alpha3 isomorphism"), ("alpha2 injective", "alpha2 semi-epi")),
    # The Five Lemma: 2x5 exact rows, surjective left edge, injective right
    # edge, cancellative middles.
    "five.1": Clause((2, 5), "five1", _FIVE + ("alpha1 injective", "alpha3 injective"),
                     ("alpha2 injective",)),
    "five.2": Clause((2, 5), "five2", _FIVE + (
        "alpha2 i-uniform", "alpha1 surjective", "alpha3 surjective"), ("alpha2 surjective",)),
    "five.3": Clause((2, 5), "five3", _FIVE + (
        "alpha2 i-uniform", "alpha1 isomorphism", "alpha3 isomorphism"), (
        ("alpha2 isomorphism", lambda f: "inj={0.injective} surj={0.surjective}".format(
            classify(f))),)),
    # Kernel-side 3x3: columns exact with zeros on top of the middle and
    # right columns, middle row exact.
    "nine-first.1": Clause((3, 3), "nine1.1", _NINE_FIRST + ("f3 injective", "f2 cancellative"),
                           ("first row exact",)),
    "nine-first.2": Clause((3, 3), "nine1.2", _NINE_FIRST + (
        "g2 surjective", "beta1 surjective", "third row exact"),
        ("g1 semi-epi", "g1 surjective (i-uniform case)")),
    # Cokernel-side 3x3: columns exact with zeros under the left and middle
    # columns, middle row exact.
    "nine-third.1": Clause((3, 3), "nine3.1", _NINE_THIRD + ("g1 surjective", "f3 i-uniform"),
                           ("third row exact",)),
    "nine-third.2": Clause((3, 3), "nine3.2", _NINE_THIRD + (
        "f2 injective", "alpha3 injective", "alpha2 cancellative", "first row exact"),
        (("f3 injective", _name),)),
    # The Nine Lemma: short exact columns, short exact middle row,
    # cancellative center, i-uniform f3 and g1.
    "nine.first-from-third": Clause((3, 3), "nine.first-from-third",
                                    _NINE + ("third row short exact",),
                                    ("first row short exact",)),
    "nine.third-from-first": Clause((3, 3), "nine.third-from-first",
                                    _NINE + ("first row short exact",),
                                    ("third row short exact",)),
    "nine.iff": Clause((3, 3), "nine.iff", _NINE, (Relation(
        "first row exact iff third row exact", "first row short exact",
        "third row short exact", eq, "first third"),)),
}


# A family's clause when the caller names none; every other family's id is
# its own table key.
DEFAULT_CLAUSE = {"nine": "iff"}


def clause_key(family, clause=None):
    """The table key of `family`'s `clause`, or of its default clause."""
    clause = DEFAULT_CLAUSE.get(family) if clause is None else clause
    return family if clause is None else f"{family}.{clause}"


def lookup(clause_id, error=StructureError):
    """The table entry for clause_id; raises `error` if there is none."""
    if clause_id not in CLAUSES:
        raise error(f"unknown lemma {clause_id!r}; known: {', '.join(CLAUSES)}")
    return CLAUSES[clause_id]


def verify(clause_id, d: Diagram) -> Certificate:
    """Gate the clause's hypotheses on d, then evaluate its conclusions."""
    clause = lookup(clause_id)
    _require_grid(d, *clause.shape, clause_id)
    parts = d.parts()
    hypotheses = clause.gate(clause_id, parts)
    conclusions = []
    for c in clause.conclusions:
        if c.when is None or c.when(parts):
            ok = bool(c.test(parts))
            conclusions.append(Assertion(c.id, ok, "-" if ok else c.witness(parts)))
    return Certificate(clause_id, hypotheses, tuple(conclusions))


def _entry(family):
    def entry(d, clause=None):
        return verify(clause_key(family, clause), d)
    return entry


# The verifiers by family, as callers name them.
verify_lemma_short = _entry("short")
verify_lemma_diagram = _entry("diagram")
verify_short_five_half = _entry("short-five-half")
verify_short_five = _entry("short-five")
verify_five_parts = _entry("five-parts")
verify_five = _entry("five")
verify_nine_first = _entry("nine-first")
verify_nine_third = _entry("nine-third")
verify_nine = _entry("nine")


# --------------------------------------------------------------- Snake lemma

class SnakeResult(NamedTuple):
    diagram_name: str
    f_k: Morphism
    g_k: Morphism
    f_c: Morphism
    g_c: Morphism
    delta: Morphism
    kernel_inclusions: tuple
    cokernels: tuple
    columns_exact: bool  # strong hypothesis (every vertical uniform) held
    cert_induced: Certificate
    cert_kernel_row: object      # Certificate, or None if f1 not cancellative
    cert_cokernel_row: object    # Certificate, or None if f_C not i-uniform
    cert_delta: Certificate
    cert_four_term: object       # Certificate, or None unless applicable

    @property
    def certificates(self):
        return tuple(c for c in (self.cert_induced, self.cert_kernel_row,
                                 self.cert_cokernel_row, self.cert_delta,
                                 self.cert_four_term) if c is not None)

    @property
    def ok(self):
        return all(c.ok for c in self.certificates)


_SNAKE_GATES = Clause((2, 3), "snake", _RIGHT_LEFT + (
    "alpha1 k-uniform", "alpha3 k-uniform", "alpha2 uniform"), ())


def snake(d: Diagram) -> SnakeResult:
    """Construct the full snake from a 2x3 diagram: top row right-exact,
    bottom row left-exact, weak column hypotheses (outer verticals k-uniform,
    middle vertical uniform).

    The connecting morphism is built by the lifting procedure and validated
    against every admissible lift; its kernel, image and k-uniformity
    certificates follow.
    """
    _require_grid(d, 2, 3, "snake")
    f1, g1, f2, g2, a1, a2, a3 = parts = d.parts()
    _SNAKE_GATES.gate("snake.gates", parts)
    columns_exact = all(classify(a).uniform for a in (a1, a2, a3))

    kmods, kincls = zip(*(kernel_module(a) for a in (a1, a2, a3)))
    cokers = tuple(cokernel(a) for a in (a1, a2, a3))

    def restrict(f, src_incl, dst_incl, name):
        k = factor_through_injection(dst_incl, _table(f, src_incl), src_incl.domain, name)
        if k is None:
            raise LemmaRefuted(f"snake: {name} does not restrict through the kernels")
        return k

    def descend(f, src_q, dst_q, name):
        k = factor_through_surjection(src_q.projection, _table(dst_q.projection, f),
                                      dst_q.quotient, name)
        if k is None:
            raise LemmaRefuted(f"snake: {name} is not well-defined on cokernel classes")
        return k

    f_k = restrict(f1, kincls[0], kincls[1], "f_K")
    g_k = restrict(g1, kincls[1], kincls[2], "g_K")
    f_c = descend(f2, cokers[0], cokers[1], "f_C")
    g_c = descend(g2, cokers[1], cokers[2], "g_C")

    # uniqueness: forced pointwise by injective inclusions / surjective projections
    cert_induced = _certificate(
        "snake.1",
        ("kernel square over f commutes", _table(f1, kincls[0]) == _table(kincls[1], f_k), "-"),
        ("kernel square over g commutes", _table(g1, kincls[1]) == _table(kincls[2], g_k), "-"),
        ("cokernel square under f commutes",
         _table(f_c, cokers[0].projection) == _table(cokers[1].projection, f2), "-"),
        ("cokernel square under g commutes",
         _table(g_c, cokers[1].projection) == _table(cokers[2].projection, g2), "-"),
        ("kernel inclusions injective", all(is_injective(ki) for ki in kincls), "-"),
        ("cokernel projections surjective",
         all(is_surjective(q.projection) for q in cokers), "-"))

    # connecting morphism by exhaustive lifting: each n1 in Ker(alpha3) is
    # g1(m1), and each alpha2(m1) is f2(l2); delta(n1) is the class of l2
    kmod3, project = kmods[2], cokers[0].projection.map
    delta_table, bad_witness = [], "-"
    for ki, n1 in enumerate(kincls[2].map):
        classes = {project[l2] for m1 in g1.domain.elements() if g1.map[m1] == n1
                   for l2 in f2.domain.elements() if f2.map[l2] == a2.map[m1]}
        if not classes:
            raise LemmaRefuted("snake: no admissible lift; gates should prevent this")
        if len(classes) > 1:
            bad_witness = f"kernel element {ki} maps to classes {sorted(classes)}"
        delta_table.append(min(classes))
    try:
        delta = Morphism("delta", kmod3, cokers[0].quotient, delta_table)
    except StructureError as exc:
        raise LemmaRefuted(f"snake: connecting map not linear: {exc}") from exc

    ker_delta = kernel_set(delta)
    closure_gk = subtractive_closure_set(kmod3, image_set(g_k))
    im_delta, ker_fc = image_set(delta), kernel_set(f_c)
    k_ok, k_wit = is_k_uniform(delta, witness=True)
    cert_delta = _certificate(
        "snake.4",
        ("delta independent of lift choice", bad_witness == "-", bad_witness),
        ("Ker(delta) = closure(g_K(Ker alpha2))", ker_delta == closure_gk,
         f"ker={sorted(ker_delta)} closure={sorted(closure_gk)}"),
        ("delta(Ker alpha3) = Ker(f_C)", im_delta == ker_fc,
         f"im={sorted(im_delta)} ker={sorted(ker_fc)}"),
        ("delta k-uniform", k_ok, f"pair {k_wit}"))

    cert_kernel_row = cert_cokernel_row = cert_four_term = None
    if is_cancellative_morphism(f1):
        cert_kernel_row = _certificate(
            "snake.2", ("kernel row exact at Ker(alpha2)", *exact_at(f_k, g_k)))
    if classify(f_c).i_uniform:
        cert_cokernel_row = _certificate(
            "snake.3", ("cokernel row exact at Coker(alpha2)", *exact_at(f_c, g_c)))
    if is_cancellative_morphism(a2) and classify(g_k).i_uniform:
        cert_four_term = _certificate(
            "snake.5", ("four-term sequence exact at Ker(alpha3)", *exact_at(g_k, delta)),
            ("four-term sequence exact at Coker(alpha1)", *exact_at(delta, f_c)))

    return SnakeResult(d.name, f_k, g_k, f_c, g_c, delta, kincls, cokers,
                       columns_exact, cert_induced, cert_kernel_row,
                       cert_cokernel_row, cert_delta, cert_four_term)
