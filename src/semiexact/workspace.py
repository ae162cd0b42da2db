"""Line-oriented text format for structures, morphisms, sequences, diagrams.

Blocks open with a header line and close with `end`; `#` starts a comment.
Tables are rows of comma-separated indices joined by semicolons. The parser
collects every problem it can find (syntax, dangling reference, axiom
violation, failed hypothesis), each with its file and line, before raising;
a file that cannot be read or is not UTF-8 is an `io` problem at line 0.

A problem that drops a block is raised where it is found and reported once,
by `_Parser.feed`: a `StructureError` as `structural` at the block's header,
a `_Located` as its own kind at its own line, and a `ValueError` as `syntax`
(a value that is not an integer, a malformed, unknown, repeated or missing
header attribute, a missing body key, a body line that is not `key: value`).
A block dropped for a `ValueError` leaves its name free; one dropped for any
other problem claims it, so a later block of that kind and name is a
`duplicate`. Only a morphism's two unknown ends, and a structure's axiom
violations, pile up as several problems of one block.

    semiring T2 size=3
      add: 0,1,2; 1,2,2; 2,2,2
      mul: 0,0,0; 0,1,2; 0,2,2
    end
    module C3 over=T2 size=3
      add: 0,1,2; 1,1,2; 2,2,2
      action: 0,0,0; 0,1,1; 0,2,2
    end
    sub L of=C3 members=0,1
    end
    morphism f from=C3 to=C3 map=0,1,2
    end
    sequence s arrows=f,f
    end
    diagram D
      row 0: C3 f C3
      row 1: C3 f C3
      col 0: C3 f C3
      hyp: surjective f
    end
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (Semimodule, Semiring, Subsemimodule, _kept, _semiring_validates, _validates,
                   validate_semimodule, validate_semiring)
from .errors import HypothesisError, StructureError, WorkspaceError


class Problem(NamedTuple):
    file: str
    line: int
    kind: str  # io | syntax | duplicate | dangling-reference | structural
    #            | axiom-violation | hypothesis
    message: str

    def __str__(self):
        return f"{self.file}:{self.line}: {self.kind}: {self.message}"


class Workspace:
    def __init__(self):
        self.semirings, self.modules, self.subs, self.morphisms = {}, {}, {}, {}
        self.sequences, self.diagrams = {}, {}
        self.origins = {}  # (kind, name) -> "file:line" of its header

    def __eq__(self, other):
        if not isinstance(other, Workspace):
            return NotImplemented
        return (self.semirings == other.semirings and self.modules == other.modules
                and self.subs == other.subs and self.morphisms == other.morphisms
                and self.sequences == other.sequences
                and self._diagram_keys() == other._diagram_keys())

    def _diagram_keys(self):
        return {name: (d.nodes, tuple(sorted(d.horizontals.items(),
                                             key=lambda kv: kv[0])),
                       tuple(sorted(d.verticals.items(), key=lambda kv: kv[0])),
                       tuple(sorted(d.hypotheses)))
                for name, d in self.diagrams.items()}


class _BadValue(ValueError):
    """A value that its key cannot hold, reported at the key's line."""

    def __init__(self, line, message):
        super().__init__(message)
        self.line = line


def _not_integers(line, text, what, tokens):
    """_BadValue at `line`: the value `text` of `what` (say "key 'add'") is
    empty, or the first of its `tokens` that is not an integer is named."""
    if text.strip():
        for token in tokens:
            try:
                int(token)
            except ValueError:
                return _BadValue(line, f"{what}: {token.strip()!r} is not an integer")
    return _BadValue(line, f"{what} is empty")


def _int(line, text, what):
    try:
        return int(text)
    except ValueError:
        raise _not_integers(line, text, what, [text]) from None


def _ints(line, text, what):
    """Comma-separated integers."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise _not_integers(line, text, what, text.split(",")) from None


class _Located(Exception):
    """A problem of `kind` at `line` that drops its block."""

    def __init__(self, kind, message, line):
        super().__init__(message)
        self.kind, self.line = kind, line


class _Memo(dict):
    """fn of each key, computed at its first lookup and kept, unless fn raises."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _parse_table(line, text, what, parsed):
    """Rows of comma-separated integers joined by semicolons, each read once through parsed."""
    rows = [r.strip() for r in text.split(";") if r.strip()]
    try:
        return tuple(map(parsed.__getitem__, rows))
    except ValueError:
        raise _not_integers(line, text, what, ",".join(rows).split(",")) from None


def _parse_attrs(tokens, known):
    attrs = {}
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        if k not in known or k in attrs:
            raise ValueError(f"{'repeated' if k in attrs else 'unknown'} attribute {k!r}")
        attrs[k] = v
    _require("attribute", [k for k in known if k not in attrs])
    return attrs


def _require(what, missing):
    """ValueError naming each missing attribute or body key, if any."""
    if missing:
        raise ValueError(f"missing {what}{'s' if len(missing) > 1 else ''} "
                         + ", ".join(map(repr, missing)))


# the header attributes of each block kind, all required, and the body keys of those
# with `key: value` lines, all required but zero and one
_ATTRS = {"semiring": ("size",), "module": ("over", "size"), "sub": ("of", "members"),
          "morphism": ("from", "to", "map"), "sequence": ("arrows",), "diagram": ()}
_KEYS = {"semiring": ("add", "mul", "zero", "one"), "module": ("add", "action", "zero")}
_OPTIONAL_KEYS = ("zero", "one")
_BLOCKS = tuple(_ATTRS)
_BODYLESS = ("sub", "morphism", "sequence")


class _Parser:
    def __init__(self):
        self.ws = Workspace()
        self.problems = []
        self.rows = _Memo(lambda row: tuple(map(int, row.split(","))))  # each distinct row once

    def error(self, file, line, kind, message):
        self.problems.append(Problem(file, line, kind, message))

    def feed(self, text, file="<input>"):
        lines = text.splitlines()
        i = 0
        while i < len(lines):
            raw = lines[i].split("#", 1)[0].strip()
            i += 1
            if not raw:
                continue
            tokens = raw.split()
            kind = tokens[0]
            header_line = i
            body = []
            if kind not in _BLOCKS:
                self.error(file, header_line, "syntax", f"unknown block {kind!r}")
                continue
            closed = False
            while i < len(lines):
                inner = lines[i].split("#", 1)[0].strip()
                words = inner.split()
                if words and words[0] in _BLOCKS:
                    # the next block's header: leave it to the outer loop
                    self.error(file, header_line, "syntax",
                               f"missing `end` of {kind} block before line {i + 1}")
                    break
                i += 1
                if inner == "end":
                    closed = True
                    break
                if inner:
                    body.append((i, inner))
            else:
                self.error(file, header_line, "syntax", f"unterminated {kind} block")
            if not closed:
                continue
            if kind in _BODYLESS:
                for bline, text in body:
                    self.error(file, bline, "syntax", f"{kind} block takes no body line, got {text!r}")
            if len(tokens) < 2:
                self.error(file, header_line, "syntax", f"{kind} block needs a name")
                continue
            first = self.ws.origins.get((kind, tokens[1]))
            if first is not None:
                self.error(file, header_line, "duplicate",
                           f"{kind} {tokens[1]!r} already defined at {first}")
                continue
            try:
                handler = getattr(self, f"_block_{kind}")
                handler(file, header_line, tokens[1], _parse_attrs(tokens[2:], _ATTRS[kind]), body)
            except (ValueError, IndexError, KeyError) as exc:
                self.error(file, getattr(exc, "line", header_line), "syntax",
                           f"bad {kind} block: {exc}")
                continue  # a block dropped for a ValueError leaves its name free
            except StructureError as exc:
                self.error(file, header_line, "structural", str(exc))
            except _Located as exc:
                self.error(file, exc.line, exc.kind, str(exc))
            self.ws.origins[(kind, tokens[1])] = f"{file}:{header_line}"

    def finish(self):
        if self.problems:
            raise WorkspaceError(self.problems)
        return self.ws

    def _named(self, line, table, name, what):
        if name not in table:
            raise _Located("dangling-reference", f"unknown {what} {name!r}", line)
        return table[name]

    def _body_fields(self, body, keys):
        """The body's `key: value` lines as {key: (line, value)}."""
        fields = {}
        for line, text in body:
            if ":" not in text:
                raise _BadValue(line, f"expected 'key: value', got {text!r}")
            k, v = (x.strip() for x in text.split(":", 1))
            if k in fields or k not in keys:
                raise _Located("syntax", f"repeated key {k!r}, first at line {fields[k][0]}"
                               if k in fields else f"unknown key {k!r}", line)
            fields[k] = (line, v)
        _require("key", [k for k in keys if k not in fields and k not in _OPTIONAL_KEYS])
        return fields

    def _block_semiring(self, file, line, name, attrs, body):
        fields = self._body_fields(body, _KEYS["semiring"])
        s = Semiring._trusted(name, _int(line, attrs["size"], "attribute 'size'"),
                              _parse_table(*fields["add"], "key 'add'", self.rows),
                              _parse_table(*fields["mul"], "key 'mul'", self.rows),
                              _int(*fields["zero"], "key 'zero'") if "zero" in fields else 0,
                              _int(*fields["one"], "key 'one'") if "one" in fields else 1)
        s._check()
        s = _kept(s)
        if not _semiring_validates(s):  # the verdict the builders and generators read
            for v in validate_semiring(s).violations:
                self.error(file, line, "axiom-violation", f"semiring {name}: {v}")
            return
        self.ws.semirings[name] = s

    def _block_module(self, file, line, name, attrs, body):
        over = self._named(line, self.ws.semirings, attrs["over"], "semiring")
        fields = self._body_fields(body, _KEYS["module"])
        m = Semimodule._trusted(name, over, _int(line, attrs["size"], "attribute 'size'"),
                                _parse_table(*fields["add"], "key 'add'", self.rows),
                                _parse_table(*fields["action"], "key 'action'", self.rows),
                                _int(*fields["zero"], "key 'zero'") if "zero" in fields else 0)
        m._check()
        if not _validates(m.unnamed):  # the verdict cache the searches read
            for v in validate_semimodule(m).violations:
                self.error(file, line, "axiom-violation", f"module {name}: {v}")
            return
        self.ws.modules[name] = m

    def _block_sub(self, file, line, name, attrs, body):
        parent = self._named(line, self.ws.modules, attrs["of"], "module")
        self.ws.subs[name] = Subsemimodule(parent, _ints(line, attrs["members"],
                                                         "attribute 'members'"))

    def _block_morphism(self, file, line, name, attrs, body):
        from .morphisms import Morphism  # imported by the first morphism block only

        ends = attrs["from"], attrs["to"]
        unknown = [end for end in ends if end not in self.ws.modules]
        for end in unknown:  # both ends are reported, so neither is raised
            self.error(file, line, "dangling-reference", f"unknown module {end!r}")
        if not unknown:
            dom, cod = (self.ws.modules[end] for end in ends)
            self.ws.morphisms[name] = Morphism(name, dom, cod,
                                               _ints(line, attrs["map"], "attribute 'map'"))

    def _block_sequence(self, file, line, name, attrs, body):
        from .exactness import Sequence  # imported by the first sequence block only

        self.ws.sequences[name] = Sequence(name, tuple(
            self._named(line, self.ws.morphisms, aname.strip(), "morphism")
            for aname in attrs["arrows"].split(",")))

    def _block_diagram(self, file, line, name, attrs, body):
        from .diagrams import Diagram  # imported by the first diagram block only

        rows = {}
        cols = {}
        hyps = []
        for bline, text in body:
            if text.startswith("hyp:"):
                hyps.append((bline, text[4:].strip()))
                continue
            head, _, rest = text.partition(":")
            parts = head.split()
            names = rest.split()
            if len(parts) != 2 or parts[0] not in ("row", "col") or len(names) % 2 == 0:
                raise _Located("syntax", f"bad diagram line {text!r}", bline)
            target = rows if parts[0] == "row" else cols
            index = _int(bline, parts[1], f"{parts[0]} number")
            if index in target:
                raise _Located("syntax", f"repeated diagram line {head!r}, "
                               f"first at line {target[index][0]}", bline)
            target[index] = (bline, names)

        def resolve_chain(bline, names):
            """The chain's modules and morphisms; the first unknown name is raised."""
            chain = [self._named(bline, self.ws.morphisms, nm, "morphism") if j % 2 else
                     self._named(bline, self.ws.modules, nm, "module")
                     for j, nm in enumerate(names)]
            return chain[::2], chain[1::2]

        for k, r in enumerate(sorted(rows)):
            if r != k:  # rows are numbered 0, 1, 2, ... in any order, with no gap
                raise _Located("syntax", f"diagram row {r} where row {k} is due", rows[r][0])
        nodes = []
        horizontals = {}
        verticals = {}
        for r in range(len(rows)):
            objs, maps = resolve_chain(*rows[r])
            nodes.append(objs)
            for c, f in enumerate(maps):
                horizontals[(r, c)] = f
        for c in sorted(cols):
            bline, names = cols[c]
            span = len(names) // 2 + 1  # the rows the column runs through
            if span > len(nodes) or not all(0 <= c < len(row) for row in nodes[:span]):
                raise _Located("structural", f"diagram {name}: col {c} is past the grid", bline)
            objs, maps = resolve_chain(bline, names)
            for r, f in enumerate(maps):
                if (f.domain, f.codomain) != (objs[r], objs[r + 1]):
                    left, arrow, right = names[2 * r:2 * r + 3]
                    raise _Located("structural", f"diagram {name}: col {c} reads {left} {arrow} "
                                   f"{right}, but {arrow} runs {f.domain.name} -> "
                                   f"{f.codomain.name}", bline)
                verticals[(r, c)] = f
        at = line  # shape and square failures are the header's, a tag's its own
        try:
            d = Diagram(name, nodes, horizontals, verticals)
            for at, tag in hyps:
                d.declare(tag)
        except StructureError as exc:
            raise _Located("structural", str(exc), at)
        except HypothesisError as exc:
            raise _Located("hypothesis", str(exc), at)
        self.ws.diagrams[name] = d


def parse(text, file="<input>") -> Workspace:
    p = _Parser()
    p.feed(text, file)
    return p.finish()


def parse_files(paths) -> Workspace:
    p = _Parser()
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            p.error(str(path), 0, "io", getattr(exc, "strerror", None) or str(exc))
            continue
        p.feed(text, str(path))
    return p.finish()


def serialize(ws: Workspace) -> str:
    """Canonical text for a workspace; parse(serialize(ws)) == ws.

    A diagram the format cannot write is refused with a StructureError naming
    it: a row with a missing horizontal, or a column whose verticals do not
    run from row 0 without a gap (each `row` and `col` line is a full chain).
    So is a part that refers to a semiring, module or morphism the workspace
    lacks, a dangling reference that only code can build.
    """
    def names(kind, table):
        """part, value -> the name of value in table; StructureError naming
        part when the workspace lacks it."""
        def name(part, value):
            if value not in table:
                raise StructureError(f"{part}: {kind} {value.name} is not in the workspace")
            return table[value]
        return name

    out = []
    rows = _Memo(lambda row: ",".join(map(str, row)))  # each distinct row printed once
    printed = _Memo(lambda table: "; ".join(map(rows.__getitem__, table)))
    for name in sorted(ws.semirings):
        s = ws.semirings[name]
        out.append(f"semiring {name} size={s.size}")
        out.append(f"  zero: {s.zero}")
        out.append(f"  one: {s.one}")
        out.append(f"  add: {printed[s.add]}")
        out.append(f"  mul: {printed[s.mul]}")
        out.append("end")
    semiring_name = names("semiring", {v: k for k, v in reversed(ws.semirings.items())})
    for name in sorted(ws.modules):
        m = ws.modules[name]
        out.append(f"module {name} over={semiring_name(f'module {name}', m.semiring)} "
                   f"size={m.size}")
        out.append(f"  zero: {m.zero}")
        out.append(f"  add: {printed[m.add]}")
        out.append(f"  action: {printed[m.action]}")
        out.append("end")
    module_name = names("module", {v: k for k, v in ws.modules.items()})
    for name in sorted(ws.subs):
        x, part = ws.subs[name], f"sub {name}"
        out.append(f"sub {name} of={module_name(part, x.parent)} "
                   f"members={','.join(str(i) for i in x.members)}")
        out.append("end")
    for name in sorted(ws.morphisms):
        f, part = ws.morphisms[name], f"morphism {name}"
        out.append(f"morphism {name} from={module_name(part, f.domain)} "
                   f"to={module_name(part, f.codomain)} map={','.join(str(v) for v in f.map)}")
        out.append("end")
    morphism_name = names("morphism", {v: k for k, v in ws.morphisms.items()})
    for name in sorted(ws.sequences):
        seq, part = ws.sequences[name], f"sequence {name}"
        out.append(f"sequence {name} "
                   f"arrows={','.join(morphism_name(part, a) for a in seq.arrows)}")
        out.append("end")
    for name in sorted(ws.diagrams):
        d, part = ws.diagrams[name], f"diagram {name}"
        out.append(f"diagram {name}")
        for r, row in enumerate(d.nodes):
            parts = [module_name(part, row[0])]
            for c in range(len(row) - 1):
                if (r, c) not in d.horizontals:
                    raise StructureError(f"diagram {name}: row {r} has no horizontal at "
                                         f"column {c}")
                parts.append(morphism_name(part, d.horizontals[(r, c)]))
                parts.append(module_name(part, row[c + 1]))
            out.append(f"  row {r}: {' '.join(parts)}")
        by_col = {}
        for (r, c), f in sorted(d.verticals.items()):
            by_col.setdefault(c, []).append((r, f))
        for c in sorted(by_col):
            chain = by_col[c]
            gap = next((k for k, (r, _) in enumerate(chain) if r != k), None)
            if gap is not None:
                raise StructureError(f"diagram {name}: col {c} has no vertical at row {gap}")
            parts = [module_name(part, chain[0][1].domain)]
            for _, f in chain:
                parts.append(morphism_name(part, f))
                parts.append(module_name(part, f.codomain))
            out.append(f"  col {c}: {' '.join(parts)}")
        for tag in d.hypotheses:
            out.append(f"  hyp: {tag}")
        out.append("end")
    return "\n".join(out) + "\n"
