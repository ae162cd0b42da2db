"""Line-oriented text format for structures, morphisms, sequences, diagrams.

Blocks open with a header line and close with `end`; `#` starts a comment.
Tables are rows of comma-separated indices joined by semicolons. The parser
collects every problem it can find (syntax, dangling reference, axiom
violation, failed hypothesis), each with its file and line, before raising;
a file that cannot be read or is not UTF-8 is an `io` problem at line 0.

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
      col 0: C3 f C3
      hyp: surjective f
    end
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (Semimodule, Semiring, Subsemimodule, _validates, validate_semimodule,
                   validate_semiring)
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


def _parse_table(text):
    rows = [r.strip() for r in text.split(";") if r.strip()]
    return tuple(tuple(int(x) for x in row.split(",")) for row in rows)


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
            try:
                first = self.ws.origins.get((kind, tokens[1]))
                if first is not None:
                    self.error(file, header_line, "duplicate",
                               f"{kind} {tokens[1]!r} already defined at {first}")
                    continue
                handler = getattr(self, f"_block_{kind}")
                handler(file, header_line, tokens[1], _parse_attrs(tokens[2:], _ATTRS[kind]), body)
                self.ws.origins[(kind, tokens[1])] = f"{file}:{header_line}"
            except (ValueError, IndexError, KeyError) as exc:
                self.error(file, header_line, "syntax", f"bad {kind} block: {exc}")

    def finish(self):
        if self.problems:
            raise WorkspaceError(self.problems)
        return self.ws

    def _named(self, file, line, table, name, what):
        if name not in table:
            self.error(file, line, "dangling-reference", f"unknown {what} {name!r}")
            return None
        return table[name]

    def _body_fields(self, file, body, keys):
        """The body's `key: value` lines as {key: (line, value)}; None once an
        unknown or repeated key is reported at its line."""
        fields = {}
        for line, text in body:
            if ":" not in text:
                raise ValueError(f"line {line}: expected 'key: value'")
            k, v = (x.strip() for x in text.split(":", 1))
            if k in fields or k not in keys:
                self.error(file, line, "syntax", f"repeated key {k!r}, first at line {fields[k][0]}"
                           if k in fields else f"unknown key {k!r}")
                return None
            fields[k] = (line, v)
        _require("key", [k for k in keys if k not in fields and k not in _OPTIONAL_KEYS])
        return fields

    def _block_semiring(self, file, line, name, attrs, body):
        fields = self._body_fields(file, body, _KEYS["semiring"])
        if fields is None:
            return
        try:
            s = Semiring(name, int(attrs["size"]),
                         _parse_table(fields["add"][1]),
                         _parse_table(fields["mul"][1]),
                         zero=int(fields["zero"][1]) if "zero" in fields else 0,
                         one=int(fields["one"][1]) if "one" in fields else 1)
        except StructureError as exc:
            self.error(file, line, "structural", str(exc))
            return
        report = validate_semiring(s)
        if not report.ok:
            for v in report.violations:
                self.error(file, line, "axiom-violation", f"semiring {name}: {v}")
            return
        self.ws.semirings[name] = s

    def _block_module(self, file, line, name, attrs, body):
        over = self._named(file, line, self.ws.semirings, attrs["over"], "semiring")
        if over is None:
            return
        fields = self._body_fields(file, body, _KEYS["module"])
        if fields is None:
            return
        try:
            m = Semimodule(name, over, int(attrs["size"]),
                           _parse_table(fields["add"][1]),
                           _parse_table(fields["action"][1]),
                           zero=int(fields["zero"][1]) if "zero" in fields else 0)
        except StructureError as exc:
            self.error(file, line, "structural", str(exc))
            return
        if not _validates(m.unnamed):  # the verdict cache the searches read
            for v in validate_semimodule(m).violations:
                self.error(file, line, "axiom-violation", f"module {name}: {v}")
            return
        self.ws.modules[name] = m

    def _block_sub(self, file, line, name, attrs, body):
        parent = self._named(file, line, self.ws.modules, attrs["of"], "module")
        if parent is None:
            return
        members = tuple(int(x) for x in attrs["members"].split(","))
        try:
            self.ws.subs[name] = Subsemimodule(parent, members)
        except StructureError as exc:
            self.error(file, line, "structural", str(exc))

    def _block_morphism(self, file, line, name, attrs, body):
        from .morphisms import Morphism  # imported by the first morphism block only

        dom = self._named(file, line, self.ws.modules, attrs["from"], "module")
        cod = self._named(file, line, self.ws.modules, attrs["to"], "module")
        if dom is None or cod is None:
            return
        table = tuple(int(x) for x in attrs["map"].split(","))
        try:
            self.ws.morphisms[name] = Morphism(name, dom, cod, table)
        except StructureError as exc:
            self.error(file, line, "structural", str(exc))

    def _block_sequence(self, file, line, name, attrs, body):
        from .exactness import Sequence  # imported by the first sequence block only

        arrows = []
        for aname in attrs["arrows"].split(","):
            f = self._named(file, line, self.ws.morphisms, aname.strip(), "morphism")
            if f is None:
                return
            arrows.append(f)
        try:
            self.ws.sequences[name] = Sequence(name, tuple(arrows))
        except StructureError as exc:
            self.error(file, line, "structural", str(exc))

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
                self.error(file, bline, "syntax", f"bad diagram line {text!r}")
                return
            target = rows if parts[0] == "row" else cols
            index = int(parts[1])
            if index in target:
                self.error(file, bline, "syntax",
                           f"repeated diagram line {head!r}, first at line {target[index][0]}")
                return
            target[index] = (bline, names)

        def resolve_chain(bline, names):
            objs = []
            maps = []
            for j, nm in enumerate(names):
                table = self.ws.modules if j % 2 == 0 else self.ws.morphisms
                obj = self._named(file, bline, table,
                                  nm, "module" if j % 2 == 0 else "morphism")
                if obj is None:
                    return None
                (objs if j % 2 == 0 else maps).append(obj)
            return objs, maps

        nodes = []
        horizontals = {}
        verticals = {}
        for r in sorted(rows):
            resolved = resolve_chain(*rows[r])
            if resolved is None:
                return
            objs, maps = resolved
            nodes.append(objs)
            for c, f in enumerate(maps):
                horizontals[(r, c)] = f
        for c in sorted(cols):
            resolved = resolve_chain(*cols[c])
            if resolved is None:
                return
            objs, maps = resolved
            for r, f in enumerate(maps):
                verticals[(r, c)] = f
        at = line  # shape and square failures are the header's, a tag's its own
        try:
            d = Diagram(name, nodes, horizontals, verticals)
            for at, tag in hyps:
                d.declare(tag)
        except StructureError as exc:
            self.error(file, at, "structural", str(exc))
        except HypothesisError as exc:
            self.error(file, at, "hypothesis", str(exc))
        else:
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


def _fmt_table(table):
    return "; ".join(",".join(str(x) for x in row) for row in table)


def serialize(ws: Workspace) -> str:
    """Canonical text for a workspace; parse(serialize(ws)) == ws."""
    out = []
    for name in sorted(ws.semirings):
        s = ws.semirings[name]
        out.append(f"semiring {name} size={s.size}")
        out.append(f"  zero: {s.zero}")
        out.append(f"  one: {s.one}")
        out.append(f"  add: {_fmt_table(s.add)}")
        out.append(f"  mul: {_fmt_table(s.mul)}")
        out.append("end")
    for name in sorted(ws.modules):
        m = ws.modules[name]
        over = next(k for k, v in ws.semirings.items() if v == m.semiring)
        out.append(f"module {name} over={over} size={m.size}")
        out.append(f"  zero: {m.zero}")
        out.append(f"  add: {_fmt_table(m.add)}")
        out.append(f"  action: {_fmt_table(m.action)}")
        out.append("end")
    module_name = {v: k for k, v in ws.modules.items()}
    for name in sorted(ws.subs):
        x = ws.subs[name]
        out.append(f"sub {name} of={module_name[x.parent]} "
                   f"members={','.join(str(i) for i in x.members)}")
        out.append("end")
    for name in sorted(ws.morphisms):
        f = ws.morphisms[name]
        out.append(f"morphism {name} from={module_name[f.domain]} "
                   f"to={module_name[f.codomain]} map={','.join(str(v) for v in f.map)}")
        out.append("end")
    morphism_name = {v: k for k, v in ws.morphisms.items()}
    for name in sorted(ws.sequences):
        seq = ws.sequences[name]
        out.append(f"sequence {name} arrows={','.join(morphism_name[a] for a in seq.arrows)}")
        out.append("end")
    for name in sorted(ws.diagrams):
        d = ws.diagrams[name]
        out.append(f"diagram {name}")
        for r, row in enumerate(d.nodes):
            parts = [module_name[row[0]]]
            for c in range(len(row) - 1):
                parts.append(morphism_name[d.horizontals[(r, c)]])
                parts.append(module_name[row[c + 1]])
            out.append(f"  row {r}: {' '.join(parts)}")
        by_col = {}
        for (r, c), f in sorted(d.verticals.items()):
            by_col.setdefault(c, []).append((r, f))
        for c in sorted(by_col):
            chain = by_col[c]
            parts = [module_name[chain[0][1].domain]]
            for _, f in chain:
                parts.append(morphism_name[f])
                parts.append(module_name[f.codomain])
            out.append(f"  col {c}: {' '.join(parts)}")
        for tag in d.hypotheses:
            out.append(f"  hyp: {tag}")
        out.append("end")
    return "\n".join(out) + "\n"
