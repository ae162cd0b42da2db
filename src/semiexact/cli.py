"""Command-line front end.

Exit codes: 0 verified/success, 1 refuted or counterexample found,
2 hypothesis or input error. The machine report (--report) is one
pipe-separated record per assertion, `id|status|witness|millis`, sorted by
id; millis is pinned to 0 so reports are byte-identical across runs.

Each command loads only the layers it runs (a corpus export imports neither a
lemma layer nor morphisms, quotients or the catalog), and importing this
module loads neither workspace nor fixtures: _load, cmd_corpus and
_universe_spec, which read or write files or resolve a semiring name, import
them. main builds the parser of the invoked command alone; `lemma --help`
and `search --help` still list every name.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import lru_cache

from . import __version__
from .core import monoid_semiring
from .enumeration import UniverseSpec, enumerate_semimodules
from .errors import (HypothesisError, ParameterError, SemiexactError, StructureError,
                     WorkspaceError)


class Report:
    def __init__(self):
        self.records = []

    def add(self, rid, status, witness="-"):
        witness = str(witness).replace("|", "/").replace("\n", " ") or "-"
        self.records.append((rid, status, witness))

    def machine_text(self):
        lines = [f"# semiexact-report {__version__}"]
        for rid, status, witness in sorted(self.records):
            lines.append(f"{rid}|{status}|{witness}|0")
        return "\n".join(lines) + "\n"


def _write(path, text):
    """Write text to path; ParameterError names the path when that fails."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _say(args, *text):
    if not args.quiet:
        print(*text)


def _load(args):
    from .workspace import Workspace, parse_files

    if not args.files:
        return Workspace()
    return parse_files(args.files)


def _pick(table, name, what):
    if name not in table:
        raise StructureError(f"no {what} named {name!r} in the workspace "
                             f"(have: {', '.join(sorted(table)) or 'none'})")
    return table[name]


def _located(ws, kind, name, check, *args):
    """check(*args); a StructureError or HypothesisError it raises is
    prefixed with the file:line of the named block's header."""
    try:
        return check(*args)
    except StructureError as exc:
        raise StructureError(f"{ws.origins[(kind, name)]}: {exc}") from exc
    except HypothesisError as exc:
        raise HypothesisError(exc.assertion_id, exc.witness,
                              where=ws.origins[(kind, name)]) from exc


def cmd_validate(args, report):
    ws = _load(args)  # parse_files already rejects invalid structures
    for kind, table in (("semiring", ws.semirings), ("module", ws.modules),
                        ("sub", ws.subs), ("morphism", ws.morphisms),
                        ("sequence", ws.sequences), ("diagram", ws.diagrams)):
        for name in sorted(table):
            report.add(f"validate.{kind}.{name}", "ok")
            _say(args, f"{kind} {name}: ok")
    total = sum(len(t) for t in (ws.semirings, ws.modules, ws.subs,
                                 ws.morphisms, ws.sequences, ws.diagrams))
    _say(args, f"workspace ok: {total} definitions")
    return 0


def cmd_classify(args, report):
    from .morphisms import classify

    ws = _load(args)
    f = _pick(ws.morphisms, args.name, "morphism")
    c = classify(f)
    witnesses = dict(c.witnesses)
    _say(args, f"classify {f.name}: {f.domain.name} -> {f.codomain.name}")
    for flag, value in c.flags().items():
        wit = witnesses.get(flag, "-")
        if value is None:
            report.add(f"classify.{args.name}.{flag}", "n/a")
            _say(args, f"  {flag:18} n/a (modules not both cancellative)")
        else:
            report.add(f"classify.{args.name}.{flag}", str(value).lower(), wit)
            suffix = f"  witness: {wit}" if not value and wit != "-" else ""
            _say(args, f"  {flag:18} {str(value).lower()}{suffix}")
    return 0


def cmd_exactness(args, report):
    from .exactness import analyze

    ws = _load(args)
    seq = _pick(ws.sequences, args.name, "sequence")
    v = analyze(seq)
    _say(args, f"sequence {seq.name}: {' -> '.join(o.name for o in seq.objects)}")
    for p in v.positions:
        for flag in ("chain_complex", "semi_exact", "proper_exact", "exact"):
            val = getattr(p, flag)
            report.add(f"exactness.{args.name}.pos{p.position}.{flag}",
                       str(val).lower(), p.witness if not val else "-")
        _say(args, f"  at {p.object_name} (position {p.position}): "
                   f"chain={p.chain_complex} semi={p.semi_exact} "
                   f"proper={p.proper_exact} exact={p.exact}"
                   + (f"  [{p.witness}]" if not p.exact else ""))
    for a in v.arrows:
        for flag in ("k_uniform", "i_uniform", "uniform"):
            report.add(f"exactness.{args.name}.arrow{a.position}.{flag}",
                       str(getattr(a, flag)).lower())
        _say(args, f"  arrow {a.arrow_name}: k-uniform={a.k_uniform} "
                   f"i-uniform={a.i_uniform}")
    return 0


def _emit_certificate(args, report, cert):
    for a in cert.hypotheses:
        report.add(f"lemma.{cert.lemma}.hyp.{a.id}", "ok" if a.ok else "error", a.witness)
    bad = False
    for a in cert.conclusions:
        report.add(f"lemma.{cert.lemma}.conclusion.{a.id}",
                   "ok" if a.ok else "fail", a.witness)
        mark = "ok" if a.ok else f"FAILED ({a.witness})"
        _say(args, f"  {a.id}: {mark}")
        bad = bad or not a.ok
    return bad


def cmd_lemma(args, report):
    from .diagrams import lookup, verify

    ws = _load(args)
    lookup(args.name, ParameterError)
    d = _pick(ws.diagrams, args.diagram, "diagram")
    cert = _located(ws, "diagram", args.diagram, verify, args.name, d)
    _say(args, f"lemma {args.name} on {d.name}:")
    bad = _emit_certificate(args, report, cert)
    if bad:
        _say(args, "REFUTED: a verified conclusion failed; this indicates a bug")
        return 1
    _say(args, "verified")
    return 0


def cmd_snake(args, report):
    from .diagrams import snake

    ws = _load(args)
    d = _pick(ws.diagrams, args.diagram, "diagram")
    result = _located(ws, "diagram", args.diagram, snake, d)
    _say(args, f"snake on {d.name}:")
    _say(args, f"  delta: {','.join(str(v) for v in result.delta.map)} "
               f"({result.delta.domain.name} -> {result.delta.codomain.name})")
    report.add("snake.delta.table", "ok", ",".join(str(v) for v in result.delta.map))
    report.add("snake.columns-exact", str(result.columns_exact).lower())
    bad = False
    for cert in result.certificates:
        bad = _emit_certificate(args, report, cert) or bad
    for label, cert in (("kernel-row", result.cert_kernel_row),
                        ("cokernel-row", result.cert_cokernel_row),
                        ("four-term", result.cert_four_term)):
        if cert is None:
            report.add(f"snake.{label}.applicable", "false")
            _say(args, f"  {label}: hypotheses not applicable, skipped")
    if bad:
        _say(args, "REFUTED: a snake clause failed; this indicates a bug")
        return 1
    _say(args, "verified")
    return 0


# nat<k> is monoid_semiring(k), with k + lcm(1..k) elements: 66 at k = 6,
# already 2,530 at k = 10
NAT_MAX = 6
# the module size bound of search and corpus: order 7's monoid tables take about
# 5 s, but the hom-sets a search walks already take about a minute at order 6
MAX_SIZE = 6


def _universe_spec(args):
    """The universe of search and corpus, over a builtin or workspace semiring
    or else nat<k> = monoid_semiring(k), 1 <= k <= NAT_MAX. Any other k, and
    a --max-size past MAX_SIZE, are refused before anything is built."""
    from .fixtures import builtin_semirings

    if args.max_size > MAX_SIZE:
        raise ParameterError(f"--max-size {args.max_size}: search and corpus need "
                             f"--max-size <= {MAX_SIZE}")
    name, table = args.semiring, dict(builtin_semirings())
    table.update(_load(args).semirings)
    semiring = table.get(name)
    if semiring is None:
        nat = re.fullmatch(r"nat([0-9]+)", name)
        if nat is None:
            raise StructureError(f"no semiring named {name!r}; builtins: "
                                 + ", ".join(sorted(builtin_semirings())) + ", nat<k>")
        if not 1 <= int(nat.group(1)) <= NAT_MAX:
            raise ParameterError(f"semiring {name!r}: nat<k> needs 1 <= k <= {NAT_MAX}")
        semiring = monoid_semiring(int(nat.group(1)))
    return UniverseSpec(semiring, args.max_size, seed=args.seed)


def cmd_search(args, report):
    from .catalog import Counterexample, search_counterexample

    spec = _universe_spec(args)
    outcome = search_counterexample(args.name, spec)
    if isinstance(outcome, Counterexample):
        report.add(f"search.{args.name}", "fail", outcome.description)
        _say(args, f"counterexample found for {args.name}:")
        _say(args, f"  {outcome.description}")
        for w in outcome.witnesses:
            _say(args, f"  witness: {w!r}")
        return 1
    report.add(f"search.{args.name}", "ok",
               f"exhausted after {outcome.searched} instances")
    _say(args, f"search {args.name}: exhausted after {outcome.searched} instances "
               f"over {spec.semiring.name} (size <= {args.max_size}); no counterexample")
    return 0


def cmd_corpus(args, report):
    from .workspace import Workspace, serialize

    uni = enumerate_semimodules(_universe_spec(args))
    semiring = uni.spec.semiring
    out = Workspace()
    out.semirings[semiring.name] = semiring
    for i, m in enumerate(uni.modules):
        out.modules[f"corpus{i}"] = m._trusted(f"corpus{i}", *m._key(m)[1:])
    text = serialize(out)
    if args.corpus:
        _write(args.corpus, text)
        _say(args, f"wrote {len(uni.modules)} modules over {semiring.name} "
                   f"to {args.corpus}")
    else:
        sys.stdout.write(text)
    report.add("corpus.modules", "ok", str(len(uni.modules)))
    report.add("corpus.truncated", str(uni.truncated).lower())
    return 0


def _common(p):
    p.add_argument("files", nargs="*", default=[], help="workspace definition files")
    p.add_argument("--report", metavar="PATH", help="write machine-readable report")
    p.add_argument("--quiet", action="store_true", help="suppress human output")


def _universe_args(p):  # the universe options that search and corpus read
    p.add_argument("--max-size", type=int, default=3, metavar="N",
                   help="module size bound for searches/corpora (default 3)")
    p.add_argument("--seed", type=int, default=0, metavar="N")


def _lemma_args(p):
    from .diagrams import CLAUSES

    p.add_argument("name", help="one of: " + ", ".join(CLAUSES))
    p.add_argument("diagram")


def _search_args(p):
    from .catalog import PROPERTIES

    p.add_argument("name", help="one of: " + ", ".join(PROPERTIES))
    p.add_argument("semiring", nargs="?", default="nat3",
                   help="builtin, workspace or nat<k> semiring (default nat3)")
    _universe_args(p)


def _corpus_args(p):
    p.add_argument("semiring", help="builtin, workspace or nat<k> semiring name")
    _universe_args(p)
    p.add_argument("--corpus", metavar="PATH", help="corpus output path")


# name -> (help, handler, adds the command's own arguments before the common ones)
COMMANDS = {
    "validate": ("parse and validate workspace files", cmd_validate, lambda p: None),
    "classify": ("classify a morphism", cmd_classify, lambda p: p.add_argument("name")),
    "exactness": ("analyze a sequence", cmd_exactness, lambda p: p.add_argument("name")),
    "lemma": ("verify a diagram lemma", cmd_lemma, _lemma_args),
    "snake": ("run the snake construction on a 2x3 diagram", cmd_snake,
              lambda p: p.add_argument("diagram")),
    "search": ("search the counterexample catalog", cmd_search, _search_args),
    "corpus": ("export the enumerated module corpus", cmd_corpus, _corpus_args),
}


def build_parser(command=None):
    """The parser of every command or, given a known one, of that command
    alone, whose usage line still names every command; its help and errors
    are the full parser's."""
    ap = argparse.ArgumentParser(
        prog="semiexact",
        description="Exactness kernel for finite semirings and semimodules")
    ap.add_argument("--version", action="version", version=f"semiexact {__version__}")
    names = [command] if command in COMMANDS else list(COMMANDS)
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar="{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None)
    for name in names:
        text, handler, own_args = COMMANDS[name]
        p = sub.add_parser(name, help=text)
        own_args(p)
        _common(p)
        p.set_defaults(func=handler)
    return ap


@lru_cache(maxsize=len(COMMANDS) + 1)  # every command, and None
def _parser(command):
    """build_parser(command), once per process and command: parse_args returns
    a new namespace on every call, and help is formatted only when printed."""
    return build_parser(command)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # a top-level option before the command (help, version or an error) needs
    # the full parser, so only a leading command word picks one parser
    args = _parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    report = Report()
    code = 2  # unless the command returns
    try:
        code = args.func(args, report)
    except WorkspaceError as exc:
        for prob in exc.problems:
            print(f"error: {prob}", file=sys.stderr)
            report.add(f"parse.{prob.kind}.{prob.file}:{prob.line}", "error", prob.message)
    except HypothesisError as exc:
        print(f"hypothesis error: {exc}", file=sys.stderr)
        report.add("hypothesis", "error", f"{exc.assertion_id}: {exc.witness}")
    except (StructureError, ParameterError, SemiexactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        report.add("input", "error", str(exc))
    try:
        if args.report:
            _write(args.report, report.machine_text())
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
