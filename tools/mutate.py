"""Operator and integer-literal mutation sweep of one module against Tier-1.

    python tools/mutate.py src/semiexact/workspace.py           # run every site
    python tools/mutate.py src/semiexact/workspace.py --list    # list the sites only

A site is one operator of the module, in source order: a comparison
(== / !=, < / <=, > / >=, in / not in, is / is not, one site per operator
of a chain), a boolean operation (and / or, one site per expression, every
operator of it swapped) or a `not` that the mutant drops; or an integer
literal, which the mutant changes from 0 to 1, from 1 to 0 and from any
other k to k + 1 (one not written as its plain decimal value is no site).
Each mutant changes one site of a scratch copy of the tree, never the tree
itself; Tier-1 runs in the copy with -x and without the `python -O` slice,
and a mutant is killed when that run fails or outlasts ten times the
unmutated run. One row is printed per site: module, line, operator, killed
or survived. An interrupt or a SIGTERM stops the sweep, its Tier-1 run and
that run's subprocesses, and removes the scratch copy. Stdlib only; Tier-1
does not run the sweep.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SWAP = {"==": "!=", "!=": "==", "<": "<=", "<=": "<", ">": ">=", ">=": ">",
        "in": "not in", "not in": "in", "is": "is not", "is not": "is",
        "and": "or", "or": "and"}
SLICE = "tests/test_optimized.py::test_slice_passes_under_optimize"
# what lies between two operands: the operator, with spaces, line breaks and parentheses
OPERATOR = re.compile(r"[\s()\\]*(not\s+in|is\s+not|==|!=|<=|>=|<|>|in|is|and|or)[\s()\\]*")
NOT = re.compile(r"not\b\s*")  # a dropped `not` takes its trailing space with it
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".work", ".out")


class Site(NamedTuple):
    line: int
    operator: str  # "== -> !=", "and -> or", "not -> (dropped)", "3 -> 4"
    spans: tuple  # (start, end) character offsets into the source, in order
    replacement: str


def sites(text):
    """The module's operator sites in source order."""
    lines = text.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(row, byte_col):  # ast columns count UTF-8 bytes
        return starts[row - 1] + len(lines[row - 1].encode()[:byte_col].decode())

    def between(left, right):
        """The span of the operator after node left ends and before node right starts."""
        lo, hi = offset(left.end_lineno, left.end_col_offset), offset(right.lineno, right.col_offset)
        gap = OPERATOR.fullmatch(text, lo, hi)
        if gap is None:
            raise SystemExit(f"line {left.end_lineno}: no operator alone in {text[lo:hi]!r}")
        return gap.span(1)

    def line_of(spans):
        return text.count("\n", 0, spans[0][0]) + 1

    def swap(spans):
        op = " ".join(text[slice(*spans[0])].split())
        return Site(line_of(spans), f"{op} -> {SWAP[op]}", spans, SWAP[op])

    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Compare):
            found += [swap((between(left, right),)) for left, right
                      in zip([node.left, *node.comparators], node.comparators)]
        elif isinstance(node, ast.BoolOp):
            found.append(swap(tuple(between(a, b) for a, b in zip(node.values, node.values[1:]))))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            spans = (NOT.match(text, offset(node.lineno, node.col_offset)).span(),)
            found.append(Site(line_of(spans), "not -> (dropped)", spans, ""))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            spans = ((offset(node.lineno, node.col_offset),
                      offset(node.end_lineno, node.end_col_offset)),)
            if text[slice(*spans[0])] == str(node.value):
                new = str(1 - node.value if node.value in (0, 1) else node.value + 1)
                found.append(Site(line_of(spans), f"{node.value} -> {new}", spans, new))
    return sorted(found, key=lambda found_site: found_site.spans)


def mutant(text, site):
    for start, end in reversed(site.spans):
        text = text[:start] + site.replacement + text[end:]
    ast.parse(text)  # every mutant must still be a module
    return text


def tier1(copy, timeout=None):
    """True when Tier-1 passes in copy; False when it fails or times out.
    The run has its own process group, which a timeout, or an interrupt or
    termination of the sweep, kills whole, subprocesses of tests included."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             "--deselect", SLICE], cwd=copy, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        return proc.wait(timeout) == 0
    except subprocess.TimeoutExpired:
        return False
    finally:
        if proc.returncode is None:  # not reaped, so its group is still there
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def _terminated(signum, frame):
    """SIGTERM unwinds like an interrupt, so the scratch copy is removed."""
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module path relative to the repository root")
    parser.add_argument("--list", action="store_true", help="list the sites and stop")
    args = parser.parse_args(argv)
    module = Path(args.module)
    text = (ROOT / module).read_text(encoding="utf-8")
    chosen = sites(text)
    if args.list:
        for s in chosen:
            print(f"{module}\t{s.line}\t{s.operator}")
        print(f"{len(chosen)} sites")
        return 0
    signal.signal(signal.SIGTERM, _terminated)
    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = copy / module
        began = time.perf_counter()
        if not tier1(copy):
            print("Tier-1 fails on the unmutated copy; no sweep", file=sys.stderr)
            return 2
        timeout = 10 * (time.perf_counter() - began)
        killed = 0
        for s in chosen:
            target.write_text(mutant(text, s), encoding="utf-8")
            verdict = "survived" if tier1(copy, timeout) else "killed"
            killed += verdict == "killed"
            print(f"{module}\t{s.line}\t{s.operator}\t{verdict}", flush=True)
        target.write_text(text, encoding="utf-8")
    print(f"{module}: {killed} of {len(chosen)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
