"""Counted work of one benchmark pass: Python opcodes run inside the package.

    python tools/opcount.py --workload lemma-corpus --seed 11
    python tools/opcount.py --workload universe-export --seed 11
    PYTHONHASHSEED=123 python tools/opcount.py --workload lemma-corpus --seed 11

Runs one pass of a workload of perfbench/workloads.py in this interpreter,
as perfbench/worker.py runs it: the package is imported, the workload builds
its tasks, and each task's run is followed by its known-answer check. Only
the runs are counted. Every frame whose code lies under src/ reports its
opcodes (sys.settrace with frame.f_trace_opcodes), so the count is the
bytecode the package executes, and work done in C (sorted, set algebra,
cache hits) is not in it. The host's speed cannot move it, and neither
does the string hash seed: a pass counted the same under PYTHONHASHSEED 0,
11 and 123.

Prints one row per task, then the clause families' totals (a task's family
is its id up to the first '.', '@' or digit), then the pass total.

perfbench/ is imported, never edited. Stdlib only; neither Tier-1 nor
perfbench runs it.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
sys.path.insert(0, SRC)
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


class _Counter:
    """Opcode events of package frames, while installed."""

    def __init__(self):
        self.count = 0
        self.ours = {}  # code object -> whether it lies under src/

    def call(self, frame, event, arg):
        code = frame.f_code
        ours = self.ours.get(code)
        if ours is None:
            ours = self.ours[code] = code.co_filename.startswith(SRC + os.sep)
        if not ours:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self.step

    def step(self, frame, event, arg):
        if event == "opcode":
            self.count += 1
        return self.step

    def counted(self, run):
        """run() with its package opcodes counted: (result, count)."""
        before = self.count
        sys.settrace(self.call)
        try:
            out = run()
        finally:
            sys.settrace(None)
        return out, self.count - before


def family(task_id):
    return re.match(r"[^.@\d]*", task_id).group() or task_id


def count_pass(workload, seed):
    """[(task id, opcodes)] of one pass, in task order."""
    import semiexact.cli  # noqa: F401  (loaded before the tasks, as the worker does)

    counter, rows = _Counter(), []
    with tempfile.TemporaryDirectory(prefix="opcount-") as workdir:
        tasks, _ = workloads.WORKLOADS[workload](seed, False, workdir)
        for task in tasks:
            out, n = counter.counted(task.run)
            task.check(out)
            rows.append((task.id, n))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    rows = count_pass(args.workload, args.seed)
    for task_id, n in rows:
        print(f"task\t{task_id}\t{n}")
    families = {}
    for task_id, n in rows:
        families[family(task_id)] = families.get(family(task_id), 0) + n
    for name, n in families.items():
        print(f"family\t{name}\t{n}")
    print(f"total\t{args.workload}@{args.seed}\t{sum(n for _, n in rows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
