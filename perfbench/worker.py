"""One pass of one workload, in a fresh interpreter; started by run.py.

Prints one JSON object as the last line of standard output: the set-up
time (the import of the package and the build of the workload's specs and
semirings), each task's time and verdict, the failed checks, the output
digest, peak RSS and, when traced, the per-layer metrics. Anything the
package prints goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

STARTED = time.perf_counter()  # set-up is timed from here, before the package is imported

MAX_MESSAGES = 20


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced pass's spans to this file")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage one primary output before it is checked")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def run_tasks(tasks, tracer, corrupt):
    records, messages = [], []
    digest = hashlib.sha256()
    for task in tasks:
        if tracer:
            tracer.begin_task(task.id)
        start = time.perf_counter()
        try:
            out, error = task.run(), None
        except Exception as exc:  # a task that raises is a failed task
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer:
            tracer.end_task()
        if error is None:
            if corrupt and task.corrupt:
                out, corrupt = task.corrupt(out), False
            try:
                failures, text = task.check(out)
            except Exception as exc:
                failures, text = [f"check raised {type(exc).__name__}: {exc}"], ""
        else:
            failures, text = [error], ""
        digest.update(f"{task.id}\n{text}\n".encode("utf-8"))
        messages.extend(f"{task.id}: {m}" for m in failures[:MAX_MESSAGES - len(messages)])
        records.append([task.id, task.kind, seconds, bool(failures),
                        hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]])
    return records, messages, digest.hexdigest()


def main(argv=None):
    args = parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    import semiexact.cli  # noqa: F401  (imports every layer)

    tracer = tracing.install() if args.trace else None
    tasks, notes = workloads.WORKLOADS[args.workload](args.seed, args.tiny, args.workdir)
    result = {"setup_s": time.perf_counter() - STARTED, "notes": notes}
    if not args.setup_only:
        with contextlib.redirect_stdout(sys.stderr):
            records, messages, digest = run_tasks(tasks, tracer, args.corrupt)
        result.update(tasks=records, messages=messages, digest=digest,
                      rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer:
            result["layers"] = tracing.per_layer(tracer)
            if args.spans:
                with open(args.spans, "w", encoding="utf-8") as fh:
                    json.dump({"fields": ["name", "start", "end", "parent", "task"],
                               "spans": tracer.spans, "dropped": tracer.spans_dropped}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
