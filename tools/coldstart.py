"""Where a fresh interpreter's lemma-corpus pass spends its cache misses.

    python tools/coldstart.py --seed 11          # one pass, one table
    python tools/coldstart.py --seed 11 --top 8  # the eight costliest caches only

Runs the lemma-corpus workload of perfbench/workloads.py once, in a fresh
interpreter, with PYTHONHASHSEED set to the seed as perfbench sets it. Before
the package is imported, functools.lru_cache and functools.cached_property
are replaced by ones that time the wrapped function, so every call that
reaches it, a miss or a property's first read on an object, is counted and
timed; hits never reach it and cost what they cost. A miss's self time
excludes the misses of other caches it makes, which have rows of their own,
so the column adds up to the pass's time in misses. Only the tasks' runs
are counted, not the set-up nor the known-answer checks. One row is printed
per lru_cache of the package, and one per class for its cached properties
(their hits are not counted): misses, hits and self time in milliseconds,
costliest first, then the pass's wall time, which includes the timers'
own cost. Stdlib only; neither Tier-1 nor perfbench runs it.
"""

from __future__ import annotations

import argparse
import functools
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class _Misses:
    """Per cached function: misses and self seconds, while counting is on."""

    def __init__(self):
        self.on = False
        self.rows = {}  # qualified name -> [misses, self seconds, the lru_cache]
        self.stack = []  # child seconds of each miss being timed

    def timed(self, fn, name):
        """fn, counted and timed under name while counting is on."""
        row = self.rows.setdefault(name, [0, 0.0, None])

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            self.stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                children = self.stack.pop()
                if self.stack:
                    self.stack[-1] += spent
                row[0] += 1
                row[1] += spent - children
        return timed

    def lru_cache(self, real):
        def decorator_factory(maxsize=128, typed=False):
            if callable(maxsize):  # bare @lru_cache
                return decorator_factory()(maxsize)

            def decorate(fn):
                if not fn.__module__.startswith("semiexact"):
                    return real(maxsize=maxsize, typed=typed)(fn)
                name = f"{fn.__module__.split('.')[-1]}.{fn.__qualname__}"
                cached = real(maxsize=maxsize, typed=typed)(self.timed(fn, name))
                self.rows[name][2] = cached
                return cached
            return decorate
        return decorator_factory

    def cached_property(self, real):
        misses = self

        class Timed(real):
            def __init__(self, fn):
                if fn.__module__.startswith("semiexact"):
                    owner = fn.__qualname__.rpartition(".")[0]
                    fn = misses.timed(fn, f"{fn.__module__.split('.')[-1]}.{owner} properties")
                super().__init__(fn)
        return Timed


def _hits(rows):
    return {name: row[2].cache_info().hits for name, row in rows.items() if row[2]}


def run_pass(seed, top):
    misses = _Misses()
    functools.lru_cache = misses.lru_cache(functools.lru_cache)
    functools.cached_property = misses.cached_property(functools.cached_property)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import semiexact.cli  # noqa: F401  (imports every layer, as a perfbench pass does)
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        tasks, _ = workloads.WORKLOADS["lemma-corpus"](seed, False, workdir)
        hits, wall = {}, 0.0
        for task in tasks:
            before = _hits(misses.rows)
            misses.on = True
            start = time.perf_counter()
            out = task.run()
            wall += time.perf_counter() - start
            misses.on = False
            for name, count in _hits(misses.rows).items():
                hits[name] = hits.get(name, 0) + count - before.get(name, 0)
            failures, _ = task.check(out)
            if failures:
                raise SystemExit(f"{task.id}: {failures[0]}")
    rows = sorted(((r[1], r[0], hits.get(n), n) for n, r in misses.rows.items() if r[0]),
                  key=lambda r: (r[0], r[3]), reverse=True)
    print(f"{'cache':<44} {'misses':>7} {'hits':>8} {'self ms':>8}")
    for seconds, count, hit_count, name in rows[:top]:
        shown = "-" if hit_count is None else hit_count
        print(f"{name:<44} {count:>7} {shown:>8} {seconds * 1e3:>8.1f}")
    total = sum(r[0] for r in rows)
    print(f"{'all caches':<44} {sum(r[1] for r in rows):>7} {'':>8} {total * 1e3:>8.1f}")
    print(f"pass wall time {wall * 1e3:.1f} ms over {len(tasks)} tasks, seed {seed}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--top", type=int, default=None, help="print only the costliest rows")
    ap.add_argument("--in-pass", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.in_pass:
        run_pass(args.seed, args.top)
        return 0
    cmd = [sys.executable, __file__, "--in-pass", "--seed", str(args.seed)]
    if args.top is not None:
        cmd += ["--top", str(args.top)]
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    return subprocess.run(cmd, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
