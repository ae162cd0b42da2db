"""`run.py --self-test`: checks of the benchmark itself, on tiny inputs.

1. BENCHMARK.json names runner workloads and exactly the metrics it prints.
2. The stored module counts equal `enumerate_semimodules_naive` at sizes 4 and 3.
3. Every workload passes its checks on a tiny pass, traced and untraced, and
   a tiny pass with one output deliberately damaged is counted as failed.
4. In a directory holding only BENCHMARK.json and the benchmark, the runner
   exits non-zero without printing a result.
It also reports whether lemma-corpus output still depends on the string hash
seed (the runner pins PYTHONHASHSEED to each pass's input seed because of it).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _check(results, ok, label):
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {label}")


def check_benchmark_json(results):
    from run import END_TO_END
    from tracing import metric_units
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _check(results, {w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
           "BENCHMARK.json lists runner workloads")
    _check(results, {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
           "BENCHMARK.json end_to_end matches the --trace 0 metrics")
    _check(results, {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units(),
           "BENCHMARK.json per_layer matches the --trace 1 metrics")


def check_module_counts(results):
    sys.path.insert(0, str(ROOT / "src"))
    from semiexact.enumeration import enumerate_semimodules_naive
    from semiexact.fixtures import builtin_semirings
    from workloads import MODULE_COUNTS, NAT4_MODULES

    counts = {name: (len(enumerate_semimodules_naive(s, 4)),
                     len(enumerate_semimodules_naive(s, 3)))
              for name, s in builtin_semirings().items()}
    _check(results, counts == MODULE_COUNTS and counts["nat4"][0] == NAT4_MODULES,
           "stored module counts equal enumerate_semimodules_naive at sizes 4 and 3")


def check_workloads(results, args, start_worker):
    from workloads import PRIMARY, WORKLOADS
    from tracing import metric_units

    workdir = HERE / ".work" / "selftest"
    layer_names = set(metric_units()) - {"trace.wall_s", "trace.overhead_s"}
    try:
        for name in WORKLOADS:
            clean = start_worker(args, name, 7, workdir)
            _check(results, not any(r[3] for r in clean["tasks"]),
                   f"{name}: tiny pass has no failed task ({len(clean['tasks'])} tasks)")
            traced = start_worker(args, name, 7, workdir, trace=True)
            _check(results, not any(r[3] for r in traced["tasks"])
                   and set(traced["layers"]) == layer_names
                   and traced["digest"] == clean["digest"],
                   f"{name}: traced tiny pass has the same output and every layer metric")
            bad = start_worker(args, name, 7, workdir, corrupt=True)
            failed = [r[0] for r in bad["tasks"] if r[3]]
            kinds = {r[0]: r[1] for r in bad["tasks"]}
            _check(results, len(failed) == 1 and kinds[failed[0]] == PRIMARY[name],
                   f"{name}: a damaged {PRIMARY[name]} output is counted as failed "
                   f"({', '.join(failed) or 'none'})")
        a = start_worker(args, "lemma-corpus", 7, workdir, hash_seed=1)
        b = start_worker(args, "lemma-corpus", 7, workdir, hash_seed=2)
        print(f"NOTE  lemma-corpus output {'depends' if a['digest'] != b['digest'] else 'no longer depends'}"
              " on PYTHONHASHSEED at a fixed --seed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory(results):
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(
            ".work", ".out", "__pycache__"))
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               "universe-export", "--seed", "1", "--seconds", "1",
                               "--trace", "0", "--tiny"],
                              cwd=bare, capture_output=True, text=True, timeout=170,
                              check=False)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        _check(results, proc.returncode != 0 and '"correct"' not in last,
               f"without the package the runner exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(args, start_worker):
    args.tiny = True
    results = []
    check_benchmark_json(results)
    check_module_counts(results)
    check_workloads(results, args, start_worker)
    check_bare_directory(results)
    print(f"self-test: {sum(results)} of {len(results)} checks passed")
    return 0 if all(results) else 1
