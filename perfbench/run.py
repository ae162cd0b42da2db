"""Benchmark for semiexact: three workloads, each pass in a fresh interpreter.

    python3 perfbench/run.py --workload lemma-corpus --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45
    python3 perfbench/run.py --self-test

Run from the repository root. A run repeats passes of the workload, each in
a new interpreter started from this script; `--seconds` sets how many (see
PASSES_PER_45_S). Every pass is a closed loop over the workload's tasks, one
at a time, in one process. The workload's inputs come from `--seed` (and the
pass number, for lemma-corpus; see BENCHMARK.json). Every task's output is
checked against known answers, untimed.

With `--trace 0` the end-to-end metrics are printed: the fastest set-up,
the summed time of each task (its median over the passes, or on lemma-corpus
its cheapest corpus seed), a task-time tail and peak RSS. With
`--trace 1`, one untraced and one traced pass run, and the per-layer metrics
of the traced pass are printed instead. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import metric_units  # noqa: E402
from workloads import PRIMARY, WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "task_tail_ms": "ms", "peak_rss_mb": "MB"}
# Set-up samples of a --trace 0 run: one per untraced pass, and set-up-only
# interpreters between the passes for the rest, so that the samples spread
# over the whole run. A shared 2-CPU host was seen to switch between a fast
# and a 1.6x slower mode every second or so; the median of a run's set-ups
# then followed the share of slow time, while the fastest set-up stayed put.
SETUP_SAMPLES = 16
# Untraced passes per 45 s of --seconds. On a 2-CPU host one pass with its
# checks took 9 to 15 s on lemma-corpus and morphism-sweep, and 2.3 to 3 s on
# universe-export. The count depends on --seconds alone, never on how fast
# the passes ran, so two commits get the same number of samples per task.
# A --trace 1 run makes one untraced and one traced pass instead.
PASSES_PER_45_S = {"lemma-corpus": 4, "universe-export": 16, "morphism-sweep": 4}
RUN_LIMIT_S = 170         # a run, passes and all, ends within this or fails
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
CALIBRATION_LOOPS = 2_000_000
# lemma-corpus draws a new corpus seed for every pass; the others repeat one input
NEW_INPUT_PER_PASS = {"lemma-corpus"}
SUBSEED_STRIDE = 1_000_000


def calibrate():
    """A fixed pure-Python loop; its time is a host-speed diagnostic only."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc = (acc + i * 7) % 1_000_003
    return time.perf_counter() - start


def pass_seed(workload, seed, index, traced_run):
    if workload in NEW_INPUT_PER_PASS and not traced_run:
        return seed + SUBSEED_STRIDE * index
    return seed


def start_worker(args, workload, seed, workdir, trace=False, spans=None, setup_only=False,
                 corrupt=False, hash_seed=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    cmd += ["--trace"] if trace else []
    cmd += ["--spans", str(spans)] if spans else []
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--tiny"] if args.tiny else []
    cmd += ["--corrupt"] if corrupt else []
    # string hashing orders some program outputs, so it is an input too
    hash_seed = seed if hash_seed is None else hash_seed
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed % 2**32))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=max(1.0, args.hard_deadline - time.monotonic()), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    return result


def tail_level(samples):
    """The highest listed percentile with at least ten of `samples` samples
    beyond it (nearest rank), or None when no percentile has."""
    for p in TAIL_PERCENTILES:
        if samples - math.ceil(p / 100 * samples) >= 10:
            return p
    return None


def percentile(values, p):
    ordered = sorted(values)
    return ordered[math.ceil(p / 100 * len(ordered)) - 1]


def per_task(passes, statistic):
    """`statistic` of each task's times over the passes, and each task's kind.

    Where every pass repeats one input, the samples of a task differ only by
    host noise, and their median is taken. On a shared 2-CPU host whose speed
    drifted for tens of seconds at a time, the fastest of 16 samples depended
    on whether a run caught a quiet moment: over twelve universe-export runs
    its summed spread (q3 - q1) / median was 0.15, against 0.07 for the
    median. On lemma-corpus every pass draws another corpus seed, and a
    task's cheapest corpus is taken; the costly seeds show in the pooled tail.
    """
    times, kinds = {}, {}
    for p in passes:
        for task_id, kind, seconds, *_ in p["tasks"]:
            times.setdefault(task_id, []).append(seconds)
            kinds[task_id] = kind
    return {t: statistic(v) for t, v in times.items()}, kinds


def pass_count(workload, seconds, traced_run):
    return 1 if traced_run else max(1, round(PASSES_PER_45_S[workload] * seconds / 45))


def probes_before(index, passes):
    """Set-up-only interpreters to start before pass `index` of `passes`, so
    that the run's set-up samples total at least SETUP_SAMPLES."""
    extra = max(0, SETUP_SAMPLES - passes)
    return extra * (index + 1) // passes - extra * index // passes


def run_workload(args, workload, out):
    traced_run = bool(args.trace)
    args.hard_deadline = time.monotonic() + RUN_LIMIT_S
    workdir = HERE / ".work" / f"{workload}-{os.getpid()}"
    spans_path = HERE / ".out" / f"spans-{workload}-seed{args.seed}.json"
    if traced_run:
        spans_path.parent.mkdir(exist_ok=True)
    calib_before = calibrate()
    passes = pass_count(workload, args.seconds, traced_run)
    try:
        setups, untraced, traced = [], [], []
        for index in range(passes):
            seed = pass_seed(workload, args.seed, index, traced_run)
            probes = 0 if traced_run else probes_before(index, passes)
            setups += [start_worker(args, workload, seed, workdir, setup_only=True)["setup_s"]
                       for _ in range(probes)]
            untraced.append(start_worker(args, workload, seed, workdir))
        if traced_run:
            traced.append(start_worker(args, workload, args.seed, workdir, trace=True,
                                       spans=spans_path))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib_after = calibrate()

    passes = untraced + traced
    setups += [p["setup_s"] for p in untraced]
    attempted = sum(len(p["tasks"]) for p in passes)
    failed = sum(sum(1 for r in p["tasks"] if r[3]) for p in passes)
    messages = [m for p in passes for m in p["messages"]][:20]
    new_inputs = workload in NEW_INPUT_PER_PASS
    task_times, kinds = per_task(untraced, min if new_inputs else statistics.median)
    kind = PRIMARY[workload]
    primary = [r[2] for p in untraced for r in p["tasks"] if r[1] == kind]
    per_pass = len(primary) // len(untraced)
    if new_inputs:
        # every sample is another input: keep them all
        tail_samples, basis = primary, f"all {len(primary)} samples"
    else:
        # samples of one task differ only by host noise: keep each task's median
        tail_samples = [s for t, s in task_times.items() if kinds[t] == kind]
        basis = "the per-task medians"
    level = tail_level(len(tail_samples))
    if level is None:
        tail_label, tail_value = f"slowest of {basis}", max(tail_samples)
    else:
        tail_label, tail_value = f"p{level:g} of {basis}", percentile(tail_samples, level)
    wall = sum(task_times.values())
    e2e = {"setup_s": min(setups), "wall_s": wall,
           "task_tail_ms": 1000 * tail_value,
           "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced)}
    p50_ms = 1000 * statistics.median(primary)

    say = out.append
    seeds = sorted({pass_seed(workload, args.seed, i, traced_run) for i in range(len(untraced))})
    say(f"== {workload}  seed {args.seed}  {len(untraced)} untraced + {len(traced)} traced "
        f"passes  input seeds {', '.join(map(str, seeds))}")
    for note in untraced[0]["notes"]:
        say(f"   {note}")
    by_kind = {}
    for t, s in task_times.items():
        by_kind.setdefault(kinds[t], []).append(s)
    say("   tasks: " + ", ".join(f"{len(v)} {k} ({sum(v):.3f} s)" for k, v in by_kind.items()))
    say(f"   setup_s       {e2e['setup_s']:.4f} s   fastest of {len(setups)} set-ups "
        f"(median {statistics.median(setups):.4f} s): package import and workload build, "
        "timed in the pass's interpreter")
    statistic = (f"the fastest of {len(untraced)} corpus seeds, so its cheapest input"
                 if new_inputs else f"the median of {len(untraced)} untraced passes")
    say(f"   wall_s        {wall:.4f} s   sum over {len(task_times)} tasks of {statistic}; "
        "checks excluded")
    say(f"   task_p50_ms   {p50_ms:.4f} ms  p50 of all {len(primary)} samples of "
        f"{per_pass} {kind} tasks; printed, not gated")
    say(f"   task_tail_ms  {e2e['task_tail_ms']:.4f} ms  {tail_label} of {per_pass} {kind} tasks")
    say(f"   peak_rss_mb   {e2e['peak_rss_mb']:.2f} MB  median ru_maxrss of the passes")
    say(f"   fail_frac     {failed / attempted:.4f}     {failed} of {attempted} tasks failed")
    for m in messages:
        say(f"     FAILED {m}")
    say(f"   digest        {untraced[0]['digest']}  (all outputs at seed {args.seed})")
    say(f"   calibration   {calib_before:.3f} s before, {calib_after:.3f} s after "
        f"({CALIBRATION_LOOPS:,}-iteration loop; host-speed diagnostic, not gated)")

    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    if traced_run:
        metrics = layer_metrics(untraced[0], traced[0], say)
        say(f"   spans         {spans_path.relative_to(HERE.parent)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_metrics(untraced, traced, say):
    """The traced pass's per-layer metrics, with the tracing overhead measured
    against the untraced pass of the same input."""
    units = metric_units()
    values = dict(traced["layers"])
    traced_wall = sum(r[2] for r in traced["tasks"])
    untraced_wall = sum(r[2] for r in untraced["tasks"])
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    say(f"   tracing overhead {traced_wall - untraced_wall:+.4f} s "
        f"(traced {traced_wall:.4f} s, untraced {untraced_wall:.4f} s; one pass each, "
        "so host noise can outweigh it)")
    for name in units:
        say(f"   {name:50} {values[name]:.6g} {units[name]}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs; seconds per pass")
    ap.add_argument("--self-test", action="store_true",
                    help="check the benchmark itself and exit")
    args = ap.parse_args(argv)
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.self_test:
        import selftest
        args.hard_deadline = time.monotonic() + 600
        return selftest.main(args, start_worker)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    lines, results = [], {}
    try:
        for name in names:
            results[name] = run_workload(args, name, lines)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print("\n".join(lines))
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
