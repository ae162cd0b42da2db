"""The benchmark's tracer still wraps the package: a traced tiny
lemma-corpus run completes with every check passing. The tracer reads
enumerate_hom's cache_info() and wraps public names by module, so a change
to either shows here and not only in a later benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_tiny_lemma_corpus_run():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lemma-corpus", "--trace", "1",
         "--tiny", "--seconds", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["harness.diagrams"]["value"] > 0
