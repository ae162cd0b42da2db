"""A slice of the suite under `python -O`.

The package's invariants are explicit raises, so they must hold with
assert statements stripped. Pytest still rewrites the asserts of test
modules into raises under -O, so the tests keep checking.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SLICE = ["tests/test_core.py", "tests/test_quotients.py",
         "tests/test_exactness.py::test_exact_at_matches_reference",
         "tests/test_morphisms.py::test_hom_tables_match_product_search",
         *(f"tests/test_enumeration.py::{name}" for name in (
             "test_monoid_counts", "test_ring_module_counts",
             "test_naive_recount_matches", "test_canonical_monoid_tables",
             "test_monoid_filter_matches_canonical_form", "test_automorphisms_match_scan",
             "test_enumerated_matches_canonical_selection")),
         *(f"tests/test_harness.py::{name}" for name in (
             "test_row_pools_match_named_builders",
             "test_exact_pairs_match_named_builder_at_nat4"))]


def test_slice_passes_under_optimize(src_env):
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *SLICE],
        cwd=ROOT, env=src_env, capture_output=True, text=True)
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    # everything collected passed: nothing failed, errored, skipped or deselected
    assert re.fullmatch(r"\d+ passed(, \d+ warnings?)? in .*", summary), summary
