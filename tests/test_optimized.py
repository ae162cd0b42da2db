"""A slice of the suite under `python -O`, and a scan of the package for asserts.

The package's invariants are explicit raises, so they must hold with
assert statements stripped. Pytest still rewrites the asserts of test
modules into raises under -O, so the tests keep checking.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

from semiexact.fixtures import builtin_semirings

ROOT = Path(__file__).resolve().parents[1]
# every test of test_core.py but the [nat4] mutant scans, which the normal
# pass runs (the semiring one takes about 8 s)
CORE = [*(f"tests/test_core.py::{scan}[{name}]"
          for scan in ("test_semiring_reports_match_full_scan_on_mutants",
                       "test_module_reports_match_full_scan_on_mutants")
          for name in builtin_semirings() if name != "nat4"),
        *(f"tests/test_core.py::{name}" for name in (
            "test_builders_validate", "test_fixture_modules_validate", "test_boolean_tables",
            "test_patched_boolean_is_z2", "test_patched_boolean_fails_with_witness",
            "test_validator_agrees_with_oracle_on_mutants",
            "test_module_reports_match_full_scan_on_size4_mutants",
            "test_laws_at_generators_are_checked_at_each_generator",
            "test_upper_triangular_boolean_validates",
            "test_upper_triangular_boolean_reports_match_full_scan_on_mutants",
            "test_trusted_modules_equal_checked_ones", "test_generators_of_builtins",
            "test_module_mutants_fail", "test_zero_must_differ_from_one",
            "test_malformed_tables_are_structural_errors", "test_builder_parameter_errors",
            "test_natural_quotient_specializes", "test_minplus_shape",
            "test_cancellable_examples", "test_cancellative_module_matches_elementwise",
            "test_cancellable_rows_match_the_scan", "test_closure_examples",
            "test_closure_matches_oracle", "test_closure_is_closure_operator",
            "test_closure_yields_valid_subsemimodule",
            "test_group_subsemimodules_are_subtractive", "test_non_subtractive_example",
            "test_subsemimodule_validation", "test_natural_action_refuses_non_generated",
            "test_monoid_semiring_acts_on_all_small_monoids", "test_zero_module_cached",
            "test_closure_extensive_and_monotone_random",
            "test_completions_match_brute_force",
            "test_completions_prune_drops_partial_tables"))]
SLICE = [*CORE, "tests/test_quotients.py",
         "tests/test_exactness.py::test_exact_at_matches_reference",
         "tests/test_exactness.py::test_analyze_position_witnesses",
         "tests/test_exactness.py::test_analyze_arrow_witnesses_are_uniformity_only",
         "tests/test_exactness.py::test_short_sequence_names",
         "tests/test_morphisms.py::test_hom_tables_match_product_search",
         "tests/test_morphisms.py::test_induced_to_kernel_names",
         *(f"tests/test_enumeration.py::{name}" for name in (
             "test_monoid_counts", "test_ring_module_counts",
             "test_boolean_universes_count_lattices", "test_zmod_universes_count_abelian_groups",
             "test_naive_recount_matches", "test_canonical_monoid_tables",
             "test_monoid_filter_matches_canonical_form", "test_automorphisms_match_scan",
             "test_enumerated_matches_canonical_selection",
             "test_monoid_tables_match_product_sweep", "test_actions_match_validation_oracle",
             "test_flat_kernel_matches_row_relabelling", "test_forced_actions_match_the_search",
             "test_boolean_universes_count_lattices_of_order_6",
             "test_orderly_generation_keeps_the_filtered_tables",
             "test_orderly_prune_drops_only_tables_a_known_prefix_rules_out",
             "test_canonical_monoid_tables_of_order_6")),
         *(f"tests/test_harness.py::{name}" for name in (
             "test_row_pools_match_named_builders",
             "test_exact_pairs_match_named_builder_at_nat4",
             "test_capped_pools_are_views_over_their_streams",
             "test_streams_match_uncapped_references",
             "test_row_pools_are_the_hand_picked_pools",
             "test_dropped_exactness_widens_the_row_pool",
             "test_row_pairs_match_compose_filter", "test_snake_matches_snapshot",
             "test_join_matches_compose_filter_on_every_clause")),
         *(f"tests/test_diagrams.py::{name}" for name in (
             "test_parts_are_in_sorted_key_order",
             "test_grid_of_wrong_shape_or_with_a_part_missing_is_refused",
             "test_arrow_that_misses_its_nodes_is_refused")),
         "tests/test_workspace.py::test_parser_reads_the_validity_cache",
         "tests/test_workspace.py::test_parsed_semirings_are_the_builders_objects",
         "tests/test_workspace.py::test_module_axiom_violations_located",
         "tests/test_workspace.py::test_corpus_export_round_trips",
         "tests/test_workspace.py::test_repeated_malformed_row_is_located_each_time",
         "tests/test_workspace.py::test_parsed_table_shapes_are_checked",
         "tests/test_codec.py",
         "tests/test_cli.py::test_max_size_past_bound_exits_2_before_building",
         "tests/test_cli.py::test_missing_parts_are_named",
         "tests/test_cli.py::test_row_numbering_gaps_are_located",
         "tests/test_cli.py::test_bad_integers_are_located",
         *(f"tests/test_imports.py::{name}" for name in (
             "test_corpus_path_imports_no_map_layer_at_import_time",
             "test_moved_names_are_the_catalogs_own_objects",
             "test_search_calls_a_searcher_rebound_through_enumeration"))]


def test_slice_passes_under_optimize(src_env):
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *SLICE],
        cwd=ROOT, env=src_env, capture_output=True, text=True)
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    # everything collected passed: nothing failed, errored, skipped or deselected
    assert re.fullmatch(r"\d+ passed(, \d+ warnings?)? in .*", summary), summary


def test_package_has_no_assert_statements():
    """The same rule read statically: no assert statement anywhere in the
    package, since python -O strips them."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "semiexact").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
