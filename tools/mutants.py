"""Mutation checks: each named mutant of src/compedge must fail its pytest selection.

    python3 tools/mutants.py             # every mutant
    python3 tools/mutants.py NAME ...    # the named ones

A mutant is one exact-string replacement in one module. For each, the script
copies src/, tests/, tools/ and pyproject.toml to a fresh temporary
directory, applies the replacement there and runs the mutant's pytest
selection on the copy with a fixed hypothesis seed, so the tree it is run from
is never written. A failing selection prints "caught", a passing one
"survived". Equivalent mutants, which cannot change any result, are listed
with the reason and not run. A last line gives the totals, "N caught, M
equivalent, K survived". The exit status is 0 when every mutant is caught, 1
when one survives, and 2 when a mutant's text is no longer found exactly once
in its module or its selection does not run. Standard library only; not part
of tier-1, as it runs pytest once per mutant. tests/test_mutants.py, which is, checks without
running a mutant that each text is found once and each selection exists.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    selection: tuple[str, ...]


class Equivalent(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    reason: str


HOMOLOGY = "tests/test_homology.py::TestBettiTables::"
STREAM = "tests/test_experiments.py::TestStreamStop::"
SHARED = "tests/test_invariants.py::TestSharedRecords::"
FIELD = ("tests/test_invariants.py::TestOracleAndCrossValidation::"
         "test_a_field_that_is_no_member_is_refused_before_any_record")
CENSUS = "tests/test_graphs.py::TestCensus::"
VERIFY = "tests/test_cli.py::TestVerify::"
GOLDEN = "tests/test_cli.py::TestGoldenCorpus::test_every_command_line_gives_its_committed_bytes"
ONE_PARSER = "tests/test_cli.py::TestOneParser::"
# the end of one chunk of the Monte Carlo stream, and the same lines with the
# exit tested before this chunk's cycle check (one chunk late) or before this
# chunk's pairs are kept (one chunk early)
STREAM_CHECK = "            closed = _closing(parent, us.tolist(), vs.tolist()) >= 0\n"
STREAM_KEEP = ("            offsets.append(hoffs)\n            kept.append(hdraws)\n"
               "            size += hits.size\n")
STREAM_BREAK = "            if closed:\n                break\n"
STREAM_EXIT = STREAM_CHECK + STREAM_KEEP + STREAM_BREAK
STREAM_EXIT_LATE = STREAM_KEEP + STREAM_BREAK + STREAM_CHECK
STREAM_EXIT_EARLY = STREAM_CHECK + STREAM_BREAK + STREAM_KEEP

MUTANTS = [
    # the primal engine's filter, and the bound to which the engine rule lists
    # the dual complex (the dual witness has 158 faces)
    Mutant("primal-filter-inside-the-complement", "homology.py",
           "f & ~sigma == 0", "f & sigma == 0",
           (HOMOLOGY + "test_every_ideal_on_at_most_four_variables",)),
    Mutant("dual-face-bound-64", "homology.py",
           "isqrt(3 ** (n + 1))", "64",
           (HOMOLOGY + "test_the_face_cap_never_moves_the_engine_choice",)),
    # height's own cap, which picks the f-vector over the cover search
    Mutant("height-face-cap-64", "ideals.py",
           "_DUAL_FACE_CAP = 4096", "_DUAL_FACE_CAP = 64",
           ("tests/test_ideals.py::TestCoversHeightDual::"
            "test_height_does_not_search_covers_under_the_face_cap",)),
    # the graph kernel: the dual formula on a dual complex of dimension <= 1,
    # its table built from counts by the helper the graph-level entry shares
    # (tables._count_betti)
    Mutant("graph-drop-facet-vertex-term", "tables.py",
           "((1, n - 1), points), ", "",
           (HOMOLOGY + "test_graph_kernel_on_every_one_dimensional_dual",)),
    Mutant("graph-components-without-facet-vertices", "tables.py",
           "met + points - joins - 1", "met - joins - 1",
           (HOMOLOGY + "test_graph_kernel_on_every_one_dimensional_dual",)),
    Mutant("graph-route-on-indeg-n-3", "homology.py",
           "if indeg >= n - 2:", "if indeg >= n - 3:",
           (HOMOLOGY + "test_every_ideal_on_at_most_four_variables",)),
    Mutant("graph-never-route", "homology.py",
           "if indeg >= n - 2:", "if False:",
           (HOMOLOGY + "test_complementary_edge_ideals_skip_the_subset_walk",)),
    # the graph-level entry's table of I_c(G) off m, n' and c', through the
    # shared count helper with no isolated facet vertex, and the height of
    # _count_invariants
    Mutant("entry-components-without-the-minus-one", "tables.py",
           "((2, n), met + points - joins - 1)", "((2, n), met + points - joins)",
           ("tests/test_homology.py::TestGraphOracle::"
            "test_count_step_matches_the_graph_kernel_on_raw_masks",)),
    Mutant("entry-height-one-without-an-isolated-vertex", "tables.py",
           "1 if met < n", "1 if met <= n",
           ("tests/test_homology.py::TestGraphOracle::"
            "test_atlas_classes_to_seven_against_both_engines_and_the_cover_search",)),
    # the count table is listed in key order, and reg_pd reads pd as the
    # largest index over entries in any order
    Mutant("count-entries-out-of-key-order", "tables.py",
           "((2, n - 1), 2 * m - met),\n               ((2, n), met + points - joins - 1)",
           "((2, n), met + points - joins - 1),\n               ((2, n - 1), 2 * m - met)",
           ("tests/test_homology.py::TestTableKeyOrder::"
            "test_count_table_equals_the_dict_table_on_every_feasible_count",)),
    Mutant("reg-pd-off-the-first-entry", "tables.py",
           "            if i > pd:\n                pd = i\n", "",
           ("tests/test_homology.py::TestRegPd::test_conversions",)),
    # the oracle limit binds the two engines alone: it is checked after the
    # count route, which answers up to the ambient limit
    Mutant("engine-without-the-oracle-limit", "homology.py",
           "    _require_oracle(n)\n    full = (1 << n) - 1", "    full = (1 << n) - 1",
           (HOMOLOGY + "test_ambient_limit_guard",)),
    Mutant("oracle-limit-above-the-count-route", "homology.py",
           "    if indeg >= n - 2:\n        return _graph_betti(n, masks, field)\n"
           "    _require_oracle(n)\n",
           "    _require_oracle(n)\n    if indeg >= n - 2:\n"
           "        return _graph_betti(n, masks, field)\n",
           ("tests/test_homology.py::TestGraphOracle::"
            "test_count_level_questions_answer_past_the_oracle_limit",)),
    # height, reg and pd of I_c(G) off the counts, with no table built
    Mutant("closed-form-reg-split-at-one-component", "tables.py",
           "n - 2 if met - joins >= 2", "n - 2 if met - joins >= 1",
           ("tests/test_homology.py::TestCountInvariants::"
            "test_every_labeled_graph_to_six_against_the_tables_and_the_cover_search",)),
    Mutant("closed-form-cycle-pd-two", "tables.py",
           "3 if m > joins else", "2 if m > joins else",
           ("tests/test_homology.py::TestCountInvariants::"
            "test_every_labeled_graph_to_six_against_the_tables_and_the_cover_search",)),
    Mutant("closed-form-pd-without-the-split", "tables.py",
           "2 * m > met or met - joins >= 2", "2 * m > met",
           ("tests/test_homology.py::TestCountInvariants::"
            "test_every_labeled_graph_to_six_against_the_tables_and_the_cover_search",)),
    Mutant("closed-form-pd-two-on-one-edge", "tables.py",
           "2 * m > met or", "2 * m >= met or",
           ("tests/test_homology.py::TestCountInvariants::"
            "test_every_labeled_graph_to_six_against_the_tables_and_the_cover_search",)),
    Mutant("closed-form-height-two-on-complete", "tables.py",
           "2 if m < comb(n, 2) else 3", "2 if m <= comb(n, 2) else 3",
           ("tests/test_homology.py::TestCountInvariants::"
            "test_every_labeled_graph_to_six_against_the_tables_and_the_cover_search",)),
    # the ideal layer accepts ambient size 0
    Mutant("ambient-size-zero-refused", "ideals.py",
           "if not 0 <= n <= AMBIENT_LIMIT:", "if not 0 < n <= AMBIENT_LIMIT:",
           ("tests/test_ideals.py::TestConstructor::test_ambient_size_zero_is_accepted",)),
    # a field that is no Field member would pass for the rationals in the
    # engines, and tag the answer of a count route, whose JSON then raises
    Mutant("homology-takes-any-field", "homology.py",
           "    _require_field(field)\n    faces_by_size", "    faces_by_size",
           ("tests/test_homology.py::TestReducedHomology::"
            "test_a_field_that_is_no_member_is_refused",)),
    Mutant("betti-takes-any-field", "homology.py",
           "    _require_field(field)\n    if ideal.is_zero:\n        raise ValueError(\"Betti",
           "    if ideal.is_zero:\n        raise ValueError(\"Betti", (FIELD,)),
    Mutant("componentwise-linear-takes-any-field", "homology.py",
           "    _require_field(field)\n    if ideal.is_zero:\n"
           "        raise ValueError(\"componentwise",
           "    if ideal.is_zero:\n        raise ValueError(\"componentwise", (FIELD,)),
    Mutant("oracle-takes-any-field", "invariants.py",
           "    _require_field(field)\n    return _oracle_record(", "    return _oracle_record(",
           (FIELD,)),
    Mutant("cross-validate-takes-any-field", "invariants.py",
           "    _require_field(field)\n    predicted = ", "    predicted = ", (FIELD,)),
    Mutant("suite-takes-any-field", "invariants.py",
           "    _require_field(field)\n    n, m, met, joins = ", "    n, m, met, joins = ",
           (FIELD,)),
    # the predicted initial degree of each class, and the Huneke-Ulrich bound
    Mutant("predicted-indeg-of-a-complete-graph", "invariants.py",
           "n - 2, verdict,\n                           _COMPLETE_NOTES",
           "n + 2, verdict,\n                           _COMPLETE_NOTES",
           ("tests/test_invariants.py::TestPredictions::"
            "test_every_field_of_every_class_against_slow_paths",)),
    Mutant("predicted-indeg-of-a-cycle", "invariants.py",
           "(n - 2, n - 1), n - 2, verdict", "(n - 2, n - 1), n + 2, verdict",
           ("tests/test_invariants.py::TestPredictions::"
            "test_every_field_of_every_class_against_slow_paths",)),
    # the shared records: what each is built from, and the bound on how many are kept
    Mutant("oracle-record-without-the-field", "invariants.py",
           "OracleInvariants(field, ht,", "OracleInvariants(Field.GF2, ht,",
           (SHARED + "test_graphs_of_one_class_or_one_count_share_one_record",)),
    Mutant("prediction-record-without-isolated-vertices", "invariants.py",
           "m == n - 1, graph._met < n)", "m == n - 1, False)",
           (SHARED + "test_graphs_of_one_class_or_one_count_share_one_record",
            "tests/test_invariants.py::TestPredictions::"
            "test_notes_and_provenance_are_one_constant_per_class")),
    Mutant("records-kept-across-vertex-counts", "invariants.py",
           "@lru_cache(maxsize=256)\ndef _class_report(",
           "@lru_cache(maxsize=None)\ndef _class_report(",
           (SHARED + "test_records_of_one_vertex_count_at_a_time",)),
    # cross_validate's one lookup past the prediction: keyed by the prediction
    # _predict gives, not by one read again off the counts, it holds the
    # oracle record of each field, and as few entries as the other records
    Mutant("checked-key-is-the-class-not-the-prediction", "invariants.py",
           "_checked(predicted, *_count_invariants(",
           "_checked(_class_report(graph.n, predicted.verdict, predicted.graph_class == "
           "\"tree\", graph._met < graph.n), *_count_invariants(",
           ("tests/test_invariants.py::TestOracleAndCrossValidation::"
            "test_the_mismatches_are_those_of_the_prediction_predict_gives",)),
    Mutant("checked-oracle-of-one-field", "invariants.py",
           "predicted, oracles[field]))", "predicted, oracles[Field.GF2]))",
           (SHARED + "test_graphs_of_one_class_or_one_count_share_one_record",)),
    Mutant("checked-kept-across-vertex-counts", "invariants.py",
           "@lru_cache(maxsize=256)\ndef _checked(", "@lru_cache(maxsize=None)\ndef _checked(",
           (SHARED + "test_records_of_one_vertex_count_at_a_time",)),
    Mutant("huneke-ulrich-height-minus-two", "invariants.py",
           "(height_ - 1) * (indeg - 1)", "(height_ - 2) * (indeg - 1)",
           ("tests/test_invariants.py::TestHunekeUlrich",)),
    Mutant("huneke-ulrich-indeg-minus-two", "invariants.py",
           "(height_ - 1) * (indeg - 1)", "(height_ - 1) * (indeg - 2)",
           ("tests/test_invariants.py::TestHunekeUlrich",)),
    # the component chain's tables, read without building an ideal
    Mutant("chain-regularity-off-by-one", "homology.py",
           ".reg_ideal != d:", ".reg_s_mod_i != d:",
           ("tests/test_homology.py::TestRingPredicates::"
            "test_veronese_exit_agrees_with_every_degree_on_every_ideal_to_four",)),
    # the implication suite reads the dual's linear resolution off its
    # componentwise linearity, for one generator degree only, and counts the
    # degrees off the graph: isolated vertices, non-edges, triangles; a
    # forest, read off the one union-find count, is chordal with no triangle
    Mutant("suite-linear-without-one-degree", "invariants.py",
           "dual_lin = dual_cl and degrees == 1", "dual_lin = dual_cl",
           ("tests/test_invariants.py::TestImplicationSuite::"
            "test_payload_digest_over_every_graph_to_five_and_forest_on_six",)),
    Mutant("suite-degrees-without-isolated-vertices", "invariants.py",
           "degrees = (met < n) + ", "degrees = ",
           ("tests/test_invariants.py::TestImplicationSuite::"
            "test_payload_digest_over_every_graph_to_five_and_forest_on_six",)),
    Mutant("suite-degrees-without-triangles", "invariants.py",
           " + (not forest)", "",
           ("tests/test_invariants.py::TestImplicationSuite::"
            "test_payload_digest_over_every_graph_to_five_and_forest_on_six",)),
    Mutant("suite-every-graph-a-forest", "invariants.py",
           "forest = joins == m", "forest = True",
           ("tests/test_invariants.py::TestImplicationSuite::"
            "test_payload_digest_over_every_graph_to_five_and_forest_on_six",)),
    Mutant("suite-primal-linear-with-two-components", "invariants.py",
           "primal_lin = met - joins <= 1", "primal_lin = met - joins <= 2",
           ("tests/test_invariants.py::TestImplicationSuite::"
            "test_payload_digest_over_every_graph_to_five_and_forest_on_six",)),
    # the counts a graph takes when it is built, which every question reads,
    # and the value fields they stay out of
    Mutant("graph-counts-one-edge-short", "graphs.py",
           "_join_count(canon)", "_join_count(canon[1:])",
           ("tests/test_graphs.py::TestStoredCounts",)),
    Mutant("is-forest-reads-met", "graphs.py",
           "return graph._joins == graph.m", "return graph._met == graph.m",
           ("tests/test_graphs.py::TestPredicates::test_forest_tree_complete",)),
    Mutant("frozen-fields-take-private-slots", "graphs.py",
           "for name in cls.__slots__ if not name.startswith(\"_\")",
           "for name in cls.__slots__",
           ("tests/test_graphs.py::TestRecords::test_repr_hash_frozen_fields_and_pickle",)),
    # the edge-list parser numbers its nonblank lines once, from 1: the line of
    # edge k, which SimpleGraph names by index, counts the blank lines before it
    Mutant("edge-error-on-the-header-line", "graphs.py",
           "line=rows[exc.edge + 1])", "line=rows[0])",
           ("tests/test_graphs.py::TestParseLineFormat",)),
    Mutant("edge-lines-numbered-without-the-blank-ones", "graphs.py",
           "line=rows[exc.edge + 1])", "line=exc.edge + 2)",
           ("tests/test_graphs.py::TestParseLineFormat",)),
    Mutant("edge-list-lines-numbered-from-zero", "graphs.py",
           "enumerate(lines, 1)", "enumerate(lines)",
           ("tests/test_graphs.py::TestParseLineFormat",)),
    # its numbers are ASCII decimal digits after at most one sign, and a JSON
    # edge is a pair of ints, neither of them a bool
    Mutant("edge-list-number-without-isascii", "graphs.py",
           "digits.isascii() and digits.isdigit()", "digits.isdigit()",
           ("tests/test_graphs.py::TestParseLineFormat::"
            "test_numbers_are_ascii_decimal_with_an_optional_sign",)),
    Mutant("edge-list-number-without-a-sign", "graphs.py",
           'digits = token[1:] if token[:1] in "+-" else token', "digits = token",
           ("tests/test_graphs.py::TestParseLineFormat::test_a_sign_and_leading_zeros_are_read",)),
    Mutant("json-edge-first-endpoint-unchecked", "graphs.py",
           "or type(item[0]) is not int or type(item[1]) is not int",
           "or type(item[1]) is not int",
           ("tests/test_graphs.py::TestParseJsonFormat::test_wrong_types",)),
    # the chordality kernel that decides the dual's componentwise linearity
    # and its linear quotients: maximum cardinality search and the check of
    # its reverse visit order as a perfect elimination ordering
    Mutant("chordal-skip-the-clique-test", "graphs.py",
           "if any(w != p and w not in adjacent[p] for w in earlier):", "if False:",
           ("tests/test_graphs.py::TestChordalityKernel",)),
    Mutant("chordal-earliest-visited-earlier-neighbour", "graphs.py",
           "p = max(earlier, key=position.__getitem__)",
           "p = min(earlier, key=position.__getitem__)",
           ("tests/test_graphs.py::TestChordalityKernel",)),
    Mutant("chordal-clique-test-holds-p-to-itself", "graphs.py",
           "w != p and w not in adjacent[p]", "w not in adjacent[p]",
           ("tests/test_graphs.py::TestChordalityKernel",)),
    Mutant("chordal-search-by-least-weight", "graphs.py",
           "heappush(heap, (-weight[w], w))", "heappush(heap, (weight[w], w))",
           ("tests/test_graphs.py::TestChordalityKernel",)),
    Mutant("suite-quotients-yes-past-a-non-linear-dual", "invariants.py",
           '"yes" if dual_cl else "no"', '"yes"',
           ("tests/test_invariants.py::TestImplicationSuite::"
            "test_payload_digest_over_every_graph_to_five_and_forest_on_six",)),
    # verify from the census of count types: Cayley's tree count, the perfect
    # matchings (the forests on met = 2c' vertices), K_n kept out of the
    # cycle kind, a graph of each type's own kind, and a type that mismatches
    # outside the tensions sending its n through the labeled sweep, which
    # then gives that n's totals and its list
    Mutant("census-cayley-k-to-the-k-minus-one", "graphs.py",
           "k ** (k - 2)", "k ** (k - 1)",
           (CENSUS + "test_weights_give_the_oeis_counts_to_twelve",)),
    Mutant("census-without-perfect-matchings", "graphs.py",
           "for c in range(1, met // 2 + 1):", "for c in range(1, (met - 1) // 2 + 1):",
           (CENSUS + "test_weights_are_the_atlas_orbit_sums_of_each_type_to_seven",)),
    Mutant("census-complete-also-a-cycle", "graphs.py",
           " - (met == n and c == 1)", "",
           (CENSUS + "test_weights_are_the_atlas_orbit_sums_of_each_type_to_seven",)),
    Mutant("census-cycle-type-drawn-as-a-forest", "graphs.py",
           "forest + [(2 * c - 1, 2 * c + 1)]", "forest",
           (CENSUS + "test_weights_are_the_atlas_orbit_sums_of_each_type_to_seven",)),
    Mutant("verify-reads-the-level-below", "cli.py",
           "for graph, weight in _census(n)]", "for graph, weight in _census(n - 1)]",
           (VERIFY + "test_exit_code_stdout_and_stderr_are_pinned",)),
    # the bytes of every command, pinned by the golden corpus
    Mutant("dump-indent-one", "cli.py",
           "json.dumps(obj, indent=2)", "json.dumps(obj, indent=1)", (GOLDEN,)),
    Mutant("verify-payload-keys-swapped", "cli.py",
           '        "graphs_enumerated": enumerated,\n        "graphs_analyzed": analyzed,\n',
           '        "graphs_analyzed": analyzed,\n        "graphs_enumerated": enumerated,\n',
           (GOLDEN,)),
    Mutant("verify-expand-lists-isolated", "cli.py",
           "            elif isolated:\n", "            elif False:\n",
           (VERIFY + "test_a_class_mismatch_lists_its_labeled_orbit_in_enumeration_order",)),
    Mutant("verify-fallback-totals-from-the-census", "cli.py",
           "reports = ((cross_validate(graph, field), 1)",
           "reports += ((cross_validate(graph, field), 0)",
           (VERIFY + "test_a_class_mismatch_lists_its_labeled_orbit_in_enumeration_order",)),
    Mutant("verify-sweeps-past-the-tensions", "cli.py",
           "if any(not report.clean and NOTE_ISOLATED not in report.predicted.notes\n"
           "               for report, _ in reports):",
           "if any(not report.clean for report, _ in reports):",
           ("tests/test_cli.py::TestOnePassPerGraph::test_verify_predicts_each_graph_once",)),
    # the one Alexander dual, the cover search, against the cover rule of
    # I_c(G); the component chain and the quotient search
    Mutant("dual-branch-on-the-lowest-vertex-only", "ideals.py",
           "bits = first\n", "bits = first & -first\n",
           ("tests/test_ideals.py::TestComplementaryEdgeDual::"
            "test_follows_the_cover_rule_on_every_small_graph_and_forest",)),
    Mutant("dual-skip-the-first-generator", "ideals.py",
           "extend(0, ideal.masks)", "extend(0, ideal.masks[1:])",
           ("tests/test_ideals.py::TestComplementaryEdgeDual::test_follows_the_cover_rule",)),
    Mutant("chain-skip-generators-of-degree-3-up", "ideals.py",
           "component.update(by_degree[d])", "component.update(by_degree[d] if d < 3 else [])",
           ("tests/test_ideals.py",)),
    Mutant("quotients-pairs-as-singletons", "ideals.py",
           "if not d & (d - 1):", "if d.bit_count() <= 2:",
           ("tests/test_ideals.py",)),
    Mutant("quotients-keep-a-choice-on-backtrack", "ideals.py",
           "            chosen.pop()\n            continue\n", "            continue\n",
           ("tests/test_ideals.py",)),
    # one parser, built at import, wrapping usage and help at 78 columns
    Mutant("cli-width-from-the-terminal", "cli.py",
           "argparse.HelpFormatter, width=78)", "argparse.HelpFormatter, width=None)",
           (ONE_PARSER + "test_usage_and_help_do_not_read_the_terminal",)),
    Mutant("cli-parser-per-call", "cli.py",
           "args = _PARSER.parse_args(argv)", "args = build_parser().parse_args(argv)",
           (ONE_PARSER + "test_runs_build_no_parser",)),
    # each command imports the layers it runs inside its handler
    Mutant("cli-eager-invariants-import", "cli.py",
           "from .graphs import (DEFAULT_ENUMERATION_LIMIT",
           "from .invariants import cross_validate, predict_invariants\n"
           "from .graphs import (DEFAULT_ENUMERATION_LIMIT",
           ("tests/test_cli.py::TestNumpyLoadsLazily::"
            "test_a_fresh_command_loads_only_the_layers_it_runs",)),
    # no layer loads dataclasses: the validating types share graphs._Frozen,
    # which hashes as the tuple of their fields
    Mutant("graphs-eager-dataclasses-import", "graphs.py",
           "import json\n", "import dataclasses\nimport json\n",
           ("tests/test_cli.py::TestNumpyLoadsLazily::"
            "test_a_fresh_command_loads_only_the_layers_it_runs",)),
    Mutant("record-hash-over-edges-only", "graphs.py",
           "return hash(self._values(self))", "return hash(self._values(self)[1:])",
           ("tests/test_graphs.py::TestRecords",)),
    # the Monte Carlo stream: a union-find over the pairs drawn below the
    # smallest p, in stream order across chunks, stops a trial at the chunk
    # whose pairs close a cycle; tau, read in draw order only for a sweep
    # whose stream closed none, and the spot checks of the first trials
    Mutant("stream-below-or-at-low", "experiments.py",
           "hoffs[hdraws < low]", "hoffs[hdraws <= low]",
           (STREAM + "test_a_pair_drawn_exactly_at_p_is_absent",)),
    Mutant("stream-below-the-largest-p", "experiments.py",
           "hoffs[hdraws < low]", "hoffs[hdraws < top]",
           (STREAM + "test_counts_match_an_independent_recount",)),
    Mutant("stream-cycle-ignored", "experiments.py",
           "closed = _closing(parent, us.tolist(), vs.tolist()) >= 0", "closed = False",
           (STREAM + "test_counts_match_an_independent_recount",)),
    Mutant("stream-union-find-per-chunk", "experiments.py",
           "        parent = list(range(n))\n        for lo in range(0, total, CHUNK):\n",
           "        for lo in range(0, total, CHUNK):\n            parent = list(range(n))\n",
           (STREAM + "test_counts_match_an_independent_recount",)),
    Mutant("stream-exit-a-chunk-late", "experiments.py",
           STREAM_EXIT, STREAM_EXIT_LATE,
           (STREAM + "test_a_cycle_in_the_first_chunk_makes_one_fill",)),
    Mutant("stream-exit-a-chunk-early", "experiments.py",
           STREAM_EXIT, STREAM_EXIT_EARLY,
           ("tests/test_experiments.py::TestChunkedStream::"
            "test_spot_checks_see_the_chunks_drawn_and_the_full_verdict",)),
    Mutant("tau-strictly-above-p", "experiments.py",
           "forest_trial = p <= tau", "forest_trial = p < tau",
           (STREAM + "test_a_pair_drawn_exactly_at_p_is_absent",)),
    Mutant("sweep-without-tau", "experiments.py",
           "needs_tau = low < top and not closed", "needs_tau = False",
           ("tests/test_experiments.py::TestSweep::test_rows_match_an_independent_recount",)),
    # a bool is no probability
    Mutant("probability-takes-a-bool", "experiments.py",
           "not isinstance(value, Real) or isinstance(value, bool):",
           "not isinstance(value, Real):",
           ("tests/test_experiments.py::TestConfig::"
            "test_probabilities_are_real_numbers_or_refused_by_name",)),
    Mutant("spot-check-dropped", "experiments.py",
           "spot = trial < SPOT_CHECK_TRIALS", "spot = False",
           ("tests/test_experiments.py::TestEstimates::"
            "test_spot_check_catches_a_broken_fast_path",)),
]

EQUIVALENT = [
    Equivalent("primal-every-sigma", "homology.py",
               "        if u != sigma:\n            continue\n", "",
               "a sigma off the lcm lattice has a vertex in no generator inside it, so its "
               "restriction is a cone on that vertex, with no reduced homology"),
    Equivalent("suite-chordality-kernel-on-forests", "invariants.py",
               "dual_cl = forest or _is_chordal(graph)", "dual_cl = _is_chordal(graph)",
               "every forest is chordal"),
    Equivalent("checked-key-without-isolated-vertices", "invariants.py",
               "_checked(predicted, *_count_invariants(",
               "_checked(predicted._replace(notes=()), *_count_invariants(",
               "the isolated-vertex flag sets only the prediction's notes, which no mismatch "
               "reads, and the report keeps the prediction _predict gave"),
]


def source(module: str) -> str:
    return (ROOT / "src" / "compedge" / module).read_text()


def located(module: str, old: str) -> bool:
    return source(module).count(old) == 1


def run(selection: tuple[str, ...], mutant: Mutant | None = None) -> int:
    """The pytest exit status of the selection on a copy, mutated when a mutant is given."""
    with tempfile.TemporaryDirectory(prefix="compedge-mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=skip)
        shutil.copytree(ROOT / "tools", copy / "tools", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant:
            target = copy / "src" / "compedge" / mutant.module
            target.write_text(source(mutant.module).replace(mutant.old, mutant.new))
        env = os.environ | {"PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *selection],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(names: list[str]) -> int:
    known = {m.name for m in MUTANTS} | {e.name for e in EQUIVALENT}
    unknown = sorted(set(names) - known)
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    # a selection that fails unmutated would call every mutant caught
    selections = tuple(dict.fromkeys(t for m in chosen for t in m.selection))
    if selections and run(selections):
        print("the unmutated tree fails the selections", file=sys.stderr)
        return 2
    equivalent = [e for e in EQUIVALENT if not names or e.name in names]
    for e in equivalent:
        if not located(e.module, e.old):
            print(f"{e.name}: text not found once in {e.module}", file=sys.stderr)
            return 2
        print(f"equivalent {e.name}: {e.reason}")
    survived = 0
    for m in chosen:
        if not located(m.module, m.old):
            print(f"{m.name}: text not found once in {m.module}", file=sys.stderr)
            return 2
        code = run(m.selection, m)
        if code not in (0, 1):
            print(f"{m.name}: pytest exited {code} on {' '.join(m.selection)}",
                  file=sys.stderr)
            return 2
        print(f"{'caught' if code else 'survived'} {m.name}", flush=True)
        survived += not code
    print(f"{len(chosen) - survived} caught, {len(equivalent)} equivalent, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
