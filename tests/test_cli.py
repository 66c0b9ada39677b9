"""Command line behavior: exit codes, payload schemas, pinned outputs."""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
import types
from importlib import resources
from math import comb
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

import compedge
from compedge import Field, cli, graphs, invariants, tables
from compedge.cli import run
from conftest import (closed_form_betti, labeled_verify, past_the_ambient_limit,
                      past_the_oracle_limit, sparse_gnp)

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).parents[1]
SRC = ROOT / "src"
# the Monte Carlo names that `compedge` resolves on first use
LAZY_NAMES = ("ExperimentConfig", "ExperimentSummary", "SweepResult", "sample_gnp",
              "estimate_licci_probability", "threshold_sweep", "summaries_to_csv")
DEEP_JSON = '{"n": 3, "edges": ' + "[" * 2000 + "]" * 2000 + "}"
# SHA-256 of the JSON list [exit code, stdout, stderr] of `verify` with each argument line
VERIFY_DIGESTS = {
    "--max-n 3 --field gf2": "7cbecee78624d80b60e6ad51505c8523ce3d1a5776d665e08ee37dab5e750d4d",
    "--max-n 3 --field q": "e8dce79070958de5aec8b9c4c421c7e4524f96ec586968ebb33cbae49dd2aba0",
    "--max-n 4 --field gf2": "1b32b762914e05232812a70f44e01fa92add016e498c151f43d4fa99bf14b7e6",
    "--max-n 4 --field q": "1749b817eafad31da3b46026ad308d48ffec6287374c72c5e9e7761d1a1fd05e",
    "--max-n 5 --field gf2": "18783174580b6ecb44fdae6358a3d92af6572d92f82d6cb1658100eb65cdb0a1",
    "--max-n 5 --field q": "268ef3a49795ca604bc00bd9c34850b6e27abca1278367aa7a271f1346222b69",
    "--max-n 6 --field gf2": "3fe1a7f2e8e5b79973b310ad25edfead1df573cc0b6d01eb60a6b860137f0ade",
    "--max-n 6 --field q": "23abb73aaed22c3da58ec2dff2a9f4163d95473a9432b545a760b92a8bbae8fe",
    "--max-n 7 --field gf2": "7372fa7b7e204a1d2c905ced3c0e5be8d0b1f606a5996a0226b6076ef659e3fc",
    "--max-n 7 --field q": "ba4de23d6bd46316466cde37fae668299a1832e3f0da64bce7f7e12ee83a5083",
    "--max-n 2": "e945aa45348ca656109b84e6a2a589c92195eaff995345da13ff444a80b6a59f",
    "--max-n 8": "e945aa45348ca656109b84e6a2a589c92195eaff995345da13ff444a80b6a59f",
}


def schema(name: str) -> dict:
    text = resources.files("compedge").joinpath(f"schemas/{name}.schema.json").read_text()
    return json.loads(text)


def check(payload: str, schema_name: str) -> dict | str:
    obj = json.loads(payload)
    jsonschema.validate(obj, schema(schema_name))
    return obj


class TestAnalyze:
    def test_tree_payload(self):
        outcome = run(["analyze", str(FIXTURES / "p4.json")])
        assert outcome.exit_code == 0
        payload = check(outcome.payload, "analyze")
        assert payload["graph_class"] == "tree"
        assert payload["height"] == 2
        assert payload["cohen_macaulay"] is True
        assert payload["pd_ideal"] == 1
        assert payload["reg_ideal"] == 2
        assert payload["licci"] is True
        assert payload["licci_reason"] == "forest"
        assert payload["notes"] == []
        assert "oracle" not in payload

    def test_triangle_with_oracle_agrees(self):
        outcome = run(["analyze", str(FIXTURES / "k3.json"), "--oracle"])
        assert outcome.exit_code == 0
        payload = check(outcome.payload, "analyze")
        assert payload["graph_class"] == "complete"
        assert payload["licci_reason"] == "K3"
        assert payload["notes"] == ["complete_pd_adjusted"]
        assert payload["oracle"]["height"] == 3
        assert payload["oracle"]["pd_ideal"] == 2
        assert payload["mismatches"] == []

    def test_cycle_payload(self):
        outcome = run(["analyze", str(FIXTURES / "c4.json"), "--oracle", "--field", "q"])
        assert outcome.exit_code == 0
        payload = check(outcome.payload, "analyze")
        assert payload["graph_class"] == "other"
        assert payload["cohen_macaulay"] is False
        assert payload["reg_ideal"] == [2, 3]
        assert payload["oracle"]["field"] == "q"
        assert payload["mismatches"] == []

    def test_isolated_vertex_mismatch_sets_exit_code_one(self, tmp_path):
        path = tmp_path / "lonely.json"
        path.write_text('{"n": 4, "edges": [[1, 2]]}')
        outcome = run(["analyze", str(path), "--oracle"])
        assert outcome.exit_code == 1
        payload = check(outcome.payload, "analyze")
        assert payload["notes"] == ["isolated_vertices_outside_hypotheses"]
        mismatched = {m["invariant"] for m in payload["mismatches"]}
        assert mismatched == {"height", "pd_ideal", "reg_ideal"}

    def test_compact_json_flag(self):
        outcome = run(["analyze", str(FIXTURES / "p4.json"), "--json"])
        assert "\n" not in outcome.payload.strip()
        check(outcome.payload, "analyze")

    def test_missing_file(self):
        outcome = run(["analyze", "does-not-exist.json"])
        assert outcome.exit_code == 2
        assert "cannot read graph file" in outcome.diagnostics

    def test_malformed_file_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n1 1\n")
        outcome = run(["analyze", str(path)])
        assert outcome.exit_code == 2
        assert "line 2" in outcome.diagnostics
        assert "self-loop" in outcome.diagnostics

    def test_degenerate_ambient(self, tmp_path):
        path = tmp_path / "k2.txt"
        path.write_text("2 1\n1 2\n")
        outcome = run(["analyze", str(path)])
        assert outcome.exit_code == 2
        assert "degenerate ambient" in outcome.diagnostics

    def test_edgeless_graph(self, tmp_path):
        path = tmp_path / "edgeless.json"
        path.write_text('{"n": 4, "edges": []}')
        outcome = run(["analyze", str(path)])
        assert outcome.exit_code == 2
        assert "edgeless" in outcome.diagnostics

    def test_oracle_answers_past_the_ideal_layers_ambient_limit(self, tmp_path):
        # 25 vertices, one more than an ideal's masks may span: the oracle
        # reads I_c(G) off counts, and the isolated vertices leave mismatches
        path = tmp_path / "twenty-five.txt"
        path.write_text("25 1\n1 2\n")
        outcome = run(["analyze", str(path), "--oracle"])
        assert (outcome.exit_code, outcome.diagnostics) == (1, "")
        payload = check(outcome.payload, "analyze")
        assert payload["notes"] == ["isolated_vertices_outside_hypotheses"]
        assert payload["oracle"]["height"] == 1

    def test_huge_header_is_analyzed_without_walking_the_vertices(self, tmp_path, monkeypatch):
        def walk(graph):
            raise AssertionError("walked every vertex")
        monkeypatch.setattr(graphs.SimpleGraph, "vertices", walk)
        path = tmp_path / "huge.txt"
        path.write_text("1000000000 1\n1 2\n")
        outcome = run(["analyze", str(path)])
        assert outcome.exit_code == 0
        payload = check(outcome.payload, "analyze")
        assert payload["graph_class"] == "disconnected_forest"
        assert payload["notes"] == ["isolated_vertices_outside_hypotheses"]


class TestBetti:
    def test_path_table(self):
        outcome = run(["betti", str(FIXTURES / "p4.json")])
        assert outcome.exit_code == 0
        payload = check(outcome.payload, "betti")
        assert payload == {
            "n": 4, "field": "gf2",
            "betti": [{"i": 0, "j": 0, "value": 1},
                      {"i": 1, "j": 2, "value": 3},
                      {"i": 2, "j": 3, "value": 2}]}

    def test_complete_graph_table(self):
        outcome = run(["betti", str(FIXTURES / "k4.json")])
        payload = check(outcome.payload, "betti")
        values = {(e["i"], e["j"]): e["value"] for e in payload["betti"]}
        assert values == {(0, 0): 1, (1, 2): 6, (2, 3): 8, (3, 4): 3}

    def test_two_disjoint_edges_table(self):
        outcome = run(["betti", str(FIXTURES / "two_disjoint_edges.json")])
        payload = check(outcome.payload, "betti")
        values = {(e["i"], e["j"]): e["value"] for e in payload["betti"]}
        assert values == {(0, 0): 1, (1, 2): 2, (2, 4): 1}

    def test_rational_field_agrees_here(self):
        over_2 = run(["betti", str(FIXTURES / "c4.json")]).payload
        over_q = run(["betti", str(FIXTURES / "c4.json"), "--field", "q"]).payload
        assert json.loads(over_2)["betti"] == json.loads(over_q)["betti"]

    def test_edgeless_graph_rejected(self, tmp_path):
        path = tmp_path / "edgeless.json"
        path.write_text('{"n": 3, "edges": []}')
        outcome = run(["betti", str(path)])
        assert outcome.exit_code == 2

    def test_huge_header_answers_without_walking_the_vertices(self, tmp_path, monkeypatch):
        def walk(graph):
            raise AssertionError("walked every vertex")
        monkeypatch.setattr(graphs.SimpleGraph, "vertices", walk)
        path = tmp_path / "huge.txt"
        path.write_text("1000000000 1\n1 2\n")
        outcome = run(["betti", str(path)])
        assert outcome.exit_code == 0
        n = 10 ** 9
        assert check(outcome.payload, "betti") == {
            "n": n, "field": "gf2",
            "betti": [{"i": 0, "j": 0, "value": 1}, {"i": 1, "j": n - 2, "value": 1}]}


class TestOracleRefusals:
    @pytest.mark.parametrize("text, betti, analyze", [
        ('{"n": 4, "edges": []}', "Betti table undefined for the zero ideal",
         "edgeless graph: the complementary edge ideal is zero"),
        ("2 1\n1 2\n", *["degenerate ambient: need at least 3 vertices, got 2"] * 2),
        # no vertex count is too large: past the ideal layer's ambient limit
        # of 24, only the missing edge is refused
        ('{"n": 25, "edges": []}', "Betti table undefined for the zero ideal",
         "edgeless graph: the complementary edge ideal is zero"),
    ])
    def test_betti_and_analyze_oracle_keep_their_messages(self, tmp_path, text, betti, analyze):
        path = tmp_path / "graph.txt"
        path.write_text(text)
        for argv, message in ((["betti", str(path)], betti),
                              (["analyze", "--oracle", str(path)], analyze)):
            outcome = run(argv)
            assert (outcome.exit_code, outcome.payload) == (2, "")
            assert outcome.diagnostics == f"error: {path}: {message}"


class TestPastTheOracleLimit:
    """betti and analyze --oracle read I_c(G) off counts, so neither the engines' oracle
    limit of 14 nor the ideal layer's ambient limit of 24 binds them."""

    @pytest.mark.parametrize("graph", past_the_oracle_limit() + past_the_ambient_limit(),
                             ids=lambda g: f"n{g.n}")
    @pytest.mark.parametrize("field", list(Field))
    def test_betti_and_analyze_oracle_answer(self, tmp_path, graph, field):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph.to_json_dict()))
        table = closed_form_betti(graph, field)
        outcome = run(["betti", "--field", field.value, str(path)])
        assert outcome.exit_code == 0
        assert check(outcome.payload, "betti") == table.to_json_dict()
        outcome = run(["analyze", "--oracle", "--field", field.value, str(path)])
        payload = check(outcome.payload, "analyze")
        hom = table.reg_pd()
        isolated = len({v for edge in graph.edges for v in edge}) < graph.n
        height = 1 if isolated else 2 if graph.m < comb(graph.n, 2) else 3
        assert payload["oracle"] == {
            "field": field.value, "height": height, "reg_s_mod_i": hom.reg_s_mod_i,
            "pd_s_mod_i": hom.pd_s_mod_i, "reg_ideal": hom.reg_ideal,
            "pd_ideal": hom.pd_ideal, "cohen_macaulay": hom.pd_s_mod_i == height}
        # only the known tension of an isolated vertex leaves a mismatch
        assert bool(payload["mismatches"]) == isolated
        assert outcome.exit_code == (1 if isolated else 0)


class TestAnyVertexCount:
    """Every graph question reads I_c(G) off its edges, so its work is O(m log m) with no
    limit on n: the vertices are never walked, and off an edge they cost nothing."""

    def test_every_graph_question_on_a_billion_vertices(self, tmp_path, monkeypatch):
        n = 10 ** 9
        # a chordless 4-cycle, a triangle with a pendant edge, a far edge
        edges = ((1, 2), (2, 3), (3, 4), (1, 4), (5, 6), (6, 7), (5, 7), (7, 8), (n - 1, n))
        graph = graphs.SimpleGraph(n, edges)
        path = tmp_path / "billion.json"
        path.write_text(json.dumps(graph.to_json_dict()))

        def walk(graph):
            raise AssertionError("walked every vertex")
        monkeypatch.setattr(graphs.SimpleGraph, "vertices", walk)
        questions = (invariants.oracle_invariants, invariants.cross_validate,
                     invariants.implication_suite)
        tracemalloc.start()
        try:
            betti = run(["betti", str(path)])
            analyze = run(["analyze", "--oracle", "--json", str(path)])
            answers = [question(graph, field) for field in Field for question in questions]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # m = 9 edges on n' = 10 vertices in c' = 3 components
        assert betti.exit_code == 0
        assert check(betti.payload, "betti")["betti"] == [
            {"i": 0, "j": 0, "value": 1}, {"i": 1, "j": n - 2, "value": 9},
            {"i": 2, "j": n - 1, "value": 8}, {"i": 2, "j": n, "value": 2},
            {"i": 3, "j": n, "value": 2}]
        assert analyze.exit_code == 1
        oracle = check(analyze.payload, "analyze")["oracle"]
        assert (oracle["height"], oracle["reg_s_mod_i"], oracle["pd_s_mod_i"]) == (1, n - 2, 3)
        for answer in answers[2::3]:
            assert (answer.sequentially_cm, answer.dual_linear_quotients) == (False, "no")
            assert not answer.licci.licci and answer.failed_claims == ()
        assert answers[0].to_json_dict() == oracle

    def test_betti_and_analyze_oracle_on_a_hundred_thousand_vertices(self, tmp_path):
        # seeded G(n, 1/n): about 50,000 edges, and a giant component in the making
        n = 10 ** 5
        graph = graphs.SimpleGraph(n, sparse_gnp(n, 1 / n, n))
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(graph.to_json_dict()))
        start = time.perf_counter()
        betti = run(["betti", str(path)])
        analyze = run(["analyze", "--oracle", "--json", str(path)])
        # under a second on a 2-vCPU host; an O(n^2) step takes minutes
        assert time.perf_counter() - start < 30
        assert betti.exit_code == 0
        assert check(betti.payload, "betti") == closed_form_betti(graph, Field.GF2).to_json_dict()
        assert analyze.exit_code in (0, 1)
        payload = check(analyze.payload, "analyze")
        assert bool(payload["mismatches"]) == (analyze.exit_code == 1)


class TestVerify:
    def test_small_sweep_payload(self):
        outcome = run(["verify", "--max-n", "3"])
        assert outcome.exit_code == 0
        payload = check(outcome.payload, "verify")
        assert payload["graphs_enumerated"] == 8
        assert payload["graphs_analyzed"] == 7
        assert payload["clean"] == 4
        tensions = payload["known_tensions"]
        assert tensions["complete_pd_adjusted"] == {"count": 1}
        assert tensions["isolated_vertices_outside_hypotheses"] == {
            "count": 3, "mismatched": 3}
        assert tensions["disconnected_forest_primal_linear_resolution"] == {
            "true": 3, "false": 0}
        assert payload["unflagged_mismatches"] == []

    def test_four_vertex_sweep_counts(self):
        outcome = run(["verify", "--max-n", "4"])
        assert outcome.exit_code == 0
        payload = check(outcome.payload, "verify")
        assert payload["graphs_enumerated"] == 72
        assert payload["graphs_analyzed"] == 70
        assert payload["clean"] == 45
        assert payload["known_tensions"][
            "disconnected_forest_primal_linear_resolution"] == {"true": 21, "false": 3}
        assert "unflagged mismatches" in outcome.diagnostics

    @pytest.mark.parametrize("argv", VERIFY_DIGESTS)
    def test_exit_code_stdout_and_stderr_are_pinned(self, argv):
        outcome = run(["verify", *argv.split()])
        blob = json.dumps([outcome.exit_code, outcome.payload, outcome.diagnostics])
        assert hashlib.sha256(blob.encode()).hexdigest() == VERIFY_DIGESTS[argv]

    def test_max_n_guard(self):
        assert run(["verify", "--max-n", "8"]).exit_code == 2
        assert run(["verify", "--max-n", "2"]).exit_code == 2

    @pytest.mark.parametrize("field", ["gf2", "q"])
    @pytest.mark.parametrize("max_n", [3, 4, 5, 6])
    def test_classes_give_the_labeled_sweep_byte_for_byte(self, max_n, field):
        outcome = run(["verify", "--max-n", str(max_n), "--field", field])
        assert outcome == labeled_verify(max_n, Field(field))

    def test_a_class_mismatch_lists_its_labeled_orbit_in_enumeration_order(self, monkeypatch):
        # a wrong height on every graph with as many edges as vertices and no
        # isolated vertex: K_3, C_4 (3 labeled copies) and the paw (12) on
        # n = 4, and 5 classes (222 labeled graphs) on n = 5. That is no
        # function of the count type, so each such n goes through the
        # labeled sweep, which gives its totals and lists each graph
        real = invariants._predict

        def wrong(graph):
            report = real(graph)
            if graph.m == graph.n == graph._met:
                return report._replace(height=report.height + 1)
            return report
        monkeypatch.setattr(invariants, "_predict", wrong)
        outcome = run(["verify", "--max-n", "5"])
        assert outcome.exit_code == 1
        unflagged = json.loads(outcome.payload)["unflagged_mismatches"]
        assert [g["graph"]["n"] for g in unflagged].count(4) == 15
        assert len(unflagged) == 1 + 15 + 222
        slow = labeled_verify(5, Field.GF2)
        # the graphs in order first: a failing comparison of the whole
        # payloads would make pytest diff two 120 kB strings
        assert [u["graph"] for u in unflagged] == [
            u["graph"] for u in json.loads(slow.payload)["unflagged_mismatches"]]
        assert outcome == slow

    def test_seven_vertices_reproduce_the_labeled_totals(self):
        # the labeled sweep over the 2,131,016 graphs on n = 3..7 took about a minute
        outcome = run(["verify", "--max-n", "7"])
        assert outcome.exit_code == 0
        payload = check(outcome.payload, "verify")
        assert payload["graphs_enumerated"] == sum(2 ** comb(n, 2) for n in range(3, 8))
        assert payload["graphs_analyzed"] == 2_131_011
        assert payload["clean"] == 1_915_546
        assert payload["known_tensions"] == {
            "complete_pd_adjusted": {"count": 5},
            "isolated_vertices_outside_hypotheses": {"count": 215_465, "mismatched": 215_465},
            "disconnected_forest_primal_linear_resolution": {"true": 13_589, "false": 8_388},
        }
        assert payload["unflagged_mismatches"] == []


class TestGoldenCorpus:
    def test_every_command_line_gives_its_committed_bytes(self, tmp_path):
        # tools/golden.py defines the corpus; `tools/golden.py --write` regenerates the file
        spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        assert tool.digests(tmp_path) == json.loads((FIXTURES / "golden.json").read_text())


def count_calls(monkeypatch, name: str, *modules) -> list:
    """Replace `name` in each module by one counting wrapper; returns the call log."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


class TestOnePassPerGraph:
    def test_analyze_oracle_counts_once_and_builds_no_betti_table(self, monkeypatch):
        # the prediction and the oracle's height, reg and pd share one
        # union-find count, which the parsed graph takes when it is built,
        # and no table of I_c(G) is built to read them
        calls = count_calls(monkeypatch, "_join_count", graphs)

        def refuse(*args):
            raise AssertionError("built a Betti table")
        monkeypatch.setattr(tables.BettiTable, "__new__", refuse)
        outcome = run(["analyze", str(FIXTURES / "k4.json"), "--oracle"])
        assert outcome.exit_code == 0
        assert json.loads(outcome.payload)["oracle"]["pd_s_mod_i"] == 3
        assert len(calls) == 1

    @pytest.mark.parametrize("flags", [[], ["--oracle"], ["--oracle", "--json"]])
    def test_analyze_serialises_the_graph_once(self, monkeypatch, flags):
        calls = count_calls(monkeypatch, "to_json_dict", graphs.SimpleGraph)
        outcome = run(["analyze", str(FIXTURES / "c4.json"), *flags])
        assert outcome.exit_code == 0
        assert len(calls) == 1

    def test_verify_predicts_each_graph_once(self, monkeypatch):
        # once per count type: one graph per type, 3 on n = 3 and 7 on n = 4,
        # stands for the 70 labeled graphs with an edge
        calls = count_calls(monkeypatch, "_predict", invariants)
        outcome = run(["verify", "--max-n", "4"])
        assert json.loads(outcome.payload)["graphs_analyzed"] == 70
        assert len(calls) == 10
        assert len({graph for graph, *_ in calls}) == 10


class TestMonteCarloCommands:
    def test_montecarlo_csv_and_determinism(self):
        args = ["montecarlo", "--n", "50", "--c", "0.5", "--trials", "20", "--seed", "7"]
        first = run(args)
        second = run(args)
        assert first.exit_code == 0
        assert first.payload == second.payload
        lines = first.payload.splitlines()
        assert lines[0] == "n,c,p,trials,seed,licci_count,fraction_licci"
        assert lines[1] == "50,0.5,0.01,20,7,18,0.900000"
        assert "wall time" in first.diagnostics

    def test_montecarlo_rejects_double_probability(self):
        outcome = run(["montecarlo", "--n", "10", "--p", "0.5", "--c", "1.0"])
        assert outcome.exit_code == 2

    def test_montecarlo_rejects_tiny_n(self):
        outcome = run(["montecarlo", "--n", "2", "--p", "0.5"])
        assert outcome.exit_code == 2
        assert "n >= 3" in outcome.diagnostics

    def test_n_above_the_monte_carlo_limit_is_a_usage_error(self, monkeypatch):
        from compedge import experiments

        def no_trials(seed, trial):
            raise AssertionError("a refused configuration must not draw")
        monkeypatch.setattr(experiments, "_trial_generator", no_trials)
        want = "error: n = 1000000000 exceeds the Monte Carlo limit of 100000"
        for argv in (["montecarlo", "--n", "1000000000", "--c", "1"],
                     ["sweep", "--n", "1000000000", "--c", "1,2"]):
            outcome = run(argv)
            assert (outcome.exit_code, outcome.payload, outcome.diagnostics) == (2, "", want)

    def test_sweep_rows(self):
        outcome = run(["sweep", "--n", "40", "--c", "0.2,2,8",
                       "--trials", "50", "--seed", "3"])
        assert outcome.exit_code == 0
        lines = outcome.payload.splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("40,0.2,")
        fractions = [float(line.split(",")[-1]) for line in lines[1:]]
        assert fractions == sorted(fractions, reverse=True)

    def test_nan_probability_is_a_usage_error(self):
        outcome = run(["montecarlo", "--n", "10", "--p", "nan"])
        assert (outcome.exit_code, outcome.payload) == (2, "")
        assert outcome.diagnostics == "error: p must be nonnegative, got nan"
        outcome = run(["sweep", "--n", "10", "--c", "nan,1"])
        assert (outcome.exit_code, outcome.payload) == (2, "")
        assert outcome.diagnostics == "error: c must be nonnegative, got nan"

    def test_sweep_rejects_empty_c_list(self):
        assert run(["sweep", "--n", "10", "--c", ",", "--trials", "5"]).exit_code == 2
        assert run(["sweep", "--n", "10", "--c", "a,b", "--trials", "5"]).exit_code == 2


class TestMdensity:
    def test_cycle_is_one(self):
        outcome = run(["mdensity", str(FIXTURES / "c5.txt")])
        assert outcome.exit_code == 0
        assert check(outcome.payload, "mdensity") == "1/1"

    def test_k4_is_three_halves(self):
        outcome = run(["mdensity", str(FIXTURES / "k4.json")])
        assert check(outcome.payload, "mdensity") == "3/2"

    def test_edgeless_rejected(self, tmp_path):
        path = tmp_path / "none.json"
        path.write_text('{"n": 3, "edges": []}')
        assert run(["mdensity", str(path)]).exit_code == 2

    def test_vertex_limit(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text(f"{graphs.MDENSITY_LIMIT + 1} 1\n1 2\n")
        outcome = run(["mdensity", str(path)])
        assert outcome.exit_code == 2
        assert outcome.payload == ""
        assert "limit" in outcome.diagnostics


# one token is a digit past Python's 4,300-digit int-string limit, so it never parses
TOKENS = ["{", "}", "[", "]", ",", ":", '"n"', '"edges"', '"x"', "true", "null", "-1", "1.5",
          "1e3", "#", "9" * 4301, *map(str, range(13))]
# every number a strategy writes stands alone, so no two can run together
# into an n above 12 that the commands would accept and walk
SPACED_TOKEN = st.sampled_from(TOKENS).map(lambda token: f" {token} ")
# the graph fixtures, not the golden corpus's digests
FIXTURE_TEXTS = [path.read_text() for path in sorted(FIXTURES.iterdir())
                 if path.name != "golden.json"]


def mutate(text: str, at: int, cut: int, insert: str) -> str:
    at %= len(text)
    return text[:at] + insert + text[at + cut:]


def render(n: int, edges: list[tuple[int, int]], as_json: bool) -> str:
    if as_json:
        return json.dumps({"n": n, "edges": edges})
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


GRAPH_TEXTS = st.one_of(
    st.lists(st.tuples(SPACED_TOKEN, st.sampled_from(["", "\n"])), max_size=30).map(
        lambda parts: "".join(token + sep for token, sep in parts)),
    st.builds(mutate, st.sampled_from(FIXTURE_TEXTS), st.integers(0, 200), st.integers(0, 3),
              SPACED_TOKEN | st.just("")),
    st.builds(render, st.integers(0, 12),
              st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), max_size=12),
              st.booleans()),
    # headers past the ideal layer's ambient limit, which mdensity refuses
    # and the other graph commands answer
    st.builds(render, st.integers(25, 10 ** 12),
              st.lists(st.sampled_from([(1, 2), (2, 3), (1, 3), (3, 4)]), max_size=3, unique=True),
              st.just(False)),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=40),
)
GRAPH_COMMANDS = [["analyze"], ["analyze", "--oracle"], ["analyze", "--oracle", "--field", "q"],
                  ["betti"], ["betti", "--field", "q"], ["mdensity"]]


class TestMalformedGraphText:
    @pytest.mark.parametrize("command", ["analyze", "betti", "mdensity"])
    def test_deeply_nested_json_is_an_input_error(self, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        outcome = run([command, str(path)])
        assert outcome.exit_code == 2
        assert outcome.payload == ""
        assert outcome.diagnostics.startswith("error: ")
        assert "nested too deeply" in outcome.diagnostics

    @pytest.mark.parametrize("command", ["analyze", "betti", "mdensity"])
    @pytest.mark.parametrize("raw", [b"3 1\n1 2\xff", b'{"n": ' + b"9" * 5000 + b', "edges": []}'],
                             ids=["invalid_utf8", "long_json_integer"])
    def test_undecodable_file_is_an_input_error_that_names_it(self, tmp_path, command, raw):
        path = tmp_path / "graph.txt"
        path.write_bytes(raw)
        outcome = run([command, str(path)])
        assert outcome.exit_code == 2
        assert outcome.payload == ""
        assert outcome.diagnostics.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("command", ["analyze", "betti", "mdensity"])
    @pytest.mark.parametrize("text", ["9" * 4301 + " 1\n1 2\n", "3 1\n1 " + "9" * 4301 + "\n",
                                      "3 1\n1 " + "9" * 4000 + "\n"],
                             ids=["header_past_digit_limit", "edge_past_digit_limit", "long_label"])
    def test_long_number_is_out_of_range_and_clipped(self, tmp_path, command, text):
        path = tmp_path / "graph.txt"
        path.write_text(text)
        outcome = run([command, str(path)])
        assert outcome.exit_code == 2
        assert outcome.payload == ""
        assert outcome.diagnostics.startswith(f"error: {path}: ")
        assert "out of range" in outcome.diagnostics
        assert len(outcome.diagnostics) < 200 + len(str(path))

    @pytest.mark.parametrize("argv", [["mdensity", "{path}"],
                                      ["montecarlo", "--n", "9" * 3000, "--c", "1"]],
                             ids=["mdensity", "montecarlo"])
    def test_a_long_vertex_count_is_clipped_in_library_errors(self, tmp_path, argv):
        # a 4,000-digit header parses, and the library refuses the vertex count
        path = tmp_path / "graph.txt"
        path.write_text("9" * 4000 + " 1\n1 2\n")
        argv = [arg.format(path=path) for arg in argv]
        outcome = run(argv)
        assert (outcome.exit_code, outcome.payload) == (2, "")
        assert "\n" not in outcome.diagnostics
        prefix = "error: " if argv[0] == "montecarlo" else f"error: {path}: "
        assert outcome.diagnostics.startswith(prefix)
        assert len(outcome.diagnostics) < 200 + len(prefix)

    @settings(max_examples=150, deadline=None)
    @example(text=DEEP_JSON, tail=b"", command=["analyze"])
    @given(text=GRAPH_TEXTS, tail=st.sampled_from([b"", b"\xff", b"\xc3("]),
           command=st.sampled_from(GRAPH_COMMANDS))
    def test_any_text_gets_an_exit_code_and_no_traceback(self, tmp_path_factory, text, tail,
                                                         command):
        path = tmp_path_factory.getbasetemp() / "fuzzed_graph.txt"
        path.write_bytes(text.encode("utf-8") + tail)
        outcome = run([command[0], str(path), *command[1:]])
        assert outcome.exit_code in (0, 1, 2)
        if outcome.exit_code == 2:
            assert outcome.payload == ""
            assert outcome.diagnostics.startswith("error: ")
        else:
            json.loads(outcome.payload)
        if tail:
            # raw bytes that are not UTF-8 never reach the parser
            assert outcome.exit_code == 2 and str(path) in outcome.diagnostics


class TestArgumentErrors:
    def test_no_subcommand(self):
        assert run([]).exit_code == 2

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]).exit_code == 2

    def test_unknown_field_choice(self):
        outcome = run(["betti", str(FIXTURES / "p4.json"), "--field", "gf3"])
        assert outcome.exit_code == 2


class TestOneParser:
    """cli builds its parser once, at import, and wraps usage and help at a fixed width."""

    def test_runs_build_no_parser(self, monkeypatch):
        built = []
        real = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run(["mdensity", str(FIXTURES / "k4.json")]).payload == '"3/2"'
        assert run([]).exit_code == 2
        assert built == []

    @pytest.mark.parametrize("argv", [
        [], ["frobnicate"], ["montecarlo", "--n", "10", "--p", "0.5", "--c", "1.0"],
        ["--help"], ["analyze", "--help"],
    ])
    def test_usage_and_help_do_not_read_the_terminal(self, argv, monkeypatch):
        monkeypatch.delenv("COLUMNS", raising=False)
        outcomes = [run(argv)]
        for columns in ("40", "80", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            outcomes.append(run(argv))
        assert outcomes[1:] == outcomes[:1] * 3


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with these arguments that imports this checkout's src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def run_process(*argv: str) -> subprocess.CompletedProcess:
    """`python -m compedge.cli` in a child that imports this checkout's src/."""
    return run_python("-m", "compedge.cli", *argv)


class TestProcessEntryPoint:
    def test_stdout_stderr_and_exit_code(self):
        proc = run_process("mdensity", str(FIXTURES / "k4.json"))
        assert proc.returncode == 0
        assert proc.stdout == '"3/2"\n'
        assert proc.stderr == ""

    def test_csv_goes_to_stdout_diagnostics_to_stderr(self):
        proc = run_process("montecarlo", "--n", "20", "--c", "1.0", "--trials", "10", "--seed", "5")
        assert proc.returncode == 0
        assert proc.stdout.startswith("n,c,p,")
        assert "wall time" in proc.stderr

    def test_usage_error_exit_code(self):
        proc = run_process("analyze", "missing.json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error:" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["verify", "--max-n", "4"],
        ["analyze", "{isolated}", "--oracle"],
        ["analyze", "missing.json"],
    ])
    def test_a_closed_reader_keeps_the_commands_exit_code(self, argv, tmp_path):
        # like `compedge verify | head -c 10`, with the read end closed before
        # the child writes: no traceback, and exit 0, 1 or 2 as run() decides
        isolated = tmp_path / "isolated.json"
        isolated.write_text('{"n": 4, "edges": [[1, 2], [2, 3]]}')
        argv = [arg.format(isolated=isolated) for arg in argv]
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "compedge.cli", *argv],
                                  stdout=write, stderr=subprocess.PIPE, text=True,
                                  env={**os.environ, "PYTHONPATH": path})
        finally:
            os.close(write)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == run(argv).exit_code


class TestNumpyLoadsLazily:
    """Commands and names load only the layers they run; only Monte Carlo imports numpy."""

    def test_only_the_monte_carlo_commands_import_numpy(self):
        script = textwrap.dedent("""
            import json, sys
            import compedge
            from compedge import cli
            codes = [cli.run(argv).exit_code for argv in json.loads(sys.argv[1])]
            exact_only = "numpy" not in sys.modules
            outcome = cli.run(["montecarlo", "--n", "50", "--c", "0.5", "--trials", "20",
                               "--seed", "7"])
            print(json.dumps([codes, exact_only, "numpy" in sys.modules,
                              outcome.payload.splitlines()[1]]))
        """)
        commands = [["betti", str(FIXTURES / "k4.json")],
                    ["analyze", "--oracle", str(FIXTURES / "c4.json")],
                    ["mdensity", str(FIXTURES / "c5.txt")],
                    ["verify", "--max-n", "3"]]
        proc = run_python("-c", script, json.dumps(commands))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, 0, 0, 0], True, True,
                                           "50,0.5,0.01,20,7,18,0.900000"]

    def test_lazy_names_are_the_experiments_objects(self):
        from compedge import experiments
        for name in LAZY_NAMES:
            assert getattr(compedge, name) is getattr(experiments, name)

    def test_unknown_attribute_is_the_standard_error(self):
        with pytest.raises(AttributeError, match="^module 'compedge' has no attribute 'nope'$"):
            compedge.nope

    @pytest.mark.parametrize("first", ["experiments", "estimate_licci_probability"])
    def test_fresh_interpreter_lists_imports_and_star_imports_them(self, first):
        script = textwrap.dedent(f"""
            import json, sys
            import compedge
            listed = dir(compedge)
            numpy_on_import = "numpy" in sys.modules
            from compedge import {first}
            from compedge import experiments, estimate_licci_probability
            star = {{}}
            exec("from compedge import *", star)
            public = [name for name in dir(compedge) if not name.startswith("_")]
            print(json.dumps([numpy_on_import, listed, sorted(set(star) - {{"__builtins__"}}),
                              public, estimate_licci_probability
                              is experiments.estimate_licci_probability]))
        """)
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        numpy_on_import, listed, star, public, same = json.loads(proc.stdout)
        assert not numpy_on_import
        assert set(LAZY_NAMES) | {"experiments"} <= set(listed)
        assert star == public
        assert [name for name in listed if not name.startswith("_")] == star
        assert set(LAZY_NAMES) | {"experiments", "graphs", "tables", "ideals", "homology",
                                  "invariants"} <= set(star)
        assert same

    def test_every_public_name_is_its_home_modules_object(self):
        for name in compedge.__all__:
            obj = getattr(compedge, name)
            if isinstance(obj, types.ModuleType):
                assert obj is sys.modules[f"compedge.{name}"]
            else:
                assert obj.__module__.startswith("compedge.")
                assert getattr(sys.modules[obj.__module__], name) is obj, name
        # the names that moved to tables stay attributes of their old homes;
        # the engines' oracle limit is homology's own, the mask width's
        # ambient limit the ideal layer's; height's face cap stays there too,
        # as the engine rule lists the dual complex to a bound of its own
        from compedge import homology, ideals
        for name in ("Field", "BettiTable", "_count_betti"):
            assert getattr(homology, name) is getattr(tables, name)
        assert ideals.AMBIENT_LIMIT == 24 and not hasattr(tables, "AMBIENT_LIMIT")
        assert homology.ORACLE_LIMIT == 14 and not hasattr(tables, "ORACLE_LIMIT")
        assert not hasattr(homology, "_DUAL_FACE_CAP")

    def test_import_compedge_loads_no_submodule(self):
        proc = run_python("-c", "import json, sys, compedge; print(json.dumps("
                          "[name for name in sys.modules if name.startswith('compedge')]))")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["compedge"]

    def test_no_layer_imports_dataclasses(self):
        proc = run_python("-c", "import sys; from compedge import cli, experiments, graphs, "
                          "homology, ideals, invariants, tables; print('dataclasses' in "
                          "sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize("argv, layers", [
        (["betti", "{k4}"], {"graphs", "tables"}),
        (["betti", "--field", "q", "{k4}"], {"graphs", "tables"}),
        (["analyze", "{c4}"], {"graphs", "tables", "invariants"}),
        (["analyze", "--oracle", "{c4}"], {"graphs", "tables", "invariants"}),
        (["mdensity", "{c5}"], {"graphs"}),
        (["verify", "--max-n", "4"], {"graphs", "tables", "invariants"}),
        (["montecarlo", "--n", "50", "--c", "0.5", "--trials", "20", "--seed", "7"],
         {"graphs", "tables", "invariants", "experiments"}),
    ])
    def test_a_fresh_command_loads_only_the_layers_it_runs(self, argv, layers):
        # `python -m compedge.cli` as runpy runs it, recording sys.modules at exit
        script = textwrap.dedent("""
            import atexit, json, runpy, sys
            atexit.register(lambda: print(json.dumps([
                sorted(name for name in sys.modules if name.split(".")[0] == "compedge"),
                [name in sys.modules for name in ("numpy", "dataclasses", "inspect")]]),
                file=sys.stderr))
            runpy.run_module("compedge.cli", run_name="__main__", alter_sys=True)
        """)
        files = {"k4": FIXTURES / "k4.json", "c4": FIXTURES / "c4.json", "c5": FIXTURES / "c5.txt"}
        argv = [arg.format(**files) for arg in argv]
        proc = run_python("-c", script, *argv)
        loaded, (numpy_loaded, dataclasses_loaded, inspect_loaded) = json.loads(
            proc.stderr.splitlines()[-1])
        assert loaded == sorted({"compedge"} | {f"compedge.{layer}" for layer in layers})
        assert numpy_loaded == ("experiments" in layers)
        # no record type is a dataclass; numpy itself loads inspect
        assert not dataclasses_loaded
        assert inspect_loaded == numpy_loaded
        outcome = run(argv)
        assert proc.returncode == outcome.exit_code
        assert proc.stdout == outcome.payload + ("" if outcome.payload.endswith("\n") else "\n")
