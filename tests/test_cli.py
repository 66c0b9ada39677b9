"""Command line behavior: exit codes, payload schemas, pinned outputs."""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from importlib import resources
from math import comb
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

import compedge
from compedge import Field, cli, graphs, invariants
from compedge.cli import run
from conftest import labeled_verify

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parents[1] / "src"
# the Monte Carlo names that `compedge` resolves on first use
LAZY_NAMES = ("ExperimentConfig", "ExperimentSummary", "SweepResult", "sample_gnp",
              "estimate_licci_probability", "threshold_sweep", "summaries_to_csv")
DEEP_JSON = '{"n": 3, "edges": ' + "[" * 2000 + "]" * 2000 + "}"


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

    def test_oracle_limit_is_a_usage_error(self, tmp_path):
        path = tmp_path / "fifteen.txt"
        path.write_text("15 1\n1 2\n")
        outcome = run(["analyze", str(path), "--oracle"])
        assert outcome.exit_code == 2
        assert outcome.payload == ""
        assert outcome.diagnostics.startswith("error: ")
        assert "oracle limit" in outcome.diagnostics

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

    def test_huge_header_refused_before_walking_the_vertices(self, tmp_path, monkeypatch):
        def walk(graph):
            raise AssertionError("walked every vertex before the ambient check")
        monkeypatch.setattr(graphs.SimpleGraph, "vertices", walk)
        path = tmp_path / "huge.txt"
        path.write_text("1000000000 1\n1 2\n")
        outcome = run(["betti", str(path)])
        assert outcome.exit_code == 2
        assert "ambient size" in outcome.diagnostics


class TestOracleRefusals:
    @pytest.mark.parametrize("text, betti, analyze", [
        ('{"n": 4, "edges": []}', "Betti table undefined for the zero ideal",
         "edgeless graph: the complementary edge ideal is zero"),
        ("2 1\n1 2\n", *["degenerate ambient: need at least 3 vertices, got 2"] * 2),
        ("15 1\n1 2\n", *["ambient size 15 exceeds the oracle limit of 14"] * 2),
        ("25 1\n1 2\n", *["ambient size 25 outside supported range 0..24"] * 2),
    ])
    def test_betti_and_analyze_oracle_keep_their_messages(self, tmp_path, text, betti, analyze):
        path = tmp_path / "graph.txt"
        path.write_text(text)
        for argv, message in ((["betti", str(path)], betti),
                              (["analyze", "--oracle", str(path)], analyze)):
            outcome = run(argv)
            assert (outcome.exit_code, outcome.payload) == (2, "")
            assert outcome.diagnostics == f"error: {path}: {message}"


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
        # n = 4, and 5 classes (222 labeled graphs) on n = 5, each listed as
        # every member it stands for
        real = invariants._predict

        def wrong(graph, met, joins):
            report = real(graph, met, joins)
            if graph.m == graph.n == met:
                return dataclasses.replace(report, height=report.height + 1)
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
    def test_analyze_oracle_computes_one_betti_table(self, monkeypatch):
        # every table of I_c(G) comes from the one graph-level entry
        calls = count_calls(monkeypatch, "_graph_oracle", invariants)
        outcome = run(["analyze", str(FIXTURES / "k4.json"), "--oracle"])
        assert outcome.exit_code == 0
        assert len(calls) == 1

    def test_verify_predicts_each_graph_once(self, monkeypatch):
        # once per isomorphism class: one representative per class with an
        # edge, 3 on n = 3 and 10 on n = 4, stands for the 70 labeled graphs
        calls = count_calls(monkeypatch, "_predict", invariants)
        outcome = run(["verify", "--max-n", "4"])
        assert json.loads(outcome.payload)["graphs_analyzed"] == 70
        assert len(calls) == 13
        assert len({graph for graph, *_ in calls}) == 13


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
FIXTURE_TEXTS = [path.read_text() for path in sorted(FIXTURES.iterdir())]


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
    # headers every command but a plain analyze must refuse
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

    @pytest.mark.parametrize("argv", [["betti", "{path}"], ["analyze", "--oracle", "{path}"],
                                      ["mdensity", "{path}"], ["montecarlo", "--n", "9" * 3000,
                                                               "--c", "1"]],
                             ids=["betti", "analyze_oracle", "mdensity", "montecarlo"])
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
    """Only the Monte Carlo commands and the `experiments` names import numpy."""

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
        assert set(LAZY_NAMES) | {"experiments", "graphs", "ideals", "homology",
                                  "invariants"} <= set(star)
        assert same
