"""Smoke tests of the benchmark: every workload on its smallest inputs.

    python3 -m pytest bench/test_smoke.py

Each run must pass every output check and print every metric by name, and
the final JSON line must carry exactly the metrics BENCHMARK.json lists.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, import_package  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LISTED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    specs = PER_LAYER if trace else END_TO_END
    printed = {line.split()[0] for line in lines if line and not line.startswith("#")}
    assert printed == {name for name, _, _ in specs}
    listed = LISTED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace and workload == "oracle":
        layers = sum(metrics[f"{layer}.self_ms"] for layer in
                     ("graphs", "ideals", "homology", "invariants", "experiments", "cli"))
        assert metrics["homology.self_ms"] > 0.5 * layers
    if trace and workload in ("montecarlo", "cli-cold"):
        assert all(v == 0 for name, v in metrics.items()
                   if name.startswith("homology.") and name.endswith(".calls"))


def test_benchmark_json_names_match_the_runner():
    assert [(m["name"], m["unit"], m["better"]) for m in LISTED["per_layer"]] == list(PER_LAYER)
    specs = {name: (unit, better) for name, unit, better in END_TO_END}
    for m in LISTED["end_to_end"]:
        assert specs[m["name"]] == (m["unit"], m["better"])
    assert [w["name"] for w in LISTED["workloads"]] == list(WORKLOADS)


def inputs(workload):
    return ([op.label for op in workload.ops()],
            [graph.edges for _, graph, _ in getattr(workload, "cases", ())],
            [edges for _, edges, _ in getattr(workload, "graph_files", ())])


def test_same_seed_same_inputs():
    ce = import_package()
    for name, cls in WORKLOADS.items():
        a, b, c = (inputs(cls(ce, seed, True, ROOT)) for seed in (5, 5, 6))
        assert a == b, name
        assert (a != c) == (name != "verify"), name


def test_all_workloads_in_one_command():
    proc = bench("--workload", "all", "--seed", "4", "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    for workload in WORKLOADS:
        for name, _, _ in END_TO_END:
            assert any(line.startswith(name) for line in proc.stdout.splitlines())
        assert f"{workload}.setup_s" in result["metrics"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
