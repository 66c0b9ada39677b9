#!/usr/bin/env python3
"""compedge benchmark: one workload per process, one op at a time, no threads.

    python3 bench/run.py --workload oracle --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload, one process each

The package is imported from ``src/`` of the checkout this file sits in
(``PYTHONPATH=src``; compedge need not be installed). The run pins itself
to one CPU. ``--trace 0`` runs whole rounds for about ``--seconds`` and
prints the end-to-end metrics, timed at the reference host speed of
hostclock.py; ``--trace 1`` times one traced round and one plain round and
prints the per-layer metrics. The last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and the metrics that BENCHMARK.json lists for the
mode. See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
CLI_PROBES = 5
TAIL_BEYOND = 10

# (name, unit, better) of the end-to-end metrics, in print order.
END_TO_END = (("setup_s", "s", "lower"), ("run_s", "s", "lower"),
              ("items_per_s", "1/s", "higher"), ("op_p50_ms", "ms", "lower"),
              ("op_tail_ms", "ms", "lower"), ("fail_ratio", "ratio", "lower"),
              ("peak_rss_mb", "MB", "lower"))


def import_package():
    """Import compedge from src/ of this checkout, or exit 1 without a result."""
    if not (SRC / "compedge" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'compedge'} not found; run from a compedge checkout")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import compedge
    if Path(compedge.__file__).resolve().parent != SRC / "compedge":
        sys.exit(f"error: compedge imported from {compedge.__file__}, not {SRC}")
    from compedge import cli, experiments, graphs, homology, ideals, invariants
    return types.SimpleNamespace(graphs=graphs, ideals=ideals, homology=homology,
                                 invariants=invariants, experiments=experiments, cli=cli)


def environment(args) -> dict:
    import importlib.metadata
    import numpy
    try:
        importlib.metadata.version("compedge")
        installed = True
    except importlib.metadata.PackageNotFoundError:
        installed = False
    commit = "unknown (checkout is not a git repository)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "pythonpath": "src",
            "compedge_installed": installed}


def timed_rounds(workload, ops, count, tracer=None, clock=None):
    """Run ``count`` whole rounds, with ``clock``'s calibration around every op.

    Returns (rounds, wall seconds); each round is a list of
    (latency_s, result, error) per op, result None when the op raised.
    """
    rounds = []
    start = time.perf_counter()
    if clock:
        clock.calibrate(0.0)
    for _ in range(count):
        if tracer:
            tracer.op = -1
        workload.begin_round()
        record = []
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = i
            if op.prepare:
                op.prepare()
            t0 = time.perf_counter()
            try:
                result, error = op.fn(), None
            except Exception:
                result, error = None, traceback.format_exc(limit=3)
            latency = time.perf_counter() - t0
            if clock:
                clock.calibrate(latency)
            record.append((latency, result, error))
        rounds.append(record)
    return rounds, time.perf_counter() - start


def check(workload, ops, rounds) -> dict[tuple[int, int], str]:
    """Failure message per (round, op): raised, or failed its output check."""
    failures = {}
    first = [res for _, res, _ in rounds[0]]
    for r, record in enumerate(rounds):
        results = first if r == 0 else [res for _, res, _ in record]
        for i, (_, _, error) in enumerate(record):
            if error:
                failures[(r, i)] = f"{ops[i].label}: raised\n{error}"
        try:
            found = workload.check_round(results, first)
        except Exception:
            found = {i: "output check raised\n" + traceback.format_exc(limit=3)
                     for i in range(len(ops))}
        for i, msg in found.items():
            failures.setdefault((r, i), msg)
    return failures


def tail(latencies):
    """(value, percentile, samples beyond): highest rank with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def fresh_process_s(argv) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-500:]}")
    return elapsed


def setup_probe_s(args) -> float:
    """Process start to the first timed op, in a fresh process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr[-500:]}")
    return float(proc.stdout.split()[-1]) - t0


def setup_s(args) -> float:
    """Median of SETUP_PROBES fresh-process set-ups, at the reference host speed."""
    from hostclock import HostClock
    clock, probes = HostClock(), []
    clock.calibrate(0.0)
    for _ in range(SETUP_PROBES):
        probes.append(setup_probe_s(args))
        clock.calibrate(probes[-1])
    return statistics.median(s * f for s, f in zip(probes, clock.factors()))


def end_to_end(args, workload, ops):
    from hostclock import SHARE, HostClock
    setup = setup_s(args)
    clock = HostClock()
    count = max(1, int(args.seconds // (workload.round_s * (1 + SHARE))))
    rounds, run_s = timed_rounds(workload, ops, count, clock=clock)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = check(workload, ops, rounds)
    wall = [lat for record in rounds for lat, _, _ in record]
    factors = clock.factors()
    # Every timing below is at the reference host speed (see hostclock.py).
    latencies = [lat * f for lat, f in zip(wall, factors)]
    done = [not error for record in rounds for _, _, error in record]
    items = sum(op.items for record in rounds for op, (_, _, error) in zip(ops, record)
                if not error)
    busy = sum(lat for lat, ok in zip(latencies, done) if ok)
    value, pct, beyond = tail(latencies)
    metrics = {"setup_s": setup, "run_s": run_s, "items_per_s": items / busy if busy else 0.0,
               "op_p50_ms": statistics.median(latencies) * 1e3, "op_tail_ms": value * 1e3,
               "fail_ratio": len(failures) / len(latencies), "peak_rss_mb": rss_mb}
    wall_busy = sum(lat for lat, ok in zip(wall, done) if ok)
    notes = {"setup_s": f"median of {SETUP_PROBES} fresh-process set-ups",
             "run_s": f"{len(rounds)} rounds x {len(ops)} ops, calibration included",
             "items_per_s": f"{items} items; wall clock {items / wall_busy if wall_busy else 0.0:.6g}",
             "op_p50_ms": f"{len(latencies)} samples; wall clock "
                          f"{statistics.median(wall) * 1e3:.6g}",
             "op_tail_ms": f"p{pct:.1f}, {len(latencies)} samples, {beyond} beyond; "
                           f"wall clock {tail(wall)[0] * 1e3:.6g}",
             "fail_ratio": f"{len(failures)}/{len(latencies)}",
             "peak_rss_mb": "ru_maxrss of this process",
             "host_speed": statistics.quantiles(factors, n=4) if len(factors) > 1 else factors,
             "round_op_seconds": [sum(lat for lat, _, _ in record) for record in rounds],
             "slowest_ops": sorted(((statistics.median(record[i][0] for record in rounds) * 1e3,
                                     op.label) for i, op in enumerate(ops)), reverse=True)[:15]}
    return metrics, notes, failures, len(latencies)


def per_layer(args, workload, ops):
    from hostclock import HostClock
    from spans import Tracer
    # The traced round goes first, so one-time warm-up lands in it and the
    # overhead ratio errs high rather than low.
    tracer = Tracer()
    tracer.install()
    traced_clock, plain_clock = HostClock(), HostClock()
    try:
        traced, _ = timed_rounds(workload, ops, 1, tracer=tracer, clock=traced_clock)
    finally:
        tracer.uninstall()
    plain, _ = timed_rounds(workload, ops, 1, clock=plain_clock)
    # Op time of each round at the reference host speed (see hostclock.py).
    traced_s, plain_s = (sum(lat * f for (lat, _, _), f in zip(r[0], c.factors()))
                         for r, c in ((traced, traced_clock), (plain, plain_clock)))
    rounds = traced + plain
    failures = check(workload, ops, rounds)
    metrics = tracer.metrics()
    py = sys.executable
    interpreter = statistics.median(fresh_process_s([py, "-c", "pass"]) for _ in range(CLI_PROBES))
    imported = statistics.median(fresh_process_s([py, "-c", "import compedge"])
                                 for _ in range(CLI_PROBES))
    metrics["cli.interpreter_ms"] = interpreter * 1e3
    metrics["cli.import_ms"] = (imported - interpreter) * 1e3
    metrics["cli.command_ms"] = 0.0
    if workload.name == "cli-cold":
        command = statistics.median(lat for lat, _, _ in traced[0])
        metrics["cli.command_ms"] = (command - imported) * 1e3
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload.name}.spans.jsonl")
    notes = {"trace.overhead_ratio": f"traced round {traced_s:.3f} s / plain round {plain_s:.3f} s",
             "cli.import_ms": "fresh 'import compedge' minus fresh 'pass'",
             "cli.command_ms": "fresh CLI command minus fresh 'import compedge'"
             if workload.name == "cli-cold" else "no CLI process on this workload"}
    return metrics, notes, failures, sum(len(r) for r in rounds)


def run_one(args) -> int:
    ce = import_package()
    from hostclock import pin_to_one_cpu
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](ce, args.seed, args.smoke, ROOT)
    ops = workload.ops()
    if args.setup_probe:
        print(time.monotonic())
        return 0
    env = environment(args)
    env["pinned_cpu"] = pin_to_one_cpu()
    print(f"# compedge benchmark, workload {args.workload}: {workload.why}")
    print("# env " + json.dumps(env))
    if args.trace:
        from spans import PER_LAYER as specs
        metrics, notes, failures, attempted = per_layer(args, workload, ops)
        listed = "per_layer"
    else:
        specs = END_TO_END
        metrics, notes, failures, attempted = end_to_end(args, workload, ops)
        listed = "end_to_end"
    for name, unit, _ in specs:
        print(f"{name:44s} {metrics[name]:>14.6g} {unit:6s} {notes.get(name, '')}")
    if "host_speed" in notes:
        print("# host speed (reference unit time / measured), quartiles: "
              + " ".join(f"{q:.4g}" for q in notes["host_speed"]))
    for (r, i), msg in sorted(failures.items())[:20]:
        print(f"FAILED round {r} op {i}: {msg}", file=sys.stderr)
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())[listed]
    units = {name: unit for name, unit, _ in specs}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": units[m["name"]]}
                          for m in wanted}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "metrics": metrics, "notes": notes,
                    "failures": [f"round {r} op {i}: {m}" for (r, i), m in sorted(failures.items())],
                    **{k: result[k] for k in ("correct", "attempted", "failed")}}, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    from workloads import WORKLOADS
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            combined["correct"], status = False, 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest inputs of each workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be a nonnegative 63-bit integer")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
