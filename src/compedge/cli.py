"""Command line front end.

Exit codes: 0 success, 1 a verification found discrepancies, 2 usage or input
errors. Whenever the exit code is not 2, the payload on stdout is valid JSON,
except for the montecarlo and sweep subcommands, which emit CSV. A reader that
closes stdout early changes no exit code: the rest of the payload is dropped.
Each handler imports the layers it runs, so a fresh process loads only those:
`graphs` for every command, `tables` for betti, `invariants` (and with it
`tables`) for analyze and verify, `experiments` and numpy for montecarlo and
sweep. No command loads `ideals` or `homology`.
`verify` cross-validates one graph per isomorphism class and weights it by its
orbit size, which gives the totals of the sweep over every labeled graph; a
class that mismatches outside the known tensions sends its n through that
labeled sweep, which lists the mismatches.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import comb

from .graphs import (DEFAULT_ENUMERATION_LIMIT, SimpleGraph, _graph_classes, _join_count,
                     enumerate_graphs, max_subgraph_density, parse_graph)


@dataclass(frozen=True)
class CommandOutcome:
    """What a subcommand produced: exit code, stdout payload, stderr diagnostics."""

    exit_code: int
    payload: str
    diagnostics: str = ""


def _on_graph_file(command):
    """Run command on the graph file args.graph; every ValueError it meets names the file.

    That covers reading, decoding and parsing, and library errors after parsing.
    """
    def run_on_file(args: argparse.Namespace) -> CommandOutcome:
        path = args.graph
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            return command(args, parse_graph(text))
        except OSError as exc:
            raise ValueError(f"cannot read graph file {path}: {exc.strerror}") from exc
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return run_on_file


def _dump(obj, compact: bool) -> str:
    if compact:
        return json.dumps(obj, separators=(",", ":"))
    return json.dumps(obj, indent=2)


def _cmd_analyze(args: argparse.Namespace, graph: SimpleGraph) -> CommandOutcome:
    from .invariants import cross_validate, predict_invariants
    from .tables import parse_field
    field = parse_field(args.field)
    validation = cross_validate(graph, field) if args.oracle else None
    report = validation.predicted if validation else predict_invariants(graph)
    payload = {"graph": graph.to_json_dict()}
    payload.update(report.to_json_dict())
    payload["licci_reason"] = report.verdict.reason
    exit_code = 0
    if validation:
        payload["oracle"] = validation.oracle.to_json_dict()
        payload["mismatches"] = validation.to_json_dict()["mismatches"]
        if not validation.clean:
            exit_code = 1
    return CommandOutcome(exit_code, _dump(payload, args.json))


def _cmd_betti(args: argparse.Namespace, graph: SimpleGraph) -> CommandOutcome:
    from .tables import _graph_oracle, parse_field
    field = parse_field(args.field)
    table, _ = _graph_oracle(graph, field, _join_count(graph.edges))
    return CommandOutcome(0, _dump(table.to_json_dict(), False))


def _cmd_verify(args: argparse.Namespace) -> CommandOutcome:
    """Cross-validate one graph per isomorphism class on 3..max_n vertices, weighted by its orbit.

    Every count is invariant under relabeling, so a class representative
    (graphs._graph_classes) adds its orbit size n!/|Aut| to each total and the
    payload is that of the sweep over every labeled graph. When a class on n
    vertices mismatches outside the known tensions, the mismatches on n are
    listed by the labeled sweep's own rule: every graph of enumerate_graphs(n)
    with an edge that cross_validate finds unclean and that has no isolated
    vertex, in enumeration order.
    """
    from .invariants import NOTE_COMPLETE_PD, NOTE_ISOLATED, cross_validate
    from .tables import parse_field
    if not 3 <= args.max_n <= DEFAULT_ENUMERATION_LIMIT:
        raise ValueError(f"--max-n must be between 3 and {DEFAULT_ENUMERATION_LIMIT}")
    field = parse_field(args.field)
    enumerated = analyzed = clean = 0
    complete_pd_count = 0
    isolated_total = isolated_mismatched = 0
    disc_forest_linear = {"true": 0, "false": 0}
    unflagged = []
    for n in range(3, args.max_n + 1):
        enumerated += 1 << comb(n, 2)
        mismatched = False
        for graph, orbit in _graph_classes(n):
            if graph.m == 0:
                continue
            analyzed += orbit
            report = cross_validate(graph, field)
            if NOTE_COMPLETE_PD in report.predicted.notes:
                complete_pd_count += orbit
            isolated = NOTE_ISOLATED in report.predicted.notes
            if isolated:
                isolated_total += orbit
            if report.predicted.graph_class == "disconnected_forest":
                # every generator has degree n - 2, so the resolution is linear iff reg = n - 2
                key = "true" if report.oracle.reg_ideal == graph.n - 2 else "false"
                disc_forest_linear[key] += orbit
            if report.clean:
                clean += orbit
            elif isolated:
                isolated_mismatched += orbit
            else:
                mismatched = True
        if mismatched:
            reports = (cross_validate(graph, field) for graph in enumerate_graphs(n) if graph.m)
            unflagged += [report.to_json_dict() for report in reports
                          if not report.clean and NOTE_ISOLATED not in report.predicted.notes]
    payload = {
        "max_n": args.max_n,
        "field": field.value,
        "graphs_enumerated": enumerated,
        "graphs_analyzed": analyzed,
        "clean": clean,
        "known_tensions": {
            "complete_pd_adjusted": {"count": complete_pd_count},
            "isolated_vertices_outside_hypotheses": {
                "count": isolated_total,
                "mismatched": isolated_mismatched,
            },
            "disconnected_forest_primal_linear_resolution": disc_forest_linear,
        },
        "unflagged_mismatches": unflagged,
    }
    exit_code = 1 if unflagged else 0
    diag = (f"checked {analyzed} graphs up to n={args.max_n}: "
            f"{len(unflagged)} unflagged mismatches, "
            f"{isolated_mismatched} flagged (isolated vertices)")
    return CommandOutcome(exit_code, _dump(payload, False), diag)


def _cmd_montecarlo(args: argparse.Namespace) -> CommandOutcome:
    from .experiments import ExperimentConfig, estimate_licci_probability, summaries_to_csv
    config = ExperimentConfig(n=args.n, trials=args.trials, seed=args.seed, p=args.p, c=args.c)
    start = time.perf_counter()
    summary = estimate_licci_probability(config)
    diag = f"wall time {time.perf_counter() - start:.3f}s"
    return CommandOutcome(0, summaries_to_csv([summary]), diag)


def _cmd_sweep(args: argparse.Namespace) -> CommandOutcome:
    from .experiments import summaries_to_csv, threshold_sweep
    try:
        c_values = [float(part) for part in args.c.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"--c must be a comma-separated list of numbers: {exc}") from exc
    if not c_values:
        raise ValueError("--c must name at least one value")
    start = time.perf_counter()
    result = threshold_sweep(args.n, c_values, args.trials, args.seed)
    diags = [f"wall time {time.perf_counter() - start:.3f}s"]
    for a, b in result.monotone_violations:
        diags.append(f"warning: licci fraction increased from c={a:g} to c={b:g}")
    return CommandOutcome(0, summaries_to_csv(result.rows), "\n".join(diags))


def _cmd_mdensity(args: argparse.Namespace, graph: SimpleGraph) -> CommandOutcome:
    value = max_subgraph_density(graph)
    return CommandOutcome(0, json.dumps(f"{value.numerator}/{value.denominator}"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compedge",
        description="Complementary edge ideals: invariants, Betti tables, experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a graph and predict ideal invariants")
    p.add_argument("graph", help="path to a graph file (edge list or JSON)")
    p.add_argument("--oracle", action="store_true", help="also run the homology oracle")
    p.add_argument("--field", choices=["gf2", "q"], default="gf2")
    p.add_argument("--json", action="store_true", help="compact single-line JSON")
    p.set_defaults(func=_on_graph_file(_cmd_analyze))

    p = sub.add_parser("betti", help="graded Betti table of the complementary edge ideal")
    p.add_argument("graph")
    p.add_argument("--field", choices=["gf2", "q"], default="gf2")
    p.set_defaults(func=_on_graph_file(_cmd_betti))

    p = sub.add_parser("verify", help="exhaustive prediction-vs-oracle sweep")
    p.add_argument("--max-n", type=int, default=5, dest="max_n")
    p.add_argument("--field", choices=["gf2", "q"], default="gf2")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("montecarlo", help="licci fraction in G(n,p) samples")
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=float, default=None, help="edge probability")
    group.add_argument("--c", type=float, default=None, help="scaled probability p = c/n")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("sweep", help="licci fraction across several c values")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", required=True, help="comma-separated c values")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("mdensity", help="maximum subgraph density m(H), exact")
    p.add_argument("graph")
    p.set_defaults(func=_on_graph_file(_cmd_mdensity))

    return parser


def run(argv: list[str]) -> CommandOutcome:
    """Parse and execute; a ValueError, from the library or the input checks, is exit code 2."""
    parser = build_parser()
    captured_out, captured_err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(captured_out), redirect_stderr(captured_err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandOutcome(code, captured_out.getvalue(), captured_err.getvalue())
    try:
        return args.func(args)
    except ValueError as exc:
        return CommandOutcome(2, "", f"error: {exc}")


def main() -> None:
    outcome = run(sys.argv[1:])
    if outcome.payload:
        try:
            print(outcome.payload, end="" if outcome.payload.endswith("\n") else "\n",
                  flush=True)
        except BrokenPipeError:
            # the reader left early: the rest of the payload goes to devnull,
            # and the exit code stays the command's own
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if outcome.diagnostics:
        print(outcome.diagnostics, file=sys.stderr)
    sys.exit(outcome.exit_code)


if __name__ == "__main__":
    main()
