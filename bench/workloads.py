"""The four benchmark workloads: seeded inputs, one round of ops, output checks.

A workload builds its inputs once from the seed. A round is the same list of
ops every time, and ``round_s`` is how long one round took when the
benchmark was defined (2-vCPU VM, Python 3.11). A run of ``--seconds`` does
``seconds // (round_s * (1 + hostclock.SHARE))`` rounds (at least one), so
parent and child commits do the same work and sample the same percentiles. After the timed loop,
``check_round`` compares each op's output with a value the benchmark derives
on its own (closed forms, brute force, networkx) and returns a failure
message per failed op.

Workload code reaches the package only through module attributes looked up
at call time (``self.ce.homology.hochster_betti``), so the traced run sees
every call the benchmark makes.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import Any, Callable


@dataclass(frozen=True)
class Op:
    """One timed operation; ``prepare`` runs just before it, outside its latency."""

    label: str
    fn: Callable[[], Any]
    items: int
    prepare: Callable[[], None] | None = None


# ---------------------------------------------------------------- independent helpers

def edge_counts(n: int, edges) -> tuple[int, int, int]:
    """(m, n', c'): edges, non-isolated vertices, components that contain an edge."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    touched = set()
    for u, v in edges:
        touched.update((u, v))
        parent[find(u)] = find(v)
    return len(edges), len(touched), len({find(v) for v in touched})


def component_count(n: int, edges) -> int:
    """Components of the graph on {1..n}, isolated vertices included."""
    m, n_prime, c_prime = edge_counts(n, edges)
    return c_prime + (n - n_prime)


def closed_form_betti(n: int, edges) -> dict[tuple[int, int], int]:
    """Graded Betti numbers of S/I_c(G), from edge and component counts alone."""
    m, n_prime, c_prime = edge_counts(n, edges)
    entries = {(0, 0): 1, (1, n - 2): m, (2, n - 1): 2 * m - n_prime,
               (2, n): c_prime - 1, (3, n): m - n_prime + c_prime}
    return {ij: v for ij, v in entries.items() if v}


def betti_entries(payload: dict) -> dict[tuple[int, int], int]:
    return {(e["i"], e["j"]): e["value"] for e in payload["betti"]}


def max_density(n: int, edges) -> Fraction:
    """max |E(G[W])| / |W| over nonempty W, by brute force."""
    best = Fraction(0)
    for w in range(1, 1 << n):
        inside = sum(1 for u, v in edges if w >> (u - 1) & 1 and w >> (v - 1) & 1)
        best = max(best, Fraction(inside, w.bit_count()))
    return best


def all_edge_sets(n: int):
    """Every labeled graph on {1..n}, as edge tuples."""
    slots = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(slots)):
        yield tuple(s for k, s in enumerate(slots) if mask >> k & 1)


def gnp_edges(n: int, p: float, rng: random.Random) -> tuple:
    """G(n, p) with at least one edge (redrawn until nonempty)."""
    while True:
        edges = tuple(e for e in combinations(range(1, n + 1), 2) if rng.random() < p)
        if edges:
            return edges


def connected_edges(n: int, extra_p: float, rng: random.Random) -> tuple:
    """A random labeled tree (Pruefer code) plus G(n, extra_p) edges: no isolated vertex."""
    code = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for v in code:
        degree[v] += 1
    edges = set()
    for v in code:
        leaf = min(u for u in range(1, n + 1) if degree[u] == 1)
        edges.add((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, v = (w for w in range(1, n + 1) if degree[w] == 1)
    edges.add((u, v))
    edges.update(e for e in combinations(range(1, n + 1), 2) if rng.random() < extra_p)
    return tuple(sorted(edges))


def networkx_forests(ce, n: int, c: float, seed: int, trials: int) -> int:
    """Forests among trials 0..trials-1 of G(n, c/n), rebuilt per trial and tested by networkx."""
    import networkx as nx
    import numpy as np
    forests = 0
    for t in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(t,))))
        graph = nx.Graph()
        graph.add_nodes_from(range(1, n + 1))
        graph.add_edges_from(ce.experiments.sample_gnp(n, c / n, rng).edges)
        forests += nx.is_forest(graph)
    return forests


class Workload:
    name = ""
    why = ""
    round_s = 1.0

    def __init__(self, ce, seed: int, smoke: bool, root: Path):
        self.ce = ce
        self.seed = seed
        self.smoke = smoke
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def begin_round(self) -> None:
        """Runs before each round, inside the timed loop."""

    def check_round(self, results: list, first: list) -> dict[int, str]:
        """Failure message per op index; ``results[i]`` is None when op i raised.

        ``first`` holds the first round's results, and is ``results`` itself
        when the first round is checked.
        """
        raise NotImplementedError


# ---------------------------------------------------------------- oracle

class Oracle(Workload):
    name = "oracle"
    why = "cold Betti tables of mid-size ideals: homology does nearly all the work"
    round_s = 4.5

    def __init__(self, *args):
        super().__init__(*args)
        field = self.ce.homology.Field
        gf2_ns, q_ns = (range(5, 7), range(4, 6)) if self.smoke else (range(9, 14), range(7, 9))
        self.cases = []
        for fld, ns in ((field.GF2, gf2_ns), (field.RATIONALS, q_ns)):
            for n in ns:
                # The slowest GF(2) class holds only the fixed graphs, so the
                # tail percentile is not decided by one seed's draw.
                family = {
                    "K": tuple(combinations(range(1, n + 1), 2)),
                    "C": tuple((i, i + 1) for i in range(1, n)) + ((1, n),),
                    "P": tuple((i, i + 1) for i in range(1, n)),
                    "star": tuple((1, v) for v in range(2, n + 1)),
                }
                for p in (0.2, 0.4, 0.6) if n < ns[-1] or fld is field.RATIONALS else ():
                    family[f"G{p}"] = gnp_edges(n, p, self.rng)
                for kind, edges in family.items():
                    graph = self.ce.graphs.SimpleGraph(n, edges)
                    self.cases.append((f"{fld.value} n={n} {kind}", graph, fld))
        # Interleave the classes, so a slow stretch of the host is not all spent on one.
        self.rng.shuffle(self.cases)

    def _table(self, graph, fld):
        homology = self.ce.homology
        table = homology.hochster_betti(self.ce.ideals.complementary_edge_ideal(graph), fld)
        return table, homology.reg_pd(table)

    def _clear(self):
        self.ce.homology.clear_homology_cache()

    def ops(self):
        return [Op(label, partial(self._table, graph, fld), 1, prepare=self._clear)
                for label, graph, fld in self.cases]

    def check_round(self, results, first):
        failures = {}
        for i, ((label, graph, fld), res) in enumerate(zip(self.cases, results)):
            if res is None:
                continue
            table, hom = res
            expected = closed_form_betti(graph.n, graph.edges)
            payload = table.to_json_dict()
            got = betti_entries(payload)
            pd = max(i_ for i_, _ in expected)
            reg = max(j - i_ for i_, j in expected)
            if payload["field"] != fld.value or got != expected:
                failures[i] = f"{label}: Betti table {got} != closed form {expected}"
            elif (hom.pd_s_mod_i, hom.reg_s_mod_i) != (pd, reg):
                failures[i] = f"{label}: reg_pd {hom} != pd {pd}, reg {reg}"
        return failures


# ---------------------------------------------------------------- verify

VERIFY_ISOLATED_MISMATCHES = {4: 25, 5: 280}
VERIFY_CHUNK = 25


def chunks(seq, size):
    return [seq[k:k + size] for k in range(0, len(seq), size)]


class Verify(Workload):
    name = "verify"
    why = "exhaustive sweep of tiny ideals, almost all homology cache hits"
    round_s = 9.5

    def __init__(self, *args):
        super().__init__(*args)
        self.max_n = 4 if self.smoke else 5
        forest_max = 4 if self.smoke else 6
        SimpleGraph = self.ce.graphs.SimpleGraph
        # Enumeration order, as `compedge verify` uses, so the ops that pay the
        # cache misses are the same in every run. The sweep is exhaustive and
        # does not depend on the seed.
        self.graphs = [SimpleGraph(n, e) for n in range(3, self.max_n + 1)
                       for e in all_edge_sets(n) if e]
        self.forests = [SimpleGraph(n, e) for n in range(3, forest_max + 1)
                        for e in all_edge_sets(n)
                        if e and len(e) == n - component_count(n, e)]
        self.fields = list(self.ce.homology.Field)

    def begin_round(self):
        self.ce.homology.clear_homology_cache()

    def _graphs(self, graphs):
        inv = self.ce.invariants
        return [(inv.predict_invariants(g), [inv.cross_validate(g, f) for f in self.fields])
                for g in graphs]

    def _forests(self, forests):
        return [self.ce.invariants.implication_suite(g) for g in forests]

    def _cli(self, fld):
        return self.ce.cli.run(["verify", "--max-n", str(self.max_n), "--field", fld.value])

    def ops(self):
        # A single graph takes about a millisecond, so host hiccups would set the
        # tail; an op is a chunk of VERIFY_CHUNK graphs in enumeration order.
        return ([Op(f"graphs from {c[0].n} {c[0].edges}", partial(self._graphs, c), len(c))
                 for c in chunks(self.graphs, VERIFY_CHUNK)]
                + [Op(f"forests from {c[0].n} {c[0].edges}", partial(self._forests, c), len(c))
                   for c in chunks(self.forests, VERIFY_CHUNK)]
                + [Op(f"cli verify {f.value}", partial(self._cli, f), len(self.graphs))
                   for f in self.fields])

    def check_round(self, results, first):
        failures = {}
        graph_ops = len(chunks(self.graphs, VERIFY_CHUNK))
        forest_ops = len(chunks(self.forests, VERIFY_CHUNK))
        clean = {f.value: 0 for f in self.fields}
        mismatched = {f.value: 0 for f in self.fields}
        isolated_total = complete = 0
        split = {"true": 0, "false": 0}
        for i, graph in enumerate(self.graphs):
            m, n_prime, c_prime = edge_counts(graph.n, graph.edges)
            isolated = n_prime < graph.n
            isolated_total += isolated
            complete += m == graph.n * (graph.n - 1) // 2
            components = component_count(graph.n, graph.edges)
            if m == graph.n - components and components > 1:
                split["true" if c_prime <= 1 else "false"] += 1
            op = i // VERIFY_CHUNK
            if results[op] is None:
                continue
            _, reports = results[op][i % VERIFY_CHUNK]
            for fld, report in zip(self.fields, reports):
                if report.clean:
                    clean[fld.value] += 1
                    continue
                mismatched[fld.value] += 1
                if not isolated:
                    failures[op] = f"graph {graph.edges} on {graph.n}: mismatch without isolated vertex"
        for i, graph in enumerate(self.forests):
            op = graph_ops + i // VERIFY_CHUNK
            if results[op] is None:
                continue
            suite = results[op][i % VERIFY_CHUNK]
            c_prime = edge_counts(graph.n, graph.edges)[2]
            primal_failed = "primal_linear_resolution" in suite.failed_claims
            if not suite.licci.licci or suite.primal_linear_resolution != (c_prime <= 1) \
                    or primal_failed == suite.primal_linear_resolution:
                failures[op] = (f"forest {graph.edges} on {graph.n}: primal linear resolution "
                                f"{suite.primal_linear_resolution} with {c_prime} edge components")
        census = VERIFY_ISOLATED_MISMATCHES.get(self.max_n)
        for k, fld in enumerate(self.fields):
            op = graph_ops + forest_ops + k
            outcome = results[op]
            if outcome is None:
                continue
            expected = {
                "max_n": self.max_n, "field": fld.value,
                "graphs_enumerated": sum(2 ** (n * (n - 1) // 2) for n in range(3, self.max_n + 1)),
                "graphs_analyzed": len(self.graphs), "clean": clean[fld.value],
                "known_tensions": {
                    "complete_pd_adjusted": {"count": complete},
                    "isolated_vertices_outside_hypotheses": {
                        "count": isolated_total, "mismatched": mismatched[fld.value]},
                    "disconnected_forest_primal_linear_resolution": split,
                },
                "unflagged_mismatches": [],
            }
            got = json.loads(outcome.payload) if outcome.exit_code == 0 else None
            if got != expected:
                failures[op] = (f"cli verify {fld.value}: exit {outcome.exit_code}, "
                                f"payload {got} != per-graph counts {expected}")
            elif mismatched[fld.value] != census:
                failures[op] = (f"cli verify {fld.value}: {mismatched[fld.value]} "
                                f"isolated-vertex mismatches, census says {census}")
        return failures


# ---------------------------------------------------------------- montecarlo

GOLDEN = (50, 0.5, 20, 7, "50,0.5,0.01,20,7,18,0.900000")


class MonteCarlo(Workload):
    name = "montecarlo"
    why = "G(n, p) trials: numpy sampling and union-find, no homology"
    round_s = 2.7

    def __init__(self, *args):
        super().__init__(*args)
        if self.smoke:
            self.sweep = (100, (0.5, 2.0), 4)
            self.configs = [(n, c, t) for n, t in ((50, 10), (100, 4)) for c in (0.5, 2.0)]
        else:
            # Trials are sized so each estimate takes about 0.1 s: the median op
            # then falls inside one cluster instead of between two. The three
            # one-trial runs at n = 5000 (about 0.2 s each) put the tail rank
            # inside their cluster rather than at its edge.
            self.sweep = (2000, (0.5, 0.9, 1.1, 2.0), 10)
            self.configs = [(n, c, t) for n, t in ((200, 200), (500, 70), (1000, 20), (2000, 6),
                                                   (5000, 1))
                            for c in (0.5, 1.0, 2.0)]
        self.rng.shuffle(self.configs)

    def _config(self, n, c, trials, seed=None):
        return self.ce.experiments.ExperimentConfig(
            n=n, trials=trials, seed=self.seed if seed is None else seed, c=c)

    def _estimate(self, n, c, trials, seed=None):
        return self.ce.experiments.estimate_licci_probability(self._config(n, c, trials, seed))

    def _sweep(self):
        n, cs, trials = self.sweep
        return self.ce.experiments.threshold_sweep(n, cs, trials, self.seed)

    def ops(self):
        n, cs, trials = self.sweep
        gn, gc, gt, gseed, _ = GOLDEN
        return ([Op("golden", partial(self._estimate, gn, gc, gt, gseed), gt),
                 Op(f"sweep n={n}", self._sweep, len(cs) * trials)]
                + [Op(f"estimate n={n} c={c}", partial(self._estimate, n, c, t), t)
                   for n, c, t in self.configs])

    def _recount(self, n, c, trials) -> str | None:
        """Recount a prefix of the trials with networkx, against the package's count."""
        sample = min(trials, 5 if n <= 500 else 2 if n <= 2000 else 1)
        forests = networkx_forests(self.ce, n, c, self.seed, sample)
        got = self._estimate(n, c, sample).forest_count
        if got != forests:
            return f"n={n} c={c}: {got} forests in the first {sample} trials, networkx counts {forests}"
        return None

    def check_round(self, results, first):
        failures = {}
        golden, sweep, *estimates = results
        line = self.ce.experiments.summaries_to_csv([golden]).splitlines()[1] if golden else None
        if golden is not None and line != GOLDEN[-1]:
            failures[0] = f"golden line {line!r} != {GOLDEN[-1]!r}"
        summaries = [(1, s) for s in sweep.rows] if sweep is not None else []
        summaries += [(2 + k, s) for k, s in enumerate(estimates) if s is not None]
        for i, s in summaries:
            if s.forest_count + s.cycle_count != s.config.trials or s.licci_count != s.forest_count:
                failures[i] = f"{s.config}: forest {s.forest_count} + cycle {s.cycle_count}"
        if sweep is not None:
            fractions = [s.fraction_licci for s in sweep.rows]
            if sweep.monotone_violations or fractions != sorted(fractions, reverse=True):
                failures[1] = f"sweep not monotone: {sweep.monotone_violations}"
        for i, (res, ref) in enumerate(zip(results, first)):
            if res is not None and ref is not None and res != ref:
                failures[i] = "result differs from the first round"
        if results is first:
            n, cs, trials = self.sweep
            for c in cs:
                if (msg := self._recount(n, c, trials)):
                    failures[1] = msg
            for k, (n, c, trials) in enumerate(self.configs):
                if (msg := self._recount(n, c, trials)):
                    failures[2 + k] = msg
        return failures


# ---------------------------------------------------------------- cli-cold

class CliCold(Workload):
    name = "cli-cold"
    why = "fresh CLI processes: interpreter start-up and import on every op"
    round_s = 4.0

    def __init__(self, *args):
        super().__init__(*args)
        out = self.root / ".bench_out" / "cli-cold"
        out.mkdir(parents=True, exist_ok=True)
        self.graph_files = []
        for n in ((5,) if self.smoke else (5, 6, 7)):
            edges = connected_edges(n, 0.3, self.rng)
            path = out / f"graph{n}-seed{self.seed}.{'txt' if n % 2 else 'json'}"
            if n % 2:
                path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
            else:
                path.write_text(json.dumps({"n": n, "edges": [list(e) for e in edges]}))
            self.graph_files.append((n, edges, path))
        self.mc = (60 if self.smoke else 100, 1.0, 20 if self.smoke else 50)
        self.commands = []
        for n, edges, path in self.graph_files:
            rel = str(path.relative_to(self.root))
            self.commands += [("betti", (n, edges), ["betti", rel]),
                              ("betti", (n, edges), ["betti", "--field", "q", rel]),
                              ("analyze", (n, edges), ["analyze", "--oracle", rel]),
                              ("mdensity", (n, edges), ["mdensity", rel])]
        n, c, trials = self.mc
        self.commands.append(("montecarlo", None, ["montecarlo", "--n", str(n), "--c", str(c),
                                                   "--trials", str(trials), "--seed", str(self.seed)]))
        self.rng.shuffle(self.commands)

    def _run(self, argv):
        proc = subprocess.run([sys.executable, "-m", "compedge.cli", *argv], cwd=self.root,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def ops(self):
        return [Op(" ".join(argv), partial(self._run, argv), 1) for _, _, argv in self.commands]

    def _schema(self, kind):
        path = self.root / "src" / "compedge" / "schemas" / f"{kind}.schema.json"
        return json.loads(path.read_text())

    def check_round(self, results, first):
        import jsonschema
        failures = {}
        for i, ((kind, graph, argv), res) in enumerate(zip(self.commands, results)):
            if res is None:
                continue
            code, out, err = res
            if code != 0:
                failures[i] = f"{' '.join(argv)}: exit {code}: {err.strip()[-300:]}"
                continue
            try:
                msg = self._check(kind, graph, out, err, jsonschema)
            except (ValueError, jsonschema.ValidationError) as exc:
                msg = f"{type(exc).__name__}: {exc}"[:300]
            if msg:
                failures[i] = f"{' '.join(argv)}: {msg}"
        return failures

    def _check(self, kind, graph, out, err, jsonschema) -> str | None:
        if kind == "montecarlo":
            n, c, trials = self.mc
            summary = self.ce.experiments.estimate_licci_probability(
                self.ce.experiments.ExperimentConfig(n=n, trials=trials, seed=self.seed, c=c))
            expected = self.ce.experiments.summaries_to_csv([summary])
            forests = networkx_forests(self.ce, n, c, self.seed, trials)
            if out != expected or int(out.splitlines()[1].split(",")[5]) != forests:
                return f"stdout {out!r} != library {expected!r} or networkx count {forests}"
            return None
        payload = json.loads(out)
        jsonschema.validate(payload, self._schema(kind))
        n, edges = graph
        if kind == "betti":
            expected = closed_form_betti(n, edges)
            if betti_entries(payload) != expected:
                return f"table {betti_entries(payload)} != closed form {expected}"
        elif kind == "analyze":
            if payload.get("mismatches") != [] or "oracle" not in payload:
                return f"oracle block missing or mismatches {payload.get('mismatches')}"
        elif kind == "mdensity":
            expected = max_density(n, edges)
            if err or payload != f"{expected.numerator}/{expected.denominator}":
                return f"density {payload!r} (stderr {err!r}) != {expected}"
        return None


WORKLOADS = {w.name: w for w in (Oracle, Verify, MonteCarlo, CliCold)}
