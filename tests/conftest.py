"""Session-wide oracle sweeps shared by the acceptance and tension tests.

Each sweep enumerates tens of thousands of graphs and runs the homology
oracle on every one, so it is computed once per pytest session and every
consumer reads the same records. The slow paths that several test modules
compare the library's fast paths against live here too.
"""
from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from functools import cache
from itertools import combinations, takewhile
from math import log
from typing import Sequence

import networkx as nx
import pytest

from compedge import (BettiTable, Field, QuotientSearchResult, SimpleGraph, SquarefreeIdeal,
                      complementary_edge_dual, complementary_edge_ideal, enumerate_graphs,
                      height, hochster_betti, implication_suite, reg_pd)
from compedge import ideals as ideals_module
from compedge import invariants as invariants_module
from compedge.cli import CommandOutcome
from compedge.graphs import complete_graph, connected_components
from compedge.ideals import support_of
from compedge.invariants import NOTE_COMPLETE_PD, NOTE_ISOLATED


@dataclass(frozen=True)
class OracleRecord:
    """Measured invariants of the complementary edge ideal of one graph."""

    graph: SimpleGraph
    height: int
    pd_ideal: int
    reg_ideal: int
    reg_s_mod_i: int
    cohen_macaulay: bool


def measure(graph: SimpleGraph) -> OracleRecord:
    ideal = complementary_edge_ideal(graph)
    hom = reg_pd(hochster_betti(ideal, Field.GF2))
    ht = height(ideal)
    return OracleRecord(graph, ht, hom.pd_ideal, hom.reg_ideal, hom.reg_s_mod_i,
                        hom.pd_s_mod_i == ht)


def gnp_graph(n: int, p: float, rng) -> SimpleGraph:
    """One G(n, p) draw with at least one edge; isolated vertices are allowed."""
    edges = tuple(e for e in combinations(range(1, n + 1), 2) if rng.random() < p)
    return SimpleGraph(n, edges or ((1, 2),))


def closed_form_betti(graph: SimpleGraph, field: Field) -> BettiTable:
    """Betti table of S/I_c(G) from m, n' (vertices on an edge) and c' (components with an edge)."""
    n, m = graph.n, graph.m
    blocks = [b for b in connected_components(graph) if len(b) > 1]
    n_prime, c_prime = sum(map(len, blocks)), len(blocks)
    return BettiTable.from_dict(n, field, {
        (0, 0): 1, (1, n - 2): m, (2, n - 1): 2 * m - n_prime,
        (2, n): c_prime - 1, (3, n): m - n_prime + c_prime})


def sparse_gnp(n: int, p: float, seed: int) -> tuple[tuple[int, int], ...]:
    """The edges of one G(n, p) draw, by geometric skips over the pairs: O(n + m), not O(n^2).

    Batagelj-Brandes, Efficient generation of large random networks (Phys.
    Rev. E 71, 2005): the gap to the next kept pair is geometric.
    """
    rng = random.Random(seed)
    edges = []
    v, w = 1, -1
    while v < n:
        w += 1 + int(log(1 - rng.random()) / log(1 - p))
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w + 1, v + 1))
    return tuple(sorted(edges))


def past_the_ambient_limit() -> list[SimpleGraph]:
    """Seeded G(n, 3/n) draws on 25, 100 and 10,000 vertices, past the ideal layer's
    ambient limit of 24, where no mask of I_c(G) is built."""
    return [SimpleGraph(n, sparse_gnp(n, 3 / n, n)) for n in (25, 100, 10 ** 4)]


def past_the_oracle_limit() -> list[SimpleGraph]:
    """Graphs on 15, 20 and 24 vertices, past the engines' oracle limit of 14 and within
    the ambient limit of 24: a seeded G(15, 0.3) draw, a seeded G(19, 0.2) draw with
    vertex 20 left isolated, and K_24."""
    isolated = SimpleGraph(20, gnp_graph(19, 0.2, random.Random(20)).edges)
    return [gnp_graph(15, 0.3, random.Random(15)), isolated, complete_graph(24)]


def labeled_forests(n: int) -> list[SimpleGraph]:
    """All labeled forests on {1..n} with at least one edge.

    Depth-first over the edge slots, keeping a union-find per branch so a
    slot is only taken when it joins two distinct components.
    """
    slots = list(combinations(range(1, n + 1), 2))
    out: list[SimpleGraph] = []

    def find(parent: dict[int, int], x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(idx: int, edges: list[tuple[int, int]], parent: dict[int, int]) -> None:
        if idx == len(slots):
            if edges:
                out.append(SimpleGraph(n, tuple(edges)))
            return
        rec(idx + 1, edges, parent)
        u, v = slots[idx]
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            child = dict(parent)
            child[ru] = rv
            edges.append((u, v))
            rec(idx + 1, edges, child)
            edges.pop()

    rec(0, [], {v: v for v in range(1, n + 1)})
    return out


def atlas_graphs(min_n: int, max_n: int) -> list[SimpleGraph]:
    """One graph with an edge per isomorphism class on min_n..max_n vertices (networkx atlas)."""
    return [g for g in _atlas() if min_n <= g.n <= max_n]


@cache
def _atlas() -> tuple[SimpleGraph, ...]:
    """Every networkx atlas graph with an edge (n <= 7), read once per test run."""
    return tuple(SimpleGraph(g.number_of_nodes(), tuple((u + 1, v + 1) for u, v in g.edges))
                 for g in nx.graph_atlas_g() if g.number_of_edges())


def brute_force_component(ideal: SquarefreeIdeal, d: int) -> SquarefreeIdeal:
    """The degree-d squarefree component: every degree-d superset of every generator."""
    out: set[int] = set()
    for g in ideal.masks:
        if g.bit_count() > d:
            continue
        free = [1 << i for i in range(ideal.n) if not (g >> i) & 1]
        for extra in combinations(free, d - g.bit_count()):
            out.add(g | sum(extra))
    return SquarefreeIdeal(ideal.n, out)


def admissible_by_difference(chosen: Sequence[int], g: int) -> bool:
    """Whether (chosen) : g is generated by variables, written out per difference.

    The colon ideal is generated by the differences c - g of the earlier
    generators, so it is when each difference is a singleton or contains one.
    """
    diffs = [c & ~g for c in chosen]
    singles = [d for d in diffs if d.bit_count() == 1]
    for d in diffs:
        if d.bit_count() != 1 and not any(s & d for s in singles):
            return False
    return True


def maximum_cardinality_search(graph: SimpleGraph) -> list[int] | None:
    """A perfect elimination ordering (PEO) of a chordal graph, None for any other graph.

    Maximum cardinality search visits next a vertex with the most visited
    neighbours; the reverse of its visit order is a PEO exactly when the
    graph is chordal (Tarjan-Yannakakis, SIAM J. Comput. 13, 1984). That is
    checked here: the later neighbours of each vertex must form a clique.
    """
    adjacent = {v: set() for v in graph.vertices()}
    for u, v in graph.edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    weight = dict.fromkeys(adjacent, 0)
    visits = []
    while weight:
        v = max(weight, key=weight.__getitem__)
        visits.append(v)
        del weight[v]
        for w in adjacent[v] & weight.keys():
            weight[w] += 1
    order = visits[::-1]
    position = {v: k for k, v in enumerate(order)}
    for v in order:
        later = [w for w in adjacent[v] if position[w] > position[v]]
        if any(b not in adjacent[a] for a, b in combinations(later, 2)):
            return None
    return order


def cover_rule(graph: SimpleGraph) -> set[frozenset[int]]:
    """The minimal covers of I_c(G) as the graph names them: {v} per isolated vertex,
    {u, v} per non-edge of two vertices that each lie on an edge, and {u, v, w}
    per triangle."""
    edges = {frozenset(e) for e in graph.edges}
    carried = set().union(*edges)
    covers = {frozenset((v,)) for v in graph.vertices() if v not in carried}
    covers |= {frozenset(p) for p in combinations(sorted(carried), 2) if frozenset(p) not in edges}
    covers |= {frozenset(t) for t in combinations(graph.vertices(), 3)
               if all(frozenset(p) in edges for p in combinations(t, 2))}
    return covers


def peo_lex_dual_order(graph: SimpleGraph, peo: Sequence[int],
                       masks: Sequence[int] | None = None) -> list[int]:
    """The dual's generators by degree, then lexicographically by their vertices in the PEO.

    The generators are the masks given (vertex i <-> bit i-1), by default those
    of complementary_edge_dual(graph), which the cover search finds.
    """
    position = {v: k for k, v in enumerate(peo)}
    if masks is None:
        masks = complementary_edge_dual(graph).masks
    return sorted(masks, key=lambda g: (g.bit_count(), sorted(position[v] for v in support_of(g))))


def has_linear_quotients_in_order(order: Sequence[int]) -> bool:
    """Every colon of the earlier generators by the next one is generated by variables."""
    return all(admissible_by_difference(order[:k], g) for k, g in enumerate(order))


def reference_linear_quotients(ideal: SquarefreeIdeal) -> QuotientSearchResult:
    """The linear-quotient search with its admissibility check written out per difference.

    Same walk, budget and node count as has_linear_quotients; a candidate is
    admissible when every earlier difference is a singleton or meets one. A
    frame holds the generators left and the iterator over the candidates of
    least degree still to try, so the depth is one frame per chosen generator.
    """
    def candidates(remaining: list[int]):
        degree = remaining[0].bit_count() if remaining else 0
        return enumerate(takewhile(lambda g: g.bit_count() == degree, remaining))

    chosen: list[int] = []
    nodes = 0
    start = sorted(ideal.masks, key=int.bit_count)
    frames = [(start, candidates(start))]
    while frames[-1][0]:
        remaining, tries = frames[-1]
        for k, g in tries:
            nodes += 1
            if nodes > ideals_module.LINEAR_QUOTIENTS_BUDGET:
                return QuotientSearchResult("inconclusive", None, nodes)
            if admissible_by_difference(chosen, g):
                chosen.append(g)
                rest = remaining[:k] + remaining[k + 1:]
                frames.append((rest, candidates(rest)))
                break
        else:
            frames.pop()
            if not frames:
                return QuotientSearchResult("no", None, nodes)
            chosen.pop()
    return QuotientSearchResult("yes", tuple(map(support_of, chosen)), nodes)


def labeled_verify(max_n: int, field: Field) -> CommandOutcome:
    """`compedge verify` over every labeled graph on 3..max_n vertices, one cross_validate each.

    The sweep the command ran before it took one graph per isomorphism
    class: the slow leg its payload, diagnostic and exit code are held to.
    """
    enumerated = analyzed = clean = 0
    complete_pd_count = 0
    isolated_total = isolated_mismatched = 0
    disc_forest_linear = {"true": 0, "false": 0}
    unflagged = []
    for n in range(3, max_n + 1):
        for graph in enumerate_graphs(n):
            enumerated += 1
            if graph.m == 0:
                continue
            analyzed += 1
            report = invariants_module.cross_validate(graph, field)
            if NOTE_COMPLETE_PD in report.predicted.notes:
                complete_pd_count += 1
            isolated = NOTE_ISOLATED in report.predicted.notes
            if isolated:
                isolated_total += 1
            if report.predicted.graph_class == "disconnected_forest":
                key = "true" if report.oracle.reg_ideal == graph.n - 2 else "false"
                disc_forest_linear[key] += 1
            if report.clean:
                clean += 1
            elif isolated:
                isolated_mismatched += 1
            else:
                unflagged.append(report.to_json_dict())
    payload = {
        "max_n": max_n,
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
    diag = (f"checked {analyzed} graphs up to n={max_n}: "
            f"{len(unflagged)} unflagged mismatches, "
            f"{isolated_mismatched} flagged (isolated vertices)")
    return CommandOutcome(1 if unflagged else 0, json.dumps(payload, indent=2), diag)


@pytest.fixture(scope="session")
def oracle_sweep() -> tuple[list[OracleRecord], float]:
    """(records, wall seconds) over every labeled graph with >= 1 edge, n = 3..6."""
    start = time.perf_counter()
    records = []
    for n in range(3, 7):
        for graph in enumerate_graphs(n):
            if graph.m:
                records.append(measure(graph))
    return records, time.perf_counter() - start


@pytest.fixture(scope="session")
def forest_sweep():
    """(graph, is connected, pd of I, reg of I) for every forest with >= 1 edge, n <= 7."""
    rows = []
    for n in range(3, 8):
        for graph in labeled_forests(n):
            ideal = complementary_edge_ideal(graph)
            hom = reg_pd(hochster_betti(ideal, Field.GF2))
            connected = len(connected_components(graph)) == 1
            rows.append((graph, connected, hom.pd_ideal, hom.reg_ideal))
    return rows


@pytest.fixture(scope="session")
def forest_suites():
    """Implication suites for every forest with >= 1 edge on n <= 6, plus K_3."""
    suites = [implication_suite(graph)
              for n in range(3, 7) for graph in labeled_forests(n)]
    suites.append(implication_suite(complete_graph(3)))
    return suites
