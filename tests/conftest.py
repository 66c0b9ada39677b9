"""Session-wide oracle sweeps shared by the acceptance and tension tests.

Each sweep enumerates tens of thousands of graphs and runs the homology
oracle on every one, so it is computed once per pytest session and every
consumer reads the same records. The slow paths that several test modules
compare the library's fast paths against live here too.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import networkx as nx
import pytest

from compedge import (Field, QuotientSearchResult, SimpleGraph, SquarefreeIdeal,
                      complementary_edge_ideal, enumerate_graphs, height, hochster_betti,
                      implication_suite, reg_pd)
from compedge import ideals as ideals_module
from compedge.graphs import complete_graph, connected_components
from compedge.ideals import support_of


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


def reference_linear_quotients(ideal: SquarefreeIdeal) -> QuotientSearchResult:
    """The linear-quotient search with its admissibility check written out per difference.

    Same walk, budget and node count as has_linear_quotients; a candidate is
    admissible when every earlier difference is a singleton or meets one.
    """
    chosen: list[int] = []
    nodes = 0

    class Exhausted(Exception):
        pass

    def admissible(g: int) -> bool:
        diffs = [c & ~g for c in chosen]
        singles = [d for d in diffs if d.bit_count() == 1]
        for d in diffs:
            if d.bit_count() != 1 and not any(s & d for s in singles):
                return False
        return True

    def search(remaining: list[int]) -> bool:
        nonlocal nodes
        if not remaining:
            return True
        degree = remaining[0].bit_count()
        for k, g in enumerate(remaining):
            if g.bit_count() != degree:
                break
            nodes += 1
            if nodes > ideals_module.LINEAR_QUOTIENTS_BUDGET:
                raise Exhausted
            if admissible(g):
                chosen.append(g)
                if search(remaining[:k] + remaining[k + 1:]):
                    return True
                chosen.pop()
        return False

    try:
        found = search(sorted(ideal.masks, key=int.bit_count))
    except Exhausted:
        return QuotientSearchResult("inconclusive", None, nodes)
    if found:
        return QuotientSearchResult("yes", tuple(map(support_of, chosen)), nodes)
    return QuotientSearchResult("no", None, nodes)


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
