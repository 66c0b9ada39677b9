"""Pinned behavior of the closed forms outside their hypotheses.

The classification formulas assume every vertex of the graph meets an edge.
Graphs with isolated vertices produce ideals whose generators share the
isolated variables, and the measured invariants then leave the predicted
windows in a fully understood way. This module freezes that measured
behavior, and proves the refined statements: on the isolated-vertex-free
universe the formulas hold with zero exceptions.

Companion to tests/test_acceptance.py, whose literal universal claims fail
exactly on these graphs.
"""
from __future__ import annotations

from collections import Counter

import pytest

from compedge import (Field, SimpleGraph, complementary_edge_ideal, implication_suite, is_forest,
                      is_complete, is_licci)
from compedge.graphs import connected_components
from conftest import atlas_graphs


def has_isolated(graph: SimpleGraph) -> bool:
    return bool(graph.isolated_vertices())


class TestStructuralMechanism:
    def test_isolated_vertices_enter_every_generator(self):
        # joining an isolated vertex multiplies each generator by its variable
        small = complementary_edge_ideal(SimpleGraph(3, ((1, 2), (2, 3))))
        grown = complementary_edge_ideal(SimpleGraph(4, ((1, 2), (2, 3))))
        assert grown.gens == tuple(sorted((g | {4} for g in small.gens),
                                          key=lambda g: tuple(sorted(g))))

    def test_single_edge_gives_a_principal_ideal(self):
        ideal = complementary_edge_ideal(SimpleGraph(3, ((2, 3),)))
        assert ideal.gens == (frozenset({1}),)

    def test_single_edge_invariants(self, oracle_sweep):
        records, _ = oracle_sweep
        singles = [r for r in records if r.graph.m == 1]
        assert len(singles) == 3 + 6 + 10 + 15
        for r in singles:
            # principal ideals: height 1, projective dimension 0, and the
            # regularity is the generator degree n - 2, one under the tree rule
            assert r.height == 1
            assert r.pd_ideal == 0
            assert r.reg_ideal == r.graph.n - 2
            assert r.cohen_macaulay


class TestMeasuredViolationCounts:
    """Frozen counts over all 33860 labeled graphs with >= 1 edge, n = 3..6."""

    def test_sweep_size(self, oracle_sweep):
        records, _ = oracle_sweep
        assert len(records) == 33860
        by_n = Counter(r.graph.n for r in records)
        assert by_n == {3: 7, 4: 63, 5: 1023, 6: 32767}

    def test_pd_window_violations(self, oracle_sweep):
        records, _ = oracle_sweep
        bad = [r for r in records if r.pd_ideal not in (1, 2)]
        assert len(bad) == 34
        assert all(r.graph.m == 1 for r in bad)

    def test_reg_window_never_violated(self, oracle_sweep):
        # regularity stays in {n-2, n-1} even off-hypothesis
        records, _ = oracle_sweep
        assert all(r.reg_ideal in (r.graph.n - 2, r.graph.n - 1) for r in records)

    def test_cm_characterization_violations(self, oracle_sweep):
        records, _ = oracle_sweep
        bad = [r for r in records
               if r.cohen_macaulay != (is_forest(r.graph) or is_complete(r.graph))]
        assert len(bad) == 1412
        assert all(has_isolated(r.graph) for r in bad)

    def test_height_rule_violations(self, oracle_sweep):
        records, _ = oracle_sweep
        bad = [r for r in records if not is_complete(r.graph) and r.height != 2]
        assert len(bad) == 5598
        assert all(has_isolated(r.graph) for r in bad)
        assert all(r.height == 1 for r in bad)

    def test_licci_restatement_violations(self, oracle_sweep):
        records, _ = oracle_sweep
        bad = [r for r in records
               if is_licci(r.graph).licci != ((r.cohen_macaulay and r.height == 2)
                                              or (is_complete(r.graph) and r.graph.n == 3))]
        assert len(bad) == 1446
        assert all(has_isolated(r.graph) for r in bad)

    def test_forest_rule_violations(self, forest_sweep):
        bad = [(g, connected, pd, reg) for g, connected, pd, reg in forest_sweep
               if pd != 1 or reg != (g.n - 2 if connected else g.n - 1)]
        assert len(bad) == 13589
        assert all(has_isolated(g) for g, *_ in bad)

    def test_forest_population(self, forest_sweep):
        by_n = Counter(g.n for g, *_ in forest_sweep)
        # labeled forests with >= 1 edge
        assert by_n == {3: 6, 4: 37, 5: 290, 6: 2931, 7: 36960}


class TestRefinedStatements:
    """On graphs where every vertex meets an edge, the formulas are exact."""

    def test_clean_subuniverse_size(self, oracle_sweep):
        records, _ = oracle_sweep
        assert sum(1 for r in records if not has_isolated(r.graph)) == 28262

    def test_all_rules_hold_without_isolated_vertices(self, oracle_sweep):
        records, _ = oracle_sweep
        for r in records:
            if has_isolated(r.graph):
                continue
            complete = is_complete(r.graph)
            assert r.pd_ideal in (1, 2)
            assert r.height == (3 if complete else 2)
            assert r.cohen_macaulay == (is_forest(r.graph) or complete)
            assert is_licci(r.graph).licci == ((r.cohen_macaulay and r.height == 2)
                                               or (complete and r.graph.n == 3))

    def test_forest_rules_hold_without_isolated_vertices(self, forest_sweep):
        for g, connected, pd, reg in forest_sweep:
            if has_isolated(g):
                continue
            assert pd == 1
            assert reg == (g.n - 2 if connected else g.n - 1)

    def test_complete_graphs_stay_cohen_macaulay_with_pd_two(self, oracle_sweep):
        # the one flagged adjustment on clean inputs: pd(I) is 2, not 1,
        # matching height 3 Cohen-Macaulayness
        records, _ = oracle_sweep
        completes = [r for r in records if is_complete(r.graph)]
        assert len(completes) == 4
        for r in completes:
            assert (r.height, r.pd_ideal, r.cohen_macaulay) == (3, 2, True)
            assert r.reg_ideal == r.graph.n - 2


class TestImplicationClaimsOffHypothesis:
    def test_first_three_claims_never_fail_on_forests(self, forest_suites):
        for suite in forest_suites:
            assert suite.sequentially_cm
            assert suite.dual_componentwise_linear
            assert suite.dual_linear_quotients == "yes"

    def test_dual_linear_resolution_fails_exactly_on_isolated_forests(self, forest_suites):
        bad = [s for s in forest_suites if not s.dual_linear_resolution]
        assert len(bad) == 1412
        assert all(has_isolated(s.graph) for s in bad)
        good_isolated = [s for s in forest_suites
                         if has_isolated(s.graph) and s.dual_linear_resolution]
        # single-edge graphs keep a linear dual despite isolated vertices
        assert all(s.graph.m == 1 for s in good_isolated)

    def test_disconnected_forest_primal_resolution_split(self, forest_suites):
        disconnected = [s for s in forest_suites
                        if is_forest(s.graph) and len(connected_components(s.graph)) > 1]
        split = Counter(s.primal_linear_resolution for s in disconnected)
        assert split == {True: 1206, False: 618}
        # without isolated vertices the claim fails outright, as recorded
        clean = [s for s in disconnected if not has_isolated(s.graph)]
        assert clean and all(not s.primal_linear_resolution for s in clean)

    @pytest.mark.parametrize("field", list(Field))
    def test_forest_statements_on_every_forest_class_on_seven(self, field):
        # the three statements above on one forest per isomorphism class on
        # n = 7 (networkx atlas); every claim is invariant under relabeling
        forests = [g for g in atlas_graphs(7, 7) if is_forest(g)]
        assert len(forests) == 36
        suites = [implication_suite(g, field) for g in forests]
        for suite in suites:
            assert suite.sequentially_cm
            assert suite.dual_componentwise_linear
            assert suite.dual_linear_quotients == "yes"
        bad = [s for s in suites if not s.dual_linear_resolution]
        assert len(bad) == 18
        assert all(has_isolated(s.graph) and s.graph.m > 1 for s in bad)
        assert all(s.graph.m == 1 for s in suites
                   if has_isolated(s.graph) and s.dual_linear_resolution)
        disconnected = [s for s in suites if len(connected_components(s.graph)) > 1]
        split = Counter(s.primal_linear_resolution for s in disconnected)
        assert split == {True: 13, False: 12}
        clean = [s for s in disconnected if not has_isolated(s.graph)]
        assert clean and all(not s.primal_linear_resolution for s in clean)
