"""Classification layer: predictions, licci verdicts, oracle cross-validation."""
from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc
from itertools import combinations
from math import comb

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from compedge import (Field, SimpleGraph, SimplicialComplex, SquarefreeIdeal, alexander_dual,
                      complementary_edge_dual, complementary_edge_ideal, cross_validate,
                      enumerate_graphs, has_linear_quotients, has_linear_resolution,
                      huneke_ulrich_check, implication_suite, is_cohen_macaulay, is_forest,
                      is_licci, oracle_invariants, predict_invariants, reduced_homology_dims,
                      reg_pd, stanley_reisner)
from compedge import cli, graphs, homology, ideals, invariants, tables
from compedge.graphs import complete_graph, cycle_graph, path_graph
from compedge.homology import _primal_betti
from compedge.ideals import mask_of
from compedge.invariants import NOTE_COMPLETE_PD, NOTE_ISOLATED
from conftest import (atlas_graphs, brute_force_component, closed_form_betti, cover_rule,
                      has_linear_quotients_in_order, labeled_forests, maximum_cardinality_search,
                      past_the_ambient_limit, past_the_oracle_limit, peo_lex_dual_order,
                      reference_linear_quotients)

# the layer modules, for the tests that patch a name and check no other layer holds it
LAYERS = (graphs, tables, ideals, homology, invariants, cli)


def graphs_with_edges(min_n: int = 3, max_n: int = 6) -> st.SearchStrategy[SimpleGraph]:
    def build(n: int) -> st.SearchStrategy[SimpleGraph]:
        slots = list(combinations(range(1, n + 1), 2))
        return st.lists(st.sampled_from(slots), unique=True, min_size=1).map(
            lambda edges: SimpleGraph(n, tuple(edges)))
    return st.integers(min_n, max_n).flatmap(build)


class TestLicciVerdict:
    def test_forest(self):
        verdict = is_licci(path_graph(4))
        assert verdict.licci and verdict.reason == "forest"

    def test_triangle(self):
        verdict = is_licci(complete_graph(3))
        assert verdict.licci and verdict.reason == "K3"

    def test_larger_complete_graph(self):
        verdict = is_licci(complete_graph(4))
        assert not verdict.licci and verdict.reason == "complete_n_ge_4"

    def test_cycle(self):
        verdict = is_licci(cycle_graph(4))
        assert not verdict.licci and verdict.reason == "contains_cycle_not_complete"

    def test_guards(self):
        with pytest.raises(ValueError, match="degenerate ambient"):
            is_licci(SimpleGraph(2, ((1, 2),)))
        with pytest.raises(ValueError, match="edgeless"):
            is_licci(SimpleGraph(3, ()))

    def test_to_json_dict(self):
        assert is_licci(complete_graph(3)).to_json_dict() == {
            "licci": True, "reason": "K3"}

    def test_every_verdict_is_one_of_four_shared_records(self):
        verdicts = {id(is_licci(graph)): is_licci(graph)
                    for n in range(3, 6) for graph in enumerate_graphs(n) if graph.m}
        assert sorted(verdicts.values()) == [(False, "complete_n_ge_4"),
                                             (False, "contains_cycle_not_complete"),
                                             (True, "K3"), (True, "forest")]


class TestHunekeUlrich:
    def test_threshold_arithmetic(self):
        assert huneke_ulrich_check(2, 2, 3)
        assert huneke_ulrich_check(2, 3, 2)
        assert not huneke_ulrich_check(1, 3, 3)
        # height 1 or linear generators make the bound vacuous
        assert huneke_ulrich_check(0, 1, 5)
        assert huneke_ulrich_check(0, 4, 1)

    @pytest.mark.parametrize("reg, height_, indeg, holds", [
        # the height factor decides: (3 - 1) * (2 - 1) = 2 > 1, but (2 - 1) * 1 = 1
        (1, 3, 2, False), (1, 2, 2, True), (2, 3, 2, True),
        # the degree factor decides: (2 - 1) * (3 - 1) = 2 > 1, but 1 * (2 - 1) = 1
        (1, 2, 3, False), (2, 2, 3, True),
        # both decide at once: 2 * 2 = 4
        (3, 3, 3, False), (4, 3, 3, True),
    ])
    def test_each_factor_decides_at_its_boundary(self, reg, height_, indeg, holds):
        assert huneke_ulrich_check(reg, height_, indeg) is holds


class TestPredictions:
    def test_tree(self):
        report = predict_invariants(path_graph(4))
        assert report.graph_class == "tree"
        assert (report.height, report.cohen_macaulay, report.pd_ideal) == (2, True, 1)
        assert report.reg_ideal == (2, 2)
        assert report.indeg == 2
        assert report.verdict.licci
        assert report.notes == ()

    def test_disconnected_forest(self):
        report = predict_invariants(SimpleGraph(4, ((1, 2), (3, 4))))
        assert report.graph_class == "disconnected_forest"
        assert report.reg_ideal == (3, 3)
        assert report.verdict.licci

    def test_complete(self):
        report = predict_invariants(complete_graph(4))
        assert report.graph_class == "complete"
        assert (report.height, report.cohen_macaulay, report.pd_ideal) == (3, True, 2)
        assert report.reg_ideal == (2, 2)
        assert not report.verdict.licci
        assert NOTE_COMPLETE_PD in report.notes

    def test_triangle_is_complete_and_licci(self):
        report = predict_invariants(complete_graph(3))
        assert report.graph_class == "complete"
        assert report.verdict.licci
        assert report.reg_ideal == (1, 1)

    def test_cycle_gets_interval_regularity(self):
        report = predict_invariants(cycle_graph(5))
        assert report.graph_class == "other"
        assert (report.height, report.cohen_macaulay, report.pd_ideal) == (2, False, 2)
        assert report.reg_ideal == (3, 4)
        assert not report.verdict.licci

    def test_isolated_vertices_are_flagged(self):
        report = predict_invariants(SimpleGraph(4, ((1, 2),)))
        assert NOTE_ISOLATED in report.notes
        assert NOTE_ISOLATED not in predict_invariants(path_graph(4)).notes

    def test_json_regularity_collapses_tight_intervals(self):
        assert predict_invariants(path_graph(4)).to_json_dict()["reg_ideal"] == 2
        assert predict_invariants(cycle_graph(5)).to_json_dict()["reg_ideal"] == [3, 4]

    def test_provenance_names_every_predicted_invariant(self):
        report = predict_invariants(cycle_graph(4))
        assert dict(report.provenance).keys() == {
            "height", "cohen_macaulay", "pd_ideal", "reg_ideal", "licci"}

    def test_every_field_of_every_class_against_slow_paths(self, oracle_sweep):
        # on every labeled graph to six: the class and the verdict by
        # networkx, indeg off the generators of complementary_edge_ideal(G),
        # and height, CM, pd and reg by the class rules written out; where no
        # vertex is isolated, which the rules assume, those four by the ideal
        # route too (oracle_sweep: hochster_betti and the cover search), reg
        # by interval containment
        rules = {"tree": lambda n: (2, True, 1, (n - 2, n - 2)),
                 "disconnected_forest": lambda n: (2, True, 1, (n - 1, n - 1)),
                 "other": lambda n: (2, False, 2, (n - 2, n - 1)),
                 "complete": lambda n: (3, True, 2, (n - 2, n - 2))}
        records, _ = oracle_sweep
        classes = set()
        for record in records:
            graph = record.graph
            n = graph.n
            g = nx.Graph(graph.edges)
            g.add_nodes_from(graph.vertices())
            complete = graph.m == comb(n, 2)
            forest = nx.is_forest(g)
            expected = ("complete" if complete else "other" if not forest
                        else "tree" if nx.is_connected(g) else "disconnected_forest")
            reason = (("K3" if n == 3 else "complete_n_ge_4") if complete
                      else "forest" if forest else "contains_cycle_not_complete")
            report = predict_invariants(graph)
            assert report.graph_class == expected, graph
            assert report.verdict == (reason in ("K3", "forest"), reason), graph
            assert report.indeg == complementary_edge_ideal(graph).indeg == n - 2, graph
            values = (report.height, report.cohen_macaulay, report.pd_ideal, report.reg_ideal)
            assert values == rules[expected](n), graph
            if nx.number_of_isolates(g) == 0:
                lo, hi = report.reg_ideal
                assert values[:3] == (record.height, record.cohen_macaulay, record.pd_ideal)
                assert lo <= record.reg_ideal <= hi, graph
            classes.add(expected)
        assert classes == rules.keys()

    def test_notes_and_provenance_are_one_constant_per_class(self):
        # the rules per class, written out; every graph of a class shares one tuple
        rules = {
            "complete": ("complete_height_rule", "complete_pd_from_height_and_cm",
                         "complete_reg_rule"),
            "tree": ("non_complete_height_rule", "forest_pd_rule", "tree_reg_rule"),
            "disconnected_forest": ("non_complete_height_rule", "forest_pd_rule",
                                    "disconnected_forest_reg_rule"),
            "other": ("non_complete_height_rule", "non_cm_pd_rule", "reg_bounds_rule"),
        }
        provenances, notes = {}, {}
        for n in range(3, 6):
            for graph in enumerate_graphs(n):
                if not graph.m:
                    continue
                report = predict_invariants(graph)
                height, pd, reg = rules[report.graph_class]
                assert report.provenance == (
                    ("height", height), ("cohen_macaulay", "cm_iff_complete_or_forest"),
                    ("pd_ideal", pd), ("reg_ideal", reg),
                    ("licci", "licci_iff_forest_or_triangle"))
                assert provenances.setdefault(report.graph_class, report.provenance) \
                    is report.provenance
                isolated = len({v for e in graph.edges for v in e}) < n
                complete = report.graph_class == "complete"
                assert report.notes == (NOTE_ISOLATED,) * isolated + (NOTE_COMPLETE_PD,) * complete
                assert notes.setdefault(report.notes, report.notes) is report.notes
        assert provenances.keys() == rules.keys()
        assert notes.keys() == {(), (NOTE_ISOLATED,), (NOTE_COMPLETE_PD,)}


class TestOracleAndCrossValidation:
    def test_oracle_on_a_tree(self):
        oracle = oracle_invariants(path_graph(4))
        assert (oracle.height, oracle.pd_ideal, oracle.reg_ideal) == (2, 1, 2)
        assert oracle.cohen_macaulay

    def test_oracle_on_a_cycle(self):
        oracle = oracle_invariants(cycle_graph(4))
        assert not oracle.cohen_macaulay
        assert (oracle.height, oracle.pd_ideal, oracle.reg_ideal) == (2, 2, 2)

    def test_clean_cases(self):
        for graph in (path_graph(4), cycle_graph(4), cycle_graph(5),
                      complete_graph(3), complete_graph(5),
                      SimpleGraph(4, ((1, 2), (3, 4)))):
            report = cross_validate(graph)
            assert report.clean, report.mismatches

    def test_single_edge_with_isolated_vertices_mismatches(self):
        # the closed forms assume every vertex meets an edge; here the ideal
        # is principal, so height, pd and reg all land outside the predictions
        report = cross_validate(SimpleGraph(4, ((1, 2),)))
        assert not report.clean
        names = {name for name, _, _ in report.mismatches}
        assert names == {"height", "pd_ideal", "reg_ideal"}
        as_json = report.to_json_dict()
        assert as_json["mismatches"][0]["invariant"] == "height"
        assert {"n": 4, "edges": [[1, 2]]} == as_json["graph"]

    def test_report_keeps_what_it_compared(self):
        for graph in (path_graph(4), complete_graph(4), SimpleGraph(4, ((1, 2),))):
            report = cross_validate(graph)
            assert report.predicted == predict_invariants(graph)
            assert report.oracle == oracle_invariants(graph)
            assert set(report.to_json_dict()) == {"graph", "field", "mismatches"}

    def test_guards(self):
        with pytest.raises(ValueError, match="edgeless"):
            cross_validate(SimpleGraph(5, ()))

    @pytest.mark.parametrize("ask", [
        oracle_invariants, cross_validate, implication_suite,
        lambda graph, field: homology.hochster_betti(complementary_edge_ideal(graph), field),
        lambda graph, field: homology.is_sequentially_cm(complementary_edge_ideal(graph), field)],
        ids=["oracle_invariants", "cross_validate", "implication_suite", "hochster_betti",
             "is_sequentially_cm"])
    def test_a_field_that_is_no_member_is_refused_before_any_record(self, ask):
        # a field's value would tag the answer, whose JSON then raises, and
        # would stay among the shared records
        records = (invariants._class_report, invariants._oracle_record, invariants._checked)
        before = [record.cache_info() for record in records]
        for field in ("gf2", "q", None):
            with pytest.raises(ValueError, match=f"^field must be a Field, got {field!r}$"):
                ask(path_graph(4), field)
        assert [record.cache_info() for record in records] == before

    def test_the_mismatches_are_those_of_the_prediction_predict_gives(self, monkeypatch):
        # the lookup past the prediction is keyed by the prediction itself, so a
        # changed one is compared afresh, even on a graph whose class is warm
        graph = path_graph(4)
        assert all(cross_validate(graph, field).clean for field in Field)
        real = invariants._predict
        monkeypatch.setattr(invariants, "_predict", lambda g: real(g)._replace(height=3))
        for field in Field:
            report = cross_validate(graph, field)
            assert report.predicted.height == 3
            assert report.mismatches == (("height", 3, 2),)

    @settings(max_examples=40, deadline=None)
    @given(graphs_with_edges())
    def test_graphs_without_isolated_vertices_validate_cleanly(self, graph: SimpleGraph):
        assume(not graph.isolated_vertices())
        assert cross_validate(graph).clean


class TestSharedRecords:
    """Every formula-layer answer is one of a few shared records, bounded in number,
    so a sweep keeps no new object per prediction and one per report."""

    def test_graphs_of_one_class_or_one_count_share_one_record(self):
        # every graph with an edge on n = 3..5, over both fields: one prediction per
        # class and isolated-vertex flag, one set of oracle values per field and
        # counts, and one mismatch tuple per pair of those, each right for its graph
        for n in range(3, 6):
            reports, oracles, mismatches = {}, {}, {}
            for graph in enumerate_graphs(n):
                if not graph.m:
                    continue
                report = predict_invariants(graph)
                assert (NOTE_ISOLATED in report.notes) == bool(graph.isolated_vertices()), graph
                assert reports.setdefault((report.graph_class, report.notes), report) is report
                for field in Field:
                    oracle = oracle_invariants(graph, field)
                    assert oracle.field is field, graph
                    assert oracles.setdefault(oracle, oracle) is oracle
                    validation = cross_validate(graph, field)
                    assert validation.predicted is report and validation.oracle is oracle
                    assert mismatches.setdefault((report, oracle), validation.mismatches) \
                        is validation.mismatches
            assert len(reports) == (3 if n == 3 else 6)
        suites = {}
        for graph in labeled_forests(6):
            failed = implication_suite(graph).failed_claims
            assert suites.setdefault(failed, failed) is failed
        assert set(suites) == {(), ("primal_linear_resolution",), (
            "dual_linear_resolution",), ("dual_linear_resolution", "primal_linear_resolution")}

    def test_a_sweep_keeps_one_new_object_per_report(self):
        # garbage-collector-tracked objects kept, with the collector off: the two
        # reports of each graph and the suite of each forest, plus the few shared
        # records (11.57 per graph and 1.55 per forest when every answer was new);
        # the shared records start empty, so the count is the same in any test order
        for record in (invariants._class_report, invariants._oracle_record, invariants._checked):
            record.cache_clear()
        graphs = [g for n in range(3, 6) for g in enumerate_graphs(n) if g.m]
        forests = [g for n in range(3, 7) for g in labeled_forests(n)]
        assert (len(graphs), len(forests)) == (1093, 3264)
        enabled = gc.isenabled()
        gc.disable()
        try:
            kept = []
            before = len(gc.get_objects())
            for graph in graphs:
                kept.append(predict_invariants(graph))
                kept += (cross_validate(graph, field) for field in Field)
            per_graph = (len(gc.get_objects()) - before) / len(graphs)
            kept.clear()
            before = len(gc.get_objects())
            kept += (implication_suite(graph) for graph in forests)
            per_forest = (len(gc.get_objects()) - before) / len(forests)
        finally:
            if enabled:
                gc.enable()
        assert per_graph <= 2.2
        assert per_forest <= 1.0

    def test_a_warm_class_costs_one_lookup_past_the_prediction(self):
        # once a graph's class is warm, cross_validate on another graph of the
        # class hits the prediction's cache and _checked once each, and the
        # oracle record's cache not at all: no entry is made, none is missed
        records = (invariants._class_report, invariants._oracle_record, invariants._checked)
        for first, second in ((path_graph(5), SimpleGraph(5, ((1, 2), (1, 3), (1, 4), (1, 5)))),
                              (cycle_graph(5), SimpleGraph(5, ((1, 3), (3, 5), (5, 2), (2, 4),
                                                               (4, 1)))),
                              (complete_graph(5), complete_graph(5)),
                              (SimpleGraph(6, ((1, 2), (3, 4))), SimpleGraph(6, ((5, 6), (1, 3))))):
            for field in Field:
                cross_validate(first, field)
                before = [record.cache_info() for record in records]
                cross_validate(second, field)
                after = [record.cache_info() for record in records]
                assert [(a.hits - b.hits, a.misses - b.misses, a.currsize - b.currsize)
                        for a, b in zip(after, before)] == [(1, 0, 0), (0, 0, 0), (1, 0, 0)]

    def test_records_outlive_a_change_of_vertex_count(self):
        # a sweep that alternates n = 3, 4, 3, ... gets back, for each class and
        # field, the very records it got the last time it asked
        first = {}
        for n in (3, 4, 3, 4, 3):
            for graph in (path_graph(n), SimpleGraph(n, ((1, 2),)), complete_graph(n)):
                for field in Field:
                    report = cross_validate(graph, field)
                    held = first.setdefault((graph, field), report)
                    assert report.predicted is held.predicted, (graph, field)
                    assert report.oracle is held.oracle, (graph, field)
                    assert report.mismatches is held.mismatches, (graph, field)
        assert len(first) == 2 * 3 * 2

    def test_records_of_one_vertex_count_at_a_time(self):
        # a sweep to n = 100,002 keeps at most 256 records of each kind, the most
        # recently used, so the memory they take stays bounded however large n gets
        bound = 2 ** 20
        tracemalloc.start()
        try:
            for n in range(3, 100_003):
                graph = SimpleGraph(n, ((1, 2), (2, 3)))
                for field in Field:
                    cross_validate(graph, field)
                if n % 1000 == 0:
                    assert tracemalloc.get_traced_memory()[0] < bound, n
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < bound


class TestImplicationSuite:
    def test_triangle_satisfies_all_five_claims(self):
        suite = implication_suite(complete_graph(3))
        assert suite.licci.licci
        assert suite.sequentially_cm
        assert suite.dual_componentwise_linear
        assert suite.dual_linear_quotients == "yes"
        assert suite.dual_linear_resolution
        assert suite.primal_linear_resolution
        assert suite.failed_claims == ()

    def test_path_satisfies_all_five_claims(self):
        suite = implication_suite(path_graph(4))
        assert suite.failed_claims == ()

    def test_disconnected_forest_fails_only_the_primal_resolution_claim(self):
        suite = implication_suite(SimpleGraph(4, ((1, 2), (3, 4))))
        assert suite.licci.licci
        assert suite.sequentially_cm
        assert suite.dual_linear_resolution
        assert not suite.primal_linear_resolution
        assert suite.failed_claims == ("primal_linear_resolution",)

    def test_non_licci_graphs_record_no_failed_claims(self):
        suite = implication_suite(cycle_graph(4))
        assert not suite.licci.licci
        assert suite.failed_claims == ()
        assert not suite.sequentially_cm

    def test_to_json_dict_shape(self):
        payload = implication_suite(path_graph(4)).to_json_dict()
        assert payload["licci"] == {"licci": True, "reason": "forest"}
        assert payload["dual_linear_quotients"] == "yes"
        assert payload["failed_claims"] == []

    @pytest.mark.parametrize("field", list(Field))
    def test_payload_equals_the_slow_route_on_every_graph_up_to_five(self, field):
        graphs = [g for n in range(3, 6) for g in enumerate_graphs(n) if g.m]
        assert len(graphs) == 7 + 63 + 1023
        for graph in graphs:
            assert implication_suite(graph, field).to_json_dict() == slow_suite_payload(
                graph, field), graph

    def test_payload_digest_over_every_graph_to_five_and_forest_on_six(self):
        # the behaviour gate: one SHA-256 over the sorted-key JSON of every
        # payload, GF(2) first, in enumeration order; any change to a claim,
        # a verdict or a failed_claims list moves it
        graphs = [g for n in range(3, 6) for g in enumerate_graphs(n) if g.m]
        graphs += [g for g in enumerate_graphs(6) if g.m and is_forest(g)]
        assert len(graphs) == 1093 + 2931
        digest = hashlib.sha256()
        for field in (Field.GF2, Field.RATIONALS):
            for graph in graphs:
                payload = implication_suite(graph, field).to_json_dict()
                digest.update(json.dumps(payload, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "eaea92c8481bbd6ae74ff65b7466729b8426bd7690094db2730bb6e5f7723652")


def duval_sequentially_cm(graph: SimpleGraph, field: Field) -> bool:
    """Whether the Stanley-Reisner complex of I_c(G) is sequentially CM, by Duval's criterion.

    A complex is sequentially Cohen-Macaulay exactly when each pure skeleton,
    the subcomplex generated by the faces of one dimension d, is Cohen-Macaulay
    (Duval, Electron. J. Combin. 3, 1996). A pure complex of dimension d is
    Cohen-Macaulay exactly when the link of every face F has no reduced
    homology below dimension d - |F| (Reisner, Adv. Math. 21, 1976).
    """
    n = graph.n
    faces = stanley_reisner(complementary_edge_ideal(graph)).faces
    for d in range(max(f.bit_count() for f in faces)):
        tops = [t for t in faces if t.bit_count() == d + 1]
        skeleton = [f for f in faces if any(f & t == f for t in tops)]
        for f in skeleton:
            link = frozenset(g ^ f for g in skeleton if g & f == f)
            dims = reduced_homology_dims(SimplicialComplex(n, link), field)
            if any(dims[:d - f.bit_count() + 1]):
                return False
    return True


class TestDualComponentsOffTheGraph:
    """The suite reads the dual's squarefree components off the graph, with no chain."""

    def test_componentwise_linearity_is_chordality_on_every_class_to_seven(self):
        # Froberg and Herzog-Hibi make the answer chordality of G; Jahan-Zheng
        # makes a dual that is not componentwise linear "no", and a perfect
        # elimination ordering gives every other one linear quotients
        graphs = atlas_graphs(3, 7)
        assert len(graphs) == 201 + 1043
        for graph in graphs:
            suite = implication_suite(graph)
            linear = suite.dual_componentwise_linear
            assert linear == nx.is_chordal(nx.Graph(graph.edges)), graph
            assert suite.dual_linear_quotients == ("yes" if linear else "no"), graph

    @pytest.mark.parametrize("field", list(Field))
    def test_componentwise_linearity_is_the_chain_of_the_dual_ideal(self, field):
        # the slow leg grows every component of the dual ideal, degree by degree
        for graph in atlas_graphs(3, 6):
            assert implication_suite(graph, field).dual_componentwise_linear == (
                homology.is_componentwise_linear(complementary_edge_dual(graph), field)), graph

    @pytest.mark.parametrize("field", list(Field))
    def test_sequentially_cm_is_duvals_criterion(self, field):
        # every class to n = 6 and every eighth class on n = 7: the slow leg
        # reads the complex's links, at about 10 ms a class on n = 7
        graphs = atlas_graphs(3, 6) + atlas_graphs(7, 7)[::8]
        assert len(graphs) == 201 + 131
        for graph in graphs:
            assert implication_suite(graph, field).sequentially_cm == (
                duval_sequentially_cm(graph, field)), graph

    # two forests, a chordal graph with a triangle and the 5-cycle
    ROUTE_GRAPHS = (SimpleGraph(7, ((1, 2), (2, 3), (2, 4), (5, 6))), path_graph(7),
                    SimpleGraph(5, ((1, 2), (1, 3), (2, 3), (3, 4), (4, 5))), cycle_graph(5))

    def test_no_dual_ideal_and_no_chain_is_built(self, monkeypatch):
        graphs = self.ROUTE_GRAPHS
        expected = [implication_suite(g, f) for g in graphs for f in Field]

        def refuse(*args):
            raise AssertionError("built the dual ideal or its chain")
        monkeypatch.setattr(SquarefreeIdeal, "__init__", refuse)
        for module in (ideals, homology):
            monkeypatch.setattr(module, "_squarefree_components", refuse)
        assert [implication_suite(g, f) for g in graphs for f in Field] == expected

    def test_no_quotient_search_and_no_dual_is_run(self, monkeypatch):
        # linear quotients are chordality, read off the neighbour masks
        graphs = self.ROUTE_GRAPHS
        expected = [implication_suite(g, f).to_json_dict() for g in graphs for f in Field]

        def refuse(*args):
            raise AssertionError("ran the quotient search or built the dual")
        for name in ("has_linear_quotients", "complementary_edge_dual", "alexander_dual"):
            # raises if the name is gone from its home
            monkeypatch.setattr(ideals, name, refuse)
            # no other layer holds the name, so the patch reaches every call
            for module in (invariants, tables):
                assert not hasattr(module, name), (module, name)
        assert [implication_suite(g, f).to_json_dict()
                for g in graphs for f in Field] == expected

    def test_no_betti_table_of_the_dual_is_routed(self, monkeypatch):
        # componentwise linearity is chordality, read off the neighbour masks
        graphs = self.ROUTE_GRAPHS
        expected = [implication_suite(g, f).to_json_dict() for g in graphs for f in Field]

        def refuse(*args):
            raise AssertionError("routed a Betti table of the dual")
        # raises if the name is gone from its home
        monkeypatch.setattr(homology, "_mask_betti", refuse)
        # no other layer holds the name, so the patch reaches every call
        for module in set(LAYERS) - {homology}:
            assert not hasattr(module, "_mask_betti"), module
        assert [implication_suite(g, f).to_json_dict()
                for g in graphs for f in Field] == expected

    def test_every_yes_witness_passes_the_per_difference_rule(self):
        # the search agrees with the suite's "yes" on every chordal class, and
        # its one-mask admissibility test passes the colon ideals written out
        # per difference on each witness
        chordal = [g for g in atlas_graphs(3, 7) if nx.is_chordal(nx.Graph(g.edges))]
        assert len(chordal) == 3 + 9 + 26 + 93 + 392
        for graph in chordal:
            dual = complementary_edge_dual(graph)
            result = has_linear_quotients(dual)
            assert result.status == "yes", graph
            order = [mask_of(s) for s in result.ordering]
            assert sorted(order) == list(dual.masks), graph
            assert [g.bit_count() for g in order] == list(dual.degrees), graph
            assert has_linear_quotients_in_order(order), graph


@st.composite
def chordal_graphs(draw, min_n: int = 3, max_n: int = 16) -> SimpleGraph:
    """A random chordal graph: each vertex in turn joins a clique of the ones before it.

    The new vertex is simplicial, so the graph stays chordal; the labels are
    shuffled so that the insertion order is no PEO of the labels.
    """
    n = draw(st.integers(min_n, max_n))
    rng = draw(st.randoms(use_true_random=False))
    adjacent: list[set[int]] = []
    for v in range(n):
        clique: list[int] = []
        if v and rng.random() < 0.9:
            u = rng.randrange(v)
            near = sorted(adjacent[u] | {u})
            rng.shuffle(near)
            clique = [w for w in near if rng.random() < 0.7]
            clique = [w for k, w in enumerate(clique)
                      if all(x in adjacent[w] for x in clique[:k])]
        adjacent.append(set(clique))
        for w in clique:
            adjacent[w].add(v)
    labels = rng.sample(range(1, n + 1), n)
    edges = tuple((labels[u], labels[v]) for v in range(n) for u in adjacent[v] if u < v)
    assume(edges)
    return SimpleGraph(n, edges)


class TestPerfectEliminationOrder:
    """The theorem behind dual_linear_quotients: for a chordal G, the dual's
    generators by degree and then lexicographically in a PEO have linear
    quotients, checked per difference against the colon ideals."""

    def test_every_labeled_graph_to_six(self, oracle_sweep):
        # the suite's "yes" is chordality; maximum cardinality search finds a
        # PEO on exactly the chordal graphs, and its order passes on each
        records, _ = oracle_sweep
        chordal = 0
        for record in records:
            graph = record.graph
            peo = maximum_cardinality_search(graph)
            assert implication_suite(graph).dual_linear_quotients == (
                "no" if peo is None else "yes"), graph
            if peo is not None:
                chordal += 1
                assert has_linear_quotients_in_order(peo_lex_dual_order(graph, peo)), graph
        assert chordal == 19041

    def test_every_chordal_class_to_seven(self):
        graphs = atlas_graphs(3, 7)
        peos = [maximum_cardinality_search(g) for g in graphs]
        assert [p is not None for p in peos] == [nx.is_chordal(nx.Graph(g.edges))
                                                 for g in graphs]
        chordal = [(g, p) for g, p in zip(graphs, peos) if p is not None]
        assert len(chordal) == 523
        for graph, peo in chordal:
            assert has_linear_quotients_in_order(peo_lex_dual_order(graph, peo)), graph
        # the check has teeth: the reversed PEO fails on 294 of the classes
        assert sum(not has_linear_quotients_in_order(peo_lex_dual_order(g, p[::-1]))
                   for g, p in chordal) == 294

    @settings(max_examples=100, deadline=None)
    @given(chordal_graphs())
    def test_random_chordal_graphs_to_sixteen(self, graph: SimpleGraph):
        peo = maximum_cardinality_search(graph)
        assert peo is not None
        assert has_linear_quotients_in_order(peo_lex_dual_order(graph, peo))
        suite = implication_suite(graph)
        assert (suite.dual_componentwise_linear, suite.dual_linear_quotients) == (True, "yes")

    @settings(max_examples=10, deadline=None)
    @given(chordal_graphs(min_n=17, max_n=25))
    def test_random_chordal_graphs_from_seventeen_to_twenty_five(self, graph: SimpleGraph):
        # the dual's generators by the cover rule, which reaches past the ideal
        # layer's ambient limit of 24 vertices
        peo = maximum_cardinality_search(graph)
        assert peo is not None
        masks = [sum(1 << v - 1 for v in cover) for cover in cover_rule(graph)]
        assert has_linear_quotients_in_order(peo_lex_dual_order(graph, peo, masks))
        suite = implication_suite(graph)
        assert (suite.dual_componentwise_linear, suite.dual_linear_quotients) == (True, "yes")


class TestOneGraphLevelPath:
    """Every oracle question on I_c(G) is answered off the graph's counts."""

    def test_no_ideal_route_is_taken_on_a_forest(self, monkeypatch):
        forests = [SimpleGraph(7, ((1, 2), (2, 3), (2, 4), (5, 6))), path_graph(7)]
        questions = (oracle_invariants, cross_validate, implication_suite)
        expected = [q(g, f) for g in forests for f in Field for q in questions]

        def refuse(*args):
            raise AssertionError("took the ideal route")
        # each name where it lives, a raising patch if it is gone from there
        homes = {"complementary_edge_ideal": (ideals,), "hochster_betti": (homology,),
                 "height": (ideals, homology), "_closure": (ideals, homology)}
        for name, modules in homes.items():
            for module in modules:
                monkeypatch.setattr(module, name, refuse)
            # no other layer holds the name, so the patches reach every call
            for module in set(LAYERS) - set(modules):
                assert not hasattr(module, name), (module, name)
        assert [q(g, f) for g in forests for f in Field for q in questions] == expected

    def test_no_question_builds_a_betti_table(self, monkeypatch):
        # height, reg and pd come off the closed form tables._count_invariants;
        # a table is built only where one is returned
        graphs_ = [path_graph(5), cycle_graph(5), complete_graph(3), complete_graph(4),
                   SimpleGraph(6, ((1, 2), (3, 4))), SimpleGraph(6, ((1, 2), (2, 3), (1, 3)))]
        questions = (oracle_invariants, cross_validate, implication_suite)
        expected = [q(g, f) for g in graphs_ for f in Field for q in questions]

        def refuse(*args):
            raise AssertionError("built a Betti table")
        monkeypatch.setattr(tables.BettiTable, "__new__", refuse)
        assert [q(g, f) for g in graphs_ for f in Field for q in questions] == expected
        with pytest.raises(AssertionError, match="built a Betti table"):
            tables._graph_oracle(path_graph(5), Field.GF2)

    @pytest.mark.parametrize("question", [cross_validate, implication_suite])
    def test_one_union_find_per_graph(self, monkeypatch, question):
        # a graph runs graphs._join_count once, when it is built; the licci
        # verdict and the oracle values read those counts, and no question recounts
        real = graphs._join_count
        calls = []

        def counted(pairs):
            calls.append(pairs)
            return real(pairs)
        for module in (graphs, homology):
            monkeypatch.setattr(module, "_join_count", counted)
        for module in set(LAYERS) - {graphs, homology}:
            assert not hasattr(module, "_join_count"), module
        graphs_ = []
        for build, *args in ((path_graph, 5), (cycle_graph, 5), (complete_graph, 3),
                             (complete_graph, 4),
                             (SimpleGraph, 6, ((1, 2), (3, 4), (4, 5), (3, 5)))):
            calls.clear()
            graphs_.append(build(*args))
            assert len(calls) == 1, graphs_[-1]
        calls.clear()
        for graph in graphs_:
            for field in Field:
                question(graph, field)
                assert calls == [], graph

    def test_the_chordality_kernel_never_runs_on_a_forest(self, monkeypatch):
        # a forest is chordal, so the suite reads its dual claims off the one
        # union-find count; a graph with a cycle still goes to the kernel
        real = graphs._is_chordal
        calls = []

        def counted(graph):
            calls.append(graph)
            return real(graph)
        for module in (graphs, invariants):
            monkeypatch.setattr(module, "_is_chordal", counted)
        forests = [g for n in range(3, 7) for g in labeled_forests(n)]
        assert len(forests) == 3264
        for graph in forests:
            implication_suite(graph)
        assert calls == []
        for graph in (cycle_graph(4), complete_graph(3)):
            implication_suite(graph)
        assert calls == [cycle_graph(4), complete_graph(3)]

    @pytest.mark.parametrize("graph", past_the_oracle_limit() + past_the_ambient_limit(),
                             ids=lambda g: f"n{g.n}")
    @pytest.mark.parametrize("field", list(Field))
    def test_every_question_answers_past_the_oracle_limit(self, graph, field):
        # n = 15..24 and on past the ideal layer's ambient limit to 10,000:
        # the table off counts, the dual claims off chordality
        table = closed_form_betti(graph, field)
        assert tables._graph_oracle(graph, field) == table
        hom = table.reg_pd()
        oracle = oracle_invariants(graph, field)
        assert (oracle.reg_s_mod_i, oracle.pd_s_mod_i) == (hom.reg_s_mod_i, hom.pd_s_mod_i)
        assert cross_validate(graph, field).oracle == oracle
        suite = implication_suite(graph, field)
        chordal = nx.is_chordal(nx.Graph(graph.edges))
        assert (suite.dual_componentwise_linear, suite.dual_linear_quotients) == (
            chordal, "yes" if chordal else "no")
        assert suite.primal_linear_resolution == (hom.reg_ideal == graph.n - 2)

    @pytest.mark.parametrize("graph, message", [
        (SimpleGraph(4, ()), "edgeless graph: the complementary edge ideal is zero"),
        (SimpleGraph(2, ((1, 2),)), "degenerate ambient: need at least 3 vertices, got 2"),
        # no vertex count is too large: only the missing edge is refused
        (SimpleGraph(10 ** 9, ()), "edgeless graph: the complementary edge ideal is zero"),
    ])
    @pytest.mark.parametrize("question", [oracle_invariants, cross_validate, implication_suite])
    def test_refusals_keep_their_messages(self, graph, message, question):
        with pytest.raises(ValueError) as caught:
            question(graph)
        assert str(caught.value) == message


def slow_suite_payload(graph: SimpleGraph, field: Field) -> dict:
    """implication_suite's payload by the slow route: the dual by cover search, its
    components by brute force at every degree, every table by the primal engine, the
    per-difference quotient check."""
    ideal = complementary_edge_ideal(graph)
    dual = alexander_dual(ideal)
    dual_cl = all(slow_linear_resolution(brute_force_component(dual, d), field)
                  for d in range(dual.indeg, dual.n + 1))
    claims = {
        "sequentially_cm": dual_cl,
        "dual_componentwise_linear": dual_cl,
        "dual_linear_quotients": reference_linear_quotients(dual).status,
        "dual_linear_resolution": slow_linear_resolution(dual, field),
        "primal_linear_resolution": slow_linear_resolution(ideal, field),
    }
    verdict = is_licci(graph)
    failed = [name for name, value in claims.items()
              if verdict.licci and value in (False, "no")]
    return {"graph": graph.to_json_dict(), "field": field.value,
            "licci": verdict.to_json_dict(), **claims, "failed_claims": failed}


def slow_linear_resolution(ideal: SquarefreeIdeal, field: Field) -> bool:
    """has_linear_resolution on the primal engine's table, past every routing of hochster_betti."""
    degrees = set(ideal.degrees)
    return len(degrees) == 1 and reg_pd(_primal_betti(ideal.n, ideal.masks, field)).reg_ideal == min(degrees)


class TestDualityTheorems:
    """Theorems that tie the suite's dual claims to properties computed without the dual."""

    def test_eagon_reiner_dual_linear_iff_primal_cohen_macaulay(self, forest_suites):
        # Eagon-Reiner, J. Pure Appl. Algebra 130 (1998): I^v has a linear
        # resolution iff S/I is Cohen-Macaulay, i.e. pd(S/I) = height
        forests = [s for s in forest_suites if is_forest(s.graph)]
        assert len(forests) == 3264
        for suite in forests:
            assert suite.dual_linear_resolution == is_cohen_macaulay(
                complementary_edge_ideal(suite.graph)), suite.graph

    def test_froberg_dual_linear_iff_graph_chordal(self, oracle_sweep):
        # without isolated vertices and triangles the dual of I_c(G) is the edge
        # ideal of the complement of G, which has a linear resolution iff G is
        # chordal (Froberg, Banach Center Publ. 26, 1990)
        records, _ = oracle_sweep
        graphs = [r.graph for r in records
                  if not has_triangle(r.graph) and not r.graph.isolated_vertices()]
        assert len(graphs) == 4223
        for graph in graphs:
            chordal = nx.is_chordal(nx.Graph(graph.edges))
            assert has_linear_resolution(complementary_edge_dual(graph)) == chordal, graph

    def test_a_chordal_graph_has_a_triangle_iff_it_has_a_cycle(self, oracle_sweep):
        # the suite's triangle term: a shortest cycle has no chord, so in a
        # chordal graph it is a triangle; every labeled graph to n = 6 and
        # every class on n = 7, with the cycle read off graphs._join_count.
        # A triangle is a cycle, so only a graph with a cycle and no triangle
        # could break the rule, and networkx must call each of them not chordal
        records, _ = oracle_sweep
        universe = [r.graph for r in records] + atlas_graphs(7, 7)
        assert len(universe) == 7 + 63 + 1023 + 32767 + 1043
        suspects = []
        for graph in universe:
            cycle = graphs._join_count(graph.edges)[1] < graph.m
            assert cycle or not has_triangle(graph), graph
            if cycle and not has_triangle(graph):
                suspects.append(graph)
        assert len(suspects) == 3 + 97 + 2857 + 70
        for graph in suspects:
            assert not nx.is_chordal(nx.Graph(graph.edges)), graph


def has_triangle(graph: SimpleGraph) -> bool:
    """Some edge has a common neighbour of its two ends."""
    neighbours = [0] * (graph.n + 1)
    for u, v in graph.edges:
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
    return any(neighbours[u] & neighbours[v] for u, v in graph.edges)
