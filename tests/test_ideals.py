"""Squarefree ideals: construction, covers, height, duality, linear quotients."""
from __future__ import annotations

import re
import tracemalloc
from itertools import combinations, islice, permutations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compedge import (SimpleGraph, SquarefreeIdeal, alexander_dual, complementary_edge_dual,
                      complementary_edge_ideal, enumerate_graphs, has_linear_quotients,
                      has_linear_resolution, height, minimal_vertex_covers, minimalize,
                      squarefree_component)
from compedge.graphs import complete_graph, is_complete, path_graph
from compedge import ideals as ideals_module
from compedge.ideals import _squarefree_components, mask_of, support_of
from conftest import (atlas_graphs, brute_force_component, cover_rule, labeled_forests,
                      reference_linear_quotients)


def fs(*vertices: int) -> frozenset[int]:
    return frozenset(vertices)


def ideals(max_n: int = 6) -> st.SearchStrategy[SquarefreeIdeal]:
    """Random nonzero squarefree ideals with nonempty generator supports."""
    def build(n: int) -> st.SearchStrategy[SquarefreeIdeal]:
        supports = st.sets(st.integers(1, n), min_size=1, max_size=n)
        return st.lists(supports, min_size=1, max_size=5).map(
            lambda gens: minimalize(n, gens))
    return st.integers(2, max_n).flatmap(build)


@st.composite
def graphs_with_isolated_vertices_and_triangles(draw, max_n: int = 9) -> SimpleGraph:
    """Graphs on 3..max_n vertices whose edges lie on 1..k, so k+1..n are isolated,
    with the triangle 1-2-3 added half the time."""
    n = draw(st.integers(3, max_n))
    k = draw(st.integers(2, n))
    edges = set(draw(st.lists(st.sampled_from(list(combinations(range(1, k + 1), 2))),
                              unique=True, min_size=1)))
    if k >= 3 and draw(st.booleans()):
        edges |= {(1, 2), (1, 3), (2, 3)}
    return SimpleGraph(n, tuple(edges))


def contains(ideal: SquarefreeIdeal, monomial: frozenset[int]) -> bool:
    # membership of a squarefree monomial: some generator divides it
    return any(g <= monomial for g in ideal.gens)


class TestMasks:
    def test_round_trip(self):
        assert support_of(mask_of([3, 1])) == fs(1, 3)
        assert mask_of([1, 2, 4]) == 0b1011
        assert support_of(0) == frozenset()


def outcome(build) -> tuple[frozenset[int], ...] | str:
    """The generator supports of the built ideal, or the message of its ValueError."""
    try:
        return build().gens
    except ValueError as exc:
        return str(exc)


class TestConstructor:
    @settings(max_examples=200)
    @given(st.integers(0, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(-3, 1 << (n + 1)), max_size=8))))
    def test_checks_and_minimalizes_like_minimalize_and_brute_force(self, case):
        n, masks = case
        # a negative mask stands for a support with a label below 1
        supports = [support_of(m) if m >= 0 else {m} for m in masks]
        if 0 in masks:
            expected = "unit ideal: a generator has empty support"
        elif any(m < 0 or m >= 1 << n for m in masks):
            expected = f"a generator is out of ambient range 1..{n}"
        else:
            sets = {support_of(m) for m in masks}
            expected = tuple(sorted((s for s in sets if not any(t < s for t in sets)), key=sorted))
        assert outcome(lambda: SquarefreeIdeal(n, masks)) == expected
        assert outcome(lambda: minimalize(n, supports)) == expected
        if isinstance(expected, tuple):
            stored = SquarefreeIdeal(n, masks).masks
            assert all(a < b for a, b in zip(stored, stored[1:]))

    @pytest.mark.parametrize("n", [3.0, 2.5, "3", np.int64(3), np.uint8(3), True])
    def test_ambient_size_is_a_plain_int_or_refused_by_name(self, n):
        if isinstance(n, (float, str)):
            message = f"^ambient size must be an integer, got {re.escape(repr(n))}$"
            with pytest.raises(ValueError, match=message):
                SquarefreeIdeal(n, [1])
            return
        ideal = SquarefreeIdeal(n, [1])
        assert type(ideal.n) is int and ideal.n == n
        assert ideal == SquarefreeIdeal(int(n), [1])
        assert repr(ideal) == f"SquarefreeIdeal(n={int(n)}, masks=(1,))"

    def test_generator_masks_are_plain_ints_or_refused_by_name(self):
        # numpy integers and bools are read through operator.index, so mixed
        # degrees reach int.bit_count on plain ints
        ideal = SquarefreeIdeal(3, [np.int64(3), np.int64(5), np.uint8(6), True])
        assert ideal == SquarefreeIdeal(3, [1, 6])
        assert all(type(m) is int for m in ideal.masks)
        assert SquarefreeIdeal(3, (np.int64(m) for m in (3, 5))).masks == (3, 5)
        for bad in (1.0, 2.5, "3", None):
            with pytest.raises(ValueError, match="^generator mask must be an integer: "):
                SquarefreeIdeal(3, [1, bad])
        # the ambient size is checked before any mask is read
        with pytest.raises(ValueError, match="^ambient size 25 outside"):
            SquarefreeIdeal(25, [1.0])

    @pytest.mark.parametrize("masks", [5, None])
    def test_masks_that_are_not_iterable_are_refused_by_name(self, masks):
        with pytest.raises(ValueError, match=f"^generator masks must be iterable, got {masks}$"):
            SquarefreeIdeal(3, masks)

    def test_ambient_size_zero_is_accepted(self):
        # the ideal layer accepts n = 0, whose one ideal is the zero ideal;
        # the polynomial ring in no variables is a field, and every mask is
        # outside its ambient
        ideal = SquarefreeIdeal(0, [])
        assert (ideal.n, ideal.masks, ideal.is_zero) == (0, (), True)
        assert ideal == minimalize(0, [])
        with pytest.raises(ValueError, match="out of ambient range 1..0"):
            SquarefreeIdeal(0, [1])
        with pytest.raises(ValueError, match="^ambient size -1 outside supported range 0..24$"):
            SquarefreeIdeal(-1, [])

    def test_generator_outside_the_ambient_is_refused(self):
        with pytest.raises(ValueError, match="out of ambient range"):
            SquarefreeIdeal(3, (mask_of([5]),))

    def test_unit_ideal_is_refused(self):
        with pytest.raises(ValueError, match="unit ideal"):
            SquarefreeIdeal(3, (0,))

    def test_redundant_generator_is_dropped(self):
        ideal = SquarefreeIdeal(3, (mask_of([1, 2]), mask_of([1, 2, 3])))
        assert ideal.gens == (fs(1, 2),)
        assert has_linear_resolution(ideal)

    def test_generator_order_does_not_matter(self):
        ideal = SquarefreeIdeal(3, (mask_of([2, 3]), mask_of([1, 2])))
        assert ideal == minimalize(3, [[1, 2], [2, 3]])


class TestMinimalize:
    def test_drops_redundant_supports(self):
        ideal = minimalize(4, [[1, 2], [1, 2, 3], [4]])
        assert ideal.gens == (fs(1, 2), fs(4))

    def test_generators_sorted_canonically(self):
        ideal = minimalize(4, [[2, 3], [1, 4], [1, 2]])
        assert ideal.gens == (fs(1, 2), fs(1, 4), fs(2, 3))

    def test_rejects_empty_support(self):
        with pytest.raises(ValueError, match="unit ideal"):
            minimalize(3, [[1], []])

    def test_rejects_out_of_range_support(self):
        for support in ([1, 4], [0, 1], [1, 10 ** 12]):
            with pytest.raises(ValueError, match="out of ambient range"):
                minimalize(3, [support])

    def test_rejects_oversized_ambient(self):
        with pytest.raises(ValueError, match="ambient size"):
            minimalize(25, [[1]])

    def test_degrees_and_indeg(self):
        ideal = minimalize(4, [[1, 2, 3], [4]])
        assert ideal.degrees == (1, 3)
        assert ideal.indeg == 1
        with pytest.raises(ValueError, match="zero ideal"):
            _ = SquarefreeIdeal(3, ()).indeg

    def test_to_json_dict(self):
        ideal = minimalize(3, [[3, 1]])
        assert ideal.to_json_dict() == {"n": 3, "generators": [[1, 3]]}


class TestComplementaryEdgeIdeal:
    def test_triangle_gives_the_variables(self):
        ideal = complementary_edge_ideal(complete_graph(3))
        assert ideal.gens == (fs(1), fs(2), fs(3))

    def test_path_on_four(self):
        ideal = complementary_edge_ideal(path_graph(4))
        assert ideal.gens == (fs(1, 2), fs(1, 4), fs(3, 4))

    def test_edgeless_gives_zero_ideal(self):
        ideal = complementary_edge_ideal(SimpleGraph(3, ()))
        assert ideal.is_zero

    def test_needs_three_vertices(self):
        with pytest.raises(ValueError, match="degenerate ambient"):
            complementary_edge_ideal(SimpleGraph(2, ((1, 2),)))

    def test_huge_ambient_refused_before_walking_the_vertices(self, monkeypatch):
        def walk(graph):
            raise AssertionError("walked every vertex before the ambient check")
        monkeypatch.setattr(SimpleGraph, "vertices", walk)
        with pytest.raises(ValueError, match="ambient size 1000000000"):
            complementary_edge_ideal(SimpleGraph(10 ** 9, ((1, 2),)))

    @given(st.integers(3, 7).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.sampled_from(list(combinations(range(1, n + 1), 2))),
                 unique=True, min_size=1))))
    def test_one_generator_per_edge_each_of_degree_n_minus_2(self, case):
        n, edges = case
        graph = SimpleGraph(n, tuple(edges))
        ideal = complementary_edge_ideal(graph)
        assert len(ideal.gens) == graph.m
        assert all(len(g) == n - 2 for g in ideal.gens)
        for u, v in graph.edges:
            assert frozenset(graph.vertices()) - {u, v} in ideal.gens

    @given(st.integers(3, 8).flatmap(lambda n: st.lists(
        st.sampled_from(list(combinations(range(1, n + 1), 2))), unique=True, min_size=1).map(
            lambda edges: SimpleGraph(n, tuple(edges)))))
    def test_equals_the_minimalized_supports(self, graph: SimpleGraph):
        supports = [set(graph.vertices()) - {u, v} for u, v in graph.edges]
        assert complementary_edge_ideal(graph) == minimalize(graph.n, supports)

    def test_built_without_minimalizing(self, monkeypatch):
        def filter_(masks):
            raise AssertionError("ran the minimality filter on an antichain")
        monkeypatch.setattr(ideals_module, "_minimal_masks", filter_)
        ideal = complementary_edge_ideal(path_graph(4))
        assert ideal.gens == (fs(1, 2), fs(1, 4), fs(3, 4))
        assert squarefree_component(minimalize(4, [[1], [2]]), 2).gens == (
            fs(1, 2), fs(1, 3), fs(1, 4), fs(2, 3), fs(2, 4))
        with pytest.raises(AssertionError, match="minimality filter"):
            minimalize(3, [[1], [1, 2]])


class TestComplementaryEdgeDual:
    def test_reads_each_kind_of_cover(self):
        # a triangle 1-2-3, a pendant edge 3-4 and the isolated vertex 5
        graph = SimpleGraph(5, ((1, 2), (1, 3), (2, 3), (3, 4)))
        assert complementary_edge_dual(graph).gens == (fs(1, 2, 3), fs(1, 4), fs(2, 4), fs(5))

    def test_follows_the_cover_rule_on_every_small_graph_and_forest(self):
        graphs = [g for n in range(3, 6) for g in enumerate_graphs(n) if g.m]
        graphs += labeled_forests(6)
        assert len(graphs) == 7 + 63 + 1023 + 2931
        for graph in graphs:
            assert set(complementary_edge_dual(graph).gens) == cover_rule(graph), graph

    @settings(max_examples=100)
    @given(graphs_with_isolated_vertices_and_triangles())
    def test_follows_the_cover_rule(self, graph: SimpleGraph):
        assert set(complementary_edge_dual(graph).gens) == cover_rule(graph)

    def test_graph_dual_names_the_components_of_degree_one_to_three(self, oracle_sweep):
        # the chain of the dual's squarefree components against the dual
        # read off the graph, on every labeled graph to n = 6 and every class
        # on n = 7: J_[1] is its covers of degree 1, J_[2] the pairs that are
        # not edges, on all n vertices, and J_[3] holds every triple
        records, _ = oracle_sweep
        graphs = [r.graph for r in records] + atlas_graphs(7, 7)
        assert len(graphs) == 7 + 63 + 1023 + 32767 + 1043
        for graph in graphs:
            edges = set(graph.edges)
            dual = complementary_edge_dual(graph)
            covers = list(dual.masks)
            _, one, two, three = islice(_squarefree_components(dual), 4)
            assert {c for c in covers if c.bit_count() == 1} == one, graph
            assert {mask_of(pair) for pair in combinations(graph.vertices(), 2)
                    if pair not in edges} == two, graph
            assert len(three) == comb(graph.n, 3), graph

    def test_refuses_what_the_ideal_refuses_with_the_same_messages(self):
        for graph in (SimpleGraph(2, ((1, 2),)), SimpleGraph(25, ((1, 2),))):
            assert outcome(lambda: complementary_edge_dual(graph)) == outcome(
                lambda: complementary_edge_ideal(graph))
        with pytest.raises(ValueError, match="zero ideal"):
            complementary_edge_dual(SimpleGraph(3, ()))

    def test_huge_ambient_refused_before_any_per_vertex_list(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="ambient size 1000000000 outside"):
                complementary_edge_dual(SimpleGraph(10 ** 9, ((1, 2),)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


def brute_minimal_covers(ideal: SquarefreeIdeal) -> set[frozenset[int]]:
    ground = range(1, ideal.n + 1)
    transversals = [
        fs(*sub) for size in range(ideal.n + 1) for sub in combinations(ground, size)
        if all(g & fs(*sub) for g in ideal.gens)]
    return {t for t in transversals if not any(o < t for o in transversals)}


class TestCoversHeightDual:
    def test_path_on_four_covers(self):
        ideal = complementary_edge_ideal(path_graph(4))
        assert minimal_vertex_covers(ideal) == (fs(1, 3), fs(1, 4), fs(2, 4))

    def test_zero_ideal_rejected(self):
        with pytest.raises(ValueError, match="zero ideal"):
            minimal_vertex_covers(SquarefreeIdeal(3, ()))

    def test_height_of_complete_graphs(self):
        assert height(complementary_edge_ideal(complete_graph(5))) == 3
        assert height(complementary_edge_ideal(path_graph(4))) == 2

    def test_principal_ideal(self):
        ideal = minimalize(3, [[1, 3]])
        assert minimal_vertex_covers(ideal) == (fs(1), fs(3))
        assert height(ideal) == 1

    @settings(max_examples=150)
    @given(ideals(max_n=10))
    def test_height_from_the_f_vector_matches_the_cover_search(self, ideal: SquarefreeIdeal):
        assert height(ideal) == alexander_dual(ideal).indeg

    def test_height_does_not_search_covers_under_the_face_cap(self, monkeypatch):
        def search(ideal):
            raise AssertionError("ran the cover search")
        monkeypatch.setattr(ideals_module, "alexander_dual", search)
        assert height(complementary_edge_ideal(complete_graph(12))) == 3
        assert height(minimalize(12, [[1], [2, 3]])) == 2

    def test_height_past_the_face_cap_falls_back_to_the_cover_search(self, monkeypatch):
        searched = []

        def search(ideal):
            searched.append(ideal)
            return alexander_dual(ideal)
        monkeypatch.setattr(ideals_module, "alexander_dual", search)
        # the one generator complement has 2^19 subsets
        ideal = minimalize(20, [[1]])
        assert height(ideal) == 1
        assert searched == [ideal]

    def test_height_of_the_zero_ideal_is_refused(self):
        with pytest.raises(ValueError, match="zero ideal"):
            height(SquarefreeIdeal(3, ()))

    def test_height_of_every_complementary_edge_ideal_up_to_six(self, oracle_sweep):
        # every graph on n = 3..6 with an edge (an edgeless one gives the zero ideal)
        records, _ = oracle_sweep
        assert len(records) == sum(2 ** (n * (n - 1) // 2) - 1 for n in range(3, 7))
        for r in records:
            isolated = len({v for e in r.graph.edges for v in e}) < r.graph.n
            expected = 1 if isolated else 3 if is_complete(r.graph) else 2
            assert r.height == expected, r.graph

    @settings(max_examples=60)
    @given(ideals())
    def test_covers_match_subset_enumeration(self, ideal: SquarefreeIdeal):
        assert set(minimal_vertex_covers(ideal)) == brute_minimal_covers(ideal)

    def test_dual_of_triangle_ideal(self):
        dual = alexander_dual(complementary_edge_ideal(complete_graph(3)))
        assert dual.gens == (fs(1, 2, 3),)

    @settings(max_examples=60)
    @given(ideals())
    def test_dual_is_an_involution(self, ideal: SquarefreeIdeal):
        assert alexander_dual(alexander_dual(ideal)) == ideal


def colon(earlier, g, n: int) -> list[frozenset[int]]:
    """Minimal supports of (earlier) : g by definition: u is in it iff u | g is in (earlier)."""
    members = [fs(*sub) for size in range(n + 1) for sub in combinations(range(1, n + 1), size)
               if any(e <= fs(*sub) | g for e in earlier)]
    return [u for u in members if not any(v < u for v in members)]


def has_variable_colons(ordering, n: int) -> bool:
    """Each colon of the earlier generators by the next is generated by variables."""
    return all(all(len(u) == 1 for u in colon(ordering[:k], ordering[k], n))
               for k in range(1, len(ordering)))


class TestLinearQuotientColons:
    """The colons the linear-quotient search forms, against colons by definition."""

    def test_path_ideal_colons_are_single_variables(self):
        ideal = complementary_edge_ideal(path_graph(4))
        assert colon([fs(3, 4), fs(1, 4)], fs(1, 2), 4) == [fs(4)]
        result = has_linear_quotients(ideal)
        assert result.status == "yes"
        assert has_variable_colons(result.ordering, 4)

    def test_a_multiple_of_a_generator_never_reaches_a_colon(self):
        # its colon would be the unit ideal; the constructor drops it first
        ideal = minimalize(3, [[1, 2], [1, 2, 3]])
        assert colon([fs(1, 2)], fs(1, 2, 3), 3) == [fs()]
        result = has_linear_quotients(ideal)
        assert (result.status, result.ordering) == ("yes", (fs(1, 2),))

    def test_zero_ideal_has_no_colons(self):
        with pytest.raises(ValueError, match="zero ideal"):
            has_linear_quotients(SquarefreeIdeal(3, ()))

    def test_out_of_range_support_is_refused_before_the_search(self):
        for support in ([5], [10 ** 12]):
            with pytest.raises(ValueError, match="out of ambient range"):
                has_linear_quotients(minimalize(3, [[1], support]))

    @settings(max_examples=60)
    @given(ideals(max_n=5))
    def test_verdict_agrees_with_colons_by_definition(self, ideal: SquarefreeIdeal):
        degrees = sorted({m.bit_count() for m in ideal.masks})
        groups = [[support_of(m) for m in ideal.masks if m.bit_count() == d] for d in degrees]
        # every degree-nondecreasing ordering, the shape the search tries, in
        # the order it walks them: each degree class in stored mask order
        orderings = (tuple(sum(map(list, choice), []))
                     for choice in product(*(permutations(group) for group in groups)))
        first = next((o for o in orderings if has_variable_colons(o, ideal.n)), None)
        result = has_linear_quotients(ideal)
        assert result.status == ("no" if first is None else "yes")
        # the witness is the first ordering with variable colons
        assert result.ordering == first


def linear_quotients_ordering_is_valid(ordering) -> bool:
    """Check the defining condition: each colon by earlier generators is
    generated by variables, i.e. every earlier difference contains a
    singleton difference."""
    for k in range(1, len(ordering)):
        g = ordering[k]
        diffs = [prev - g for prev in ordering[:k]]
        singles = {next(iter(d)) for d in diffs if len(d) == 1}
        for d in diffs:
            if len(d) > 1 and not (d & singles):
                return False
    return True


class TestLinearQuotients:
    def test_variables_have_linear_quotients(self):
        result = has_linear_quotients(complementary_edge_ideal(complete_graph(3)))
        assert result.status == "yes"
        assert set(result.ordering) == {fs(1), fs(2), fs(3)}

    def test_dual_of_path_ideal(self):
        dual = alexander_dual(complementary_edge_ideal(path_graph(4)))
        result = has_linear_quotients(dual)
        assert result.status == "yes"
        assert linear_quotients_ordering_is_valid(result.ordering)

    def test_two_disjoint_supports_have_none(self):
        ideal = minimalize(4, [[1, 2], [3, 4]])
        result = has_linear_quotients(ideal)
        assert result.status == "no"
        assert result.ordering is None
        assert result.nodes >= 2

    @pytest.mark.parametrize("supports", [
        [[1, 2], [3, 4]],
        [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]],
    ])
    def test_every_dead_end_is_undone_before_the_next_candidate(self, supports):
        # two disjoint supports, and the edge ideal of the 5-cycle, whose
        # complement is not chordal: each walk backtracks to its root and
        # answers "no", with the node count of the recursive walk
        ideal = minimalize(5, supports)
        result = has_linear_quotients(ideal)
        assert result.status == "no"
        assert result == reference_linear_quotients(ideal)

    def test_budget_exhaustion_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr("compedge.ideals.LINEAR_QUOTIENTS_BUDGET", 1)
        ideal = minimalize(4, [[1, 2], [3, 4]])
        result = has_linear_quotients(ideal)
        assert result.status == "inconclusive"

    def test_zero_ideal_rejected(self):
        with pytest.raises(ValueError, match="zero ideal"):
            has_linear_quotients(SquarefreeIdeal(3, ()))

    def test_one_mask_check_matches_the_per_difference_check_on_forest_duals(self):
        duals = [complementary_edge_dual(g) for n in range(3, 7) for g in labeled_forests(n)]
        results = [has_linear_quotients(dual) for dual in duals]
        assert results == [reference_linear_quotients(dual) for dual in duals]
        assert sum(r.nodes for r in results) == 30111

    def test_a_thousand_generators_need_no_deep_recursion(self):
        # the degree-3 squarefree Veronese ideal on 20 variables: 1,140
        # generators, each choice one frame of the walk's own stack, and of
        # the reference walk's
        ideal = SquarefreeIdeal(20, [mask_of(c) for c in combinations(range(1, 21), 3)])
        result = has_linear_quotients(ideal)
        assert (result.status, result.nodes) == ("yes", 1140)
        assert result == reference_linear_quotients(ideal)

    @settings(max_examples=60)
    @given(ideals(max_n=8))
    def test_one_mask_check_matches_the_per_difference_check(self, ideal: SquarefreeIdeal):
        assert has_linear_quotients(ideal) == reference_linear_quotients(ideal)

    @settings(max_examples=60)
    @given(ideals(max_n=5))
    def test_yes_witness_is_a_valid_ordering(self, ideal: SquarefreeIdeal):
        result = has_linear_quotients(ideal)
        if result.status == "yes":
            assert sorted(result.ordering, key=sorted) == sorted(ideal.gens, key=sorted)
            assert linear_quotients_ordering_is_valid(result.ordering)
            degs = [len(g) for g in result.ordering]
            assert degs == sorted(degs)


class TestSquarefreeComponent:
    def test_equigenerated_component_is_the_ideal_itself(self):
        ideal = complementary_edge_ideal(path_graph(4))
        assert squarefree_component(ideal, 2) == ideal

    def test_component_above_generation_degree(self):
        ideal = minimalize(4, [[1], [2, 3]])
        assert squarefree_component(ideal, 2).gens == (
            fs(1, 2), fs(1, 3), fs(1, 4), fs(2, 3))

    def test_component_below_indeg_is_zero(self):
        ideal = complementary_edge_ideal(path_graph(4))
        assert squarefree_component(ideal, 1).is_zero

    def test_degree_guard(self):
        ideal = minimalize(3, [[1]])
        with pytest.raises(ValueError, match="outside"):
            squarefree_component(ideal, 4)

    @pytest.mark.parametrize("d", ["1", 1.5])
    def test_a_degree_that_is_no_integer_is_refused_by_name(self, d):
        ideal = minimalize(3, [[1]])
        message = f"degree must be an integer, got {d!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            squarefree_component(ideal, d)

    @settings(max_examples=40)
    @given(ideals(max_n=5), st.integers(0, 5))
    def test_component_members_are_exactly_the_degree_d_monomials_of_i(self, ideal, d):
        d = min(d, ideal.n)
        component = squarefree_component(ideal, d)
        for sub in combinations(range(1, ideal.n + 1), d):
            u = fs(*sub)
            assert (u in component.gens) == contains(ideal, u)

    @settings(max_examples=60)
    @given(ideals(max_n=8))
    def test_chain_equals_every_superset_of_every_generator(self, ideal: SquarefreeIdeal):
        for d in range(ideal.n + 1):
            assert squarefree_component(ideal, d) == brute_force_component(ideal, d)
