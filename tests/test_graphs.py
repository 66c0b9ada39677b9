"""Graph parsing, predicates, density, enumeration and the census of count types."""
from __future__ import annotations

import ast
import gc
import inspect
import json
import pickle
import pkgutil
import random
import re
import time
import tracemalloc
import typing
from collections import Counter
from fractions import Fraction
from importlib import import_module
from itertools import combinations
from math import comb, factorial

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import compedge
from compedge import (GraphFormatError, SimpleGraph, connected_components, enumerate_graphs,
                      is_complete, is_forest, is_tree, max_subgraph_density, parse_graph,
                      complete_graph, cycle_graph, path_graph)
from compedge import graphs as graphs_module
from compedge.cli import CommandOutcome
from compedge.experiments import ExperimentConfig, ExperimentSummary, SweepResult
from compedge.homology import SimplicialComplex
from compedge.ideals import QuotientSearchResult, SquarefreeIdeal
from compedge.invariants import (NOTE_ISOLATED, LicciVerdict, cross_validate,
                                 huneke_ulrich_check, implication_suite, predict_invariants)
from compedge.tables import BettiTable, Field
from conftest import atlas_graphs, sparse_gnp


def graphs(min_n: int = 3, max_n: int = 6, min_edges: int = 0) -> st.SearchStrategy[SimpleGraph]:
    def build(n: int) -> st.SearchStrategy[SimpleGraph]:
        slots = list(combinations(range(1, n + 1), 2))
        if not slots:
            return st.just(SimpleGraph(n, ()))
        return st.lists(st.sampled_from(slots), unique=True, min_size=min_edges).map(
            lambda edges: SimpleGraph(n, tuple(edges)))
    return st.integers(min_n, max_n).flatmap(build)


class TestSimpleGraph:
    def test_edges_are_canonicalized(self):
        g = SimpleGraph(3, ((2, 1), (3, 1)))
        assert g.edges == ((1, 2), (1, 3))
        assert g == SimpleGraph(3, ((1, 3), (1, 2)))

    def test_m_counts_the_edges(self):
        assert path_graph(4).m == 3

    def test_isolated_vertices(self):
        g = SimpleGraph(5, ((1, 2),))
        assert g.isolated_vertices() == (3, 4, 5)
        assert path_graph(4).isolated_vertices() == ()

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            SimpleGraph(3, ((2, 2),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SimpleGraph(3, ((1, 4),))
        with pytest.raises(ValueError, match="out of range"):
            SimpleGraph(3, ((0, 2),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            SimpleGraph(3, ((1, 2), (2, 1)))

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SimpleGraph(-1, ())

    def test_to_json_dict(self):
        g = SimpleGraph(4, ((3, 1), (1, 2)))
        assert g.to_json_dict() == {"n": 4, "edges": [[1, 2], [1, 3]]}

    def test_error_names_the_input_edge(self):
        with pytest.raises(GraphFormatError, match="^duplicate edge 2 1$") as info:
            SimpleGraph(3, ((1, 3), (1, 2), (2, 1)))
        assert info.value.edge == 2 and info.value.line is None

    @pytest.mark.parametrize("n, edges, expected", [
        (3, ((True, 2), (np.int64(3), np.int64(2))), '{"n": 3, "edges": [[1, 2], [2, 3]]}'),
        (np.int64(3), ((np.int32(3), 1),), '{"n": 3, "edges": [[1, 3]]}'),
        (3, ((1, 2), (1.5, 2)), 1),
        (3, ((2, "3"),), 0),
        (2.5, (), None),
    ])
    def test_stores_plain_ints_and_refuses_non_integers(self, n, edges, expected):
        # a JSON string is the graph's payload; otherwise the bad edge's index,
        # None for a bad vertex count, which is a plain ValueError
        if isinstance(expected, str):
            graph = SimpleGraph(n, edges)
            assert json.dumps(graph.to_json_dict()) == expected
            assert {type(x) for x in (graph.n, *sum(graph.edges, ()))} == {int}
            return
        with pytest.raises(ValueError, match="must be an integer") as info:
            SimpleGraph(n, edges)
        assert isinstance(info.value, GraphFormatError) == (expected is not None)
        assert getattr(info.value, "edge", None) == expected

    @pytest.mark.parametrize("edges", [5, None, 2.5])
    def test_edges_that_are_not_iterable_are_refused_by_name(self, edges):
        with pytest.raises(ValueError, match=f"^edges must be iterable, got {edges!r}$") as info:
            SimpleGraph(3, edges)
        assert not isinstance(info.value, GraphFormatError)

    @pytest.mark.parametrize("edges, index, shown", [
        (((1, 2, 3),), 0, "(1, 2, 3)"),
        ((1,), 0, "1"),
        ((None,), 0, "None"),
        (((1, 2), (3,)), 1, "(3,)"),
        (((1, 2), [1, 2, 3, 1]), 1, "[1, 2, 3, 1]"),
        (((1, 3), tuple(range(100))), 1, "(0, 1, 2, 3, "),
    ])
    def test_an_edge_that_is_not_a_pair_is_named_by_index(self, edges, index, shown):
        with pytest.raises(GraphFormatError, match="^edge must be a pair of vertex labels") as info:
            SimpleGraph(3, edges)
        assert info.value.edge == index and info.value.line is None
        assert shown in str(info.value) and len(str(info.value)) < 150


def outcome(build):
    try:
        return build(), None
    except GraphFormatError as exc:
        return None, str(exc)


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n + 1), st.integers(0, n + 1)), max_size=8))))
def test_constructor_and_both_parsers_agree(case):
    # labels 0 and n + 1, self-loops, reversed pairs and duplicates all occur
    n, pairs = case
    graph, message = outcome(lambda: SimpleGraph(n, tuple(pairs)))
    as_json = outcome(lambda: parse_graph(json.dumps({"n": n, "edges": pairs})))
    as_lines = outcome(lambda: parse_graph(
        f"{n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)))
    assert as_json == (graph, message)
    seen, bad = set(), None
    for k, (u, v) in enumerate(pairs):
        if u == v or not 1 <= min(u, v) <= max(u, v) <= n or frozenset((u, v)) in seen:
            bad = k
            break
        seen.add(frozenset((u, v)))
    if bad is None:
        assert message is None and as_lines == (graph, None)
    else:
        assert message.endswith(f" {pairs[bad][0]} {pairs[bad][1]}")
        assert as_lines == (None, f"line {bad + 2}: {message}")


CONFIG = "ExperimentConfig(n=10, trials=2, seed=1, p=None, c=0.5)"
SUMMARY = (f"ExperimentSummary(config={CONFIG}, licci_count=1, forest_count=1, cycle_count=1, "
           "fraction_licci=Fraction(1, 2))")
GF2 = "field=<Field.GF2: 'gf2'>"
FOREST = "LicciVerdict(licci=True, reason='forest')"
PROVENANCE = ("('height', 'non_complete_height_rule'), ('cohen_macaulay', "
              "'cm_iff_complete_or_forest'), ('pd_ideal', 'forest_pd_rule'), ")
# every record type with its repr; the first five cases build the four types
# that check their input, the rest records that only hold values
RECORDS = [
    (lambda: SimpleGraph(3, [(2, 1)]), "SimpleGraph(n=3, edges=((1, 2),))"),
    (lambda: SquarefreeIdeal(n=3, masks=[6, 3, 7]), "SquarefreeIdeal(n=3, masks=(3, 6))"),
    (lambda: SimplicialComplex(2, frozenset({0, 1})),
     "SimplicialComplex(n=2, faces=frozenset({0, 1}))"),
    (lambda: ExperimentConfig(n=10, trials=2, seed=1, c=0.5), CONFIG),
    (lambda: SimpleGraph(3), "SimpleGraph(n=3, edges=())"),
    (lambda: BettiTable(3, Field.GF2, (((0, 0), 1), ((1, 1), 1))),
     f"BettiTable(n=3, {GF2}, entries=(((0, 0), 1), ((1, 1), 1)))"),
    (lambda: CommandOutcome(0, "x"), "CommandOutcome(exit_code=0, payload='x', diagnostics='')"),
    (lambda: LicciVerdict(True, "forest"), FOREST),
    (lambda: predict_invariants(path_graph(4)),
     "InvariantReport(graph_class='tree', height=2, cohen_macaulay=True, pd_ideal=1, "
     f"reg_ideal=(2, 2), indeg=2, verdict={FOREST}, notes=(), provenance=({PROVENANCE}"
     "('reg_ideal', 'tree_reg_rule'), ('licci', 'licci_iff_forest_or_triangle')))"),
    (lambda: cross_validate(path_graph(4)).oracle,
     f"OracleInvariants({GF2}, height=2, reg_s_mod_i=1, pd_s_mod_i=2, reg_ideal=2, "
     "pd_ideal=1, cohen_macaulay=True)"),
    (lambda: cross_validate(SimpleGraph(3, [(1, 2)])),
     f"DiscrepancyReport(graph=SimpleGraph(n=3, edges=((1, 2),)), {GF2}, "
     "mismatches=(('height', 2, 1), ('pd_ideal', 1, 0), ('reg_ideal', (2, 2), 1)), "
     "predicted=InvariantReport(graph_class='disconnected_forest', height=2, "
     f"cohen_macaulay=True, pd_ideal=1, reg_ideal=(2, 2), indeg=1, verdict={FOREST}, "
     f"notes=('isolated_vertices_outside_hypotheses',), provenance=({PROVENANCE}"
     "('reg_ideal', 'disconnected_forest_reg_rule'), ('licci', "
     f"'licci_iff_forest_or_triangle'))), oracle=OracleInvariants({GF2}, height=1, "
     "reg_s_mod_i=0, pd_s_mod_i=1, reg_ideal=1, pd_ideal=0, cohen_macaulay=True))"),
    (lambda: implication_suite(path_graph(4)),
     f"ImplicationSuite(graph=SimpleGraph(n=4, edges=((1, 2), (2, 3), (3, 4))), {GF2}, "
     f"licci={FOREST}, sequentially_cm=True, dual_componentwise_linear=True, "
     "dual_linear_quotients='yes', dual_linear_resolution=True, "
     "primal_linear_resolution=True, failed_claims=())"),
    (lambda: ExperimentSummary(ExperimentConfig(10, 2, 1, c=0.5), 1, 1, 1, Fraction(1, 2)),
     SUMMARY),
    (lambda: SweepResult((ExperimentSummary(ExperimentConfig(10, 2, 1, c=0.5), 1, 1, 1,
                                            Fraction(1, 2)),), ((0.5, 1.0),)),
     f"SweepResult(rows=({SUMMARY},), monotone_violations=((0.5, 1.0),))"),
    (lambda: QuotientSearchResult("no"),
     "QuotientSearchResult(status='no', ordering=None, nodes=0)"),
]


class TestRecords:
    @pytest.mark.parametrize("build, text", RECORDS,
                             ids=[text[:text.index("(")] for _, text in RECORDS])
    def test_repr_hash_frozen_fields_and_pickle(self, build, text):
        record = build()
        names = inspect.signature(type(record)).parameters
        fields = tuple(getattr(record, name) for name in names)
        assert repr(record) == text
        assert record == build() and hash(record) == hash(fields)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert pickle.loads(pickle.dumps(record)) == record
        if isinstance(record, (SimpleGraph, SquarefreeIdeal, SimplicialComplex,
                               ExperimentConfig)):
            # the validating types equal only their own type
            assert record != fields and fields != record
            assert SimpleGraph(3) != SquarefreeIdeal(3, ())
            with pytest.raises(AttributeError):
                del record.n


class TestStoredCounts:
    @settings(max_examples=300, deadline=None)
    @given(graphs(min_n=0, max_n=9), st.data())
    def test_counts_taken_at_construction(self, graph, data):
        # the same graph again, its labels numpy ints or ints and its pairs
        # reversed at random and shuffled
        label = data.draw(st.sampled_from([int, np.int64, np.int32]))
        flips = data.draw(st.lists(st.booleans(), min_size=graph.m, max_size=graph.m))
        pairs = [(label(v), label(u)) if flip else (label(u), label(v))
                 for (u, v), flip in zip(graph.edges, flips)]
        twin = SimpleGraph(label(graph.n), data.draw(st.permutations(pairs)))
        # networkx reference: the nodes of the edge subgraph, less its components
        edge_subgraph = nx.Graph(graph.edges)
        met = edge_subgraph.number_of_nodes()
        joins = met - nx.number_connected_components(edge_subgraph)
        copy = pickle.loads(pickle.dumps(twin))
        for g in (graph, twin, copy):
            assert (g._met, g._joins) == graphs_module._join_count(g.edges) == (met, joins)
            assert not gc.is_tracked(g._met) and not gc.is_tracked(g._joins)
            assert repr(g) == f"SimpleGraph(n={graph.n}, edges={graph.edges!r})"
            for name in ("_met", "_joins"):
                with pytest.raises(AttributeError):
                    setattr(g, name, 0)
        assert twin == graph == copy and hash(twin) == hash(graph) == hash(copy)


def _checking_names(module) -> dict:
    """The names a module imports under `if TYPE_CHECKING:`, which exist for type checkers only."""
    names = {"__name__": module.__name__, "__package__": module.__package__}
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            exec(compile(ast.Module(node.body, []), module.__file__, "exec"), names)
    return names


def _defined(module):
    """Every function and class the module defines, and the methods and properties of each class."""
    for obj in vars(module).values():
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module.__name__:
            yield obj
            for member in vars(obj).values() if inspect.isclass(obj) else ():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    yield member


class TestTypeHints:
    @pytest.mark.parametrize("name", [info.name for info in pkgutil.iter_modules(compedge.__path__)])
    def test_every_hint_resolves(self, name):
        # string annotations resolve in the module's namespace, together with
        # the names it imports for type checkers only
        module = import_module(f"compedge.{name}")
        namespace = vars(module) | _checking_names(module)
        defined = list(_defined(module))
        assert defined
        for obj in defined:
            typing.get_type_hints(obj, globalns=namespace)


class TestParseLineFormat:
    def test_basic(self):
        g = parse_graph("4 3\n1 2\n2 3\n3 4\n")
        assert g == path_graph(4)

    def test_blank_lines_and_whitespace_tolerated(self):
        g = parse_graph("\n\n  3 1  \n\n  2 3 \n\n")
        assert g == SimpleGraph(3, ((2, 3),))

    def test_bad_edge_line_reports_its_line_number(self):
        with pytest.raises(GraphFormatError, match="self-loop") as info:
            parse_graph("3 2\n1 2\n2 2\n")
        assert info.value.line == 3

    def test_out_of_range_label_reports_line(self):
        with pytest.raises(GraphFormatError, match="out of range") as info:
            parse_graph("3 1\n1 5\n")
        assert info.value.line == 2

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(GraphFormatError, match="duplicate") as info:
            parse_graph("3 2\n1 2\n2 1\n")
        assert info.value.line == 3

    def test_edge_count_mismatch_points_at_header(self):
        with pytest.raises(GraphFormatError, match="promised 3 edges, found 1") as info:
            parse_graph("4 3\n1 2\n")
        assert info.value.line == 1

    def test_malformed_header(self):
        with pytest.raises(GraphFormatError, match="header"):
            parse_graph("four 3\n")
        with pytest.raises(GraphFormatError, match="header"):
            parse_graph("4\n1 2\n")

    def test_non_integer_endpoint(self):
        with pytest.raises(GraphFormatError, match="integers") as info:
            parse_graph("3 1\nx y\n")
        assert info.value.line == 2

    def test_negative_header_count(self):
        with pytest.raises(GraphFormatError) as info:
            parse_graph("3 -1\n")
        assert str(info.value) == "line 1: header counts must be nonnegative"
        assert info.value.line == 1

    def test_edge_line_without_two_tokens(self):
        with pytest.raises(GraphFormatError) as info:
            parse_graph("3 1\n1 2 3\n")
        assert str(info.value) == "line 2: expected an edge 'u v', got '1 2 3'"
        assert info.value.line == 2

    def test_a_json_array_is_read_as_an_edge_list_header(self):
        # only text whose first non-blank character is "{" is read as JSON, and
        # json.loads makes an object of such text or refuses it
        with pytest.raises(GraphFormatError) as info:
            parse_graph("[[1, 2]]")
        assert str(info.value) == (
            "line 1: malformed header, expected two integers, got '[[1, 2]]'")
        assert info.value.line == 1

    def test_empty_input(self):
        with pytest.raises(GraphFormatError, match="empty input"):
            parse_graph("   \n  \n")

    @pytest.mark.parametrize("text, line, message", [
        (" \n3 2\n1 2\n\t\n2 2\n", 5, "self-loop 2 2"),
        ("3 2\n1 2\n\n2 1\n", 4, "duplicate edge 2 1"),
        ("\n3 2\n1 2\n\n\n1 4\n", 6, "vertex label out of range 1..3 in edge 1 4"),
        ("3 2\r\n1 2\r\n\r\n3 3\r\n", 4, "self-loop 3 3"),
        ("\n3 1 1\n1 2\n", 2, "malformed header, expected 'n m', got '3 1 1'"),
        ("\n\n3 -1\n", 3, "header counts must be nonnegative"),
        ("\n3 3\n1 2\n\n2 3\n", 2, "header promised 3 edges, found 2"),
        ("3 2\n\n1 2\n2 x\n", 4, "edge endpoints must be integers, got '2 x'"),
    ])
    def test_blank_lines_keep_their_numbers(self, text, line, message):
        # each error names the line it is on, counting blank and whitespace-only lines
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) == f"line {line}: {message}"
        assert info.value.line == line

    @pytest.mark.parametrize("text, line, message", [
        ("1_0 1\n1 2\n", 1, "malformed header, expected two integers, got '1_0 1'"),
        ("3 1\n1 0_2\n", 2, "edge endpoints must be integers, got '1 0_2'"),
        ("\u0663 1\n1 2\n", 1, "malformed header, expected two integers, got '\u0663 1'"),
        ("\uff13 1\n1 2\n", 1, "malformed header, expected two integers, got '\uff13 1'"),
        ("3 1\n1 \uff12\n", 2, "edge endpoints must be integers, got '1 \uff12'"),
    ])
    def test_numbers_are_ascii_decimal_with_an_optional_sign(self, text, line, message):
        # int() also reads digit-group underscores and non-ASCII decimal digits
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) == f"line {line}: {message}"
        assert info.value.line == line

    def test_a_sign_and_leading_zeros_are_read(self):
        assert parse_graph("+3 01\n03 +02\n") == SimpleGraph(3, ((2, 3),))

    def test_a_hundred_thousand_edges_are_read_in_under_32_mib(self):
        # the split lines are freed before SimpleGraph is built: the traced peak
        # read 29.4 MiB, and 35.8 MiB while they were kept (1.10 MiB of text)
        n, m = 5 * 10 ** 4, 10 ** 5
        rng = random.Random(m)
        pairs = set()
        while len(pairs) < m:
            u, v = rng.sample(range(1, n + 1), 2)
            pairs.add((u, v) if u < v else (v, u))
        text = f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in sorted(pairs))
        tracemalloc.start()
        try:
            graph = parse_graph(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.m == m
        assert peak < 32 << 20


class TestParseJsonFormat:
    def test_basic(self):
        g = parse_graph('{"n": 4, "edges": [[2, 1], [3, 4]]}')
        assert g == SimpleGraph(4, ((1, 2), (3, 4)))

    def test_invalid_json_reports_decoder_line(self):
        with pytest.raises(GraphFormatError, match="invalid JSON") as info:
            parse_graph('{"n": 3,\n "edges": }')
        assert info.value.line == 2

    def test_missing_fields(self):
        with pytest.raises(GraphFormatError, match="'n' and 'edges'"):
            parse_graph('{"n": 3}')

    def test_wrong_types(self):
        with pytest.raises(GraphFormatError, match="nonnegative integer"):
            parse_graph('{"n": "3", "edges": []}')
        with pytest.raises(GraphFormatError, match="array of pairs"):
            parse_graph('{"n": 3, "edges": 7}')
        with pytest.raises(GraphFormatError, match="edge #2"):
            parse_graph('{"n": 3, "edges": [[1, 2], [1]]}')
        with pytest.raises(GraphFormatError, match="edge #1"):
            parse_graph('{"n": 3, "edges": [[1, true]]}')
        with pytest.raises(GraphFormatError, match="edge #1"):
            parse_graph('{"n": 3, "edges": [[true, 2]]}')
        with pytest.raises(GraphFormatError, match="edge #1"):
            parse_graph('{"n": 3, "edges": [[1.5, 2]]}')

    def test_semantic_errors_still_checked(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_graph('{"n": 3, "edges": [[2, 2]]}')

    @given(graphs(min_n=0, max_n=6))
    def test_json_round_trip(self, g: SimpleGraph):
        assert parse_graph(json.dumps(g.to_json_dict())) == g


class TestPredicates:
    def test_components_sorted_by_smallest_member(self):
        g = SimpleGraph(6, ((5, 6), (2, 3)))
        assert connected_components(g) == [(1,), (2, 3), (4,), (5, 6)]

    def test_forest_tree_complete(self):
        assert is_tree(path_graph(4))
        assert is_forest(path_graph(4))
        assert not is_forest(cycle_graph(4))
        two_edges = SimpleGraph(4, ((1, 2), (3, 4)))
        assert is_forest(two_edges) and not is_tree(two_edges)
        assert is_complete(complete_graph(4))
        assert not is_complete(path_graph(3))
        # triangle is both complete and a cycle
        assert is_complete(cycle_graph(3))
        assert not is_forest(cycle_graph(3))

    def test_tree_needs_one_component_not_just_n_minus_1_edges(self):
        triangle_and_point = SimpleGraph(4, ((1, 2), (1, 3), (2, 3)))
        assert triangle_and_point.m == triangle_and_point.n - 1
        assert not is_tree(triangle_and_point)
        assert not is_tree(SimpleGraph(0, ()))
        assert is_tree(SimpleGraph(1, ()))

    def test_tree_check_does_not_walk_the_vertices(self, monkeypatch):
        def walk(graph):
            raise AssertionError("walked every vertex")
        monkeypatch.setattr(SimpleGraph, "vertices", walk)
        assert not is_tree(SimpleGraph(10 ** 9, ((1, 2),)))

    def test_tiny_graphs_count_as_complete(self):
        assert is_complete(SimpleGraph(0, ()))
        assert is_complete(SimpleGraph(1, ()))

    def test_cycle_graph_guard(self):
        with pytest.raises(ValueError, match="at least 3"):
            cycle_graph(2)

    @given(graphs())
    def test_forest_iff_no_subset_induces_more_edges_than_vertices(self, g: SimpleGraph):
        # acyclic iff every vertex subset spans fewer edges than vertices
        brute = all(
            sum(1 for u, v in g.edges if u in ws and v in ws) < len(ws)
            for size in range(1, g.n + 1)
            for ws in map(set, combinations(g.vertices(), size)))
        assert is_forest(g) == brute

    @given(graphs(min_n=0, max_n=9))
    def test_forest_iff_edges_equal_vertices_minus_components(self, g: SimpleGraph):
        assert is_forest(g) == (g.m == g.n - len(connected_components(g)))

    @given(graphs(min_n=0, max_n=9))
    def test_tree_iff_one_component_and_n_minus_1_edges(self, g: SimpleGraph):
        assert is_tree(g) == (len(connected_components(g)) == 1 and g.m == g.n - 1)

    @pytest.mark.parametrize("n", [1000, 5000])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_forest_matches_networkx_on_sparse_random_graphs(self, n, c):
        # G(n, c/n) near the giant-component threshold, and its spanning
        # forest, grow union-find trees far deeper than the small-n tests do
        nxg = nx.fast_gnp_random_graph(n, c / n, seed=n + int(10 * c))
        span = nx.minimum_spanning_tree(nxg)
        for h in (nxg, span):
            g = SimpleGraph(n, tuple((u + 1, v + 1) for u, v in h.edges))
            assert is_forest(g) == nx.is_forest(h)
            touched = h.subgraph(v for v in h if h.degree(v))
            met = touched.number_of_nodes()
            assert graphs_module._join_count(g.edges) == (
                met, met - nx.number_connected_components(touched))


def networkx_chordal(graph: SimpleGraph) -> bool:
    h = nx.Graph()
    h.add_nodes_from(graph.vertices())
    h.add_edges_from(graph.edges)
    return nx.is_chordal(h)


@st.composite
def labeled_interval_graphs(draw, max_n: int = 14) -> SimpleGraph:
    """Interval graphs, which are chordal, under a random labeling of 1..n, with one
    more random edge half the time, which may close a chordless cycle."""
    n = draw(st.integers(1, max_n))
    spans = [sorted(draw(st.tuples(st.integers(0, 30), st.integers(0, 30)))) for _ in range(n)]
    label = draw(st.permutations(range(1, n + 1)))
    edges = {tuple(sorted((label[i], label[j]))) for i, j in combinations(range(n), 2)
             if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]}
    if n >= 2 and draw(st.booleans()):
        edges.add(tuple(sorted(draw(st.permutations(range(1, n + 1)))[:2])))
    return SimpleGraph(n, tuple(edges))


def labeled_path_with_a_triangle(n: int, chordless_square: bool = False) -> SimpleGraph:
    """A path on 1..n under a seeded random labeling, with a chord that closes a triangle
    on its first three vertices; its twin adds a chord that closes a chordless 4-cycle."""
    label = list(range(1, n + 1))
    random.Random(n).shuffle(label)
    edges = [(label[i], label[i + 1]) for i in range(n - 1)] + [(label[0], label[2])]
    if chordless_square:
        edges.append((label[n // 2], label[n // 2 + 3]))
    return SimpleGraph(n, edges)


class TestChordalityKernel:
    """graphs._is_chordal, maximum cardinality search and its PEO check, against networkx."""

    def test_every_atlas_class_to_seven(self):
        graphs = atlas_graphs(3, 7)
        assert len(graphs) == 201 + 1043
        for g in graphs:
            assert graphs_module._is_chordal(g) == networkx_chordal(g), g

    @settings(max_examples=300)
    @given(st.one_of(labeled_interval_graphs(), graphs(min_n=0, max_n=14)))
    def test_randomly_labeled_graphs_to_fourteen(self, g: SimpleGraph):
        # the search breaks ties by label, so labels move the visit order
        assert graphs_module._is_chordal(g) == networkx_chordal(g)

    @pytest.mark.parametrize("n", [4000, 10 ** 5])
    def test_long_labeled_paths_in_linear_time(self, n):
        # 0.3-0.7 s a graph at n = 10^5 on a 2-vCPU host, where an O(n^2)
        # pass takes minutes
        chordal, twin = labeled_path_with_a_triangle(n), labeled_path_with_a_triangle(n, True)
        start = time.perf_counter()
        answers = graphs_module._is_chordal(chordal), graphs_module._is_chordal(twin)
        assert time.perf_counter() - start < 10
        assert answers == (True, False)

    @pytest.mark.parametrize("n, c, chordal", [
        (1000, 0.5, True), (1000, 1, True), (1000, 3, False), (3000, 0.5, True),
        (3000, 3, False), (10000, 1, False), (10000, 3, False)])
    def test_seeded_sparse_random_graphs_against_networkx(self, n, c, chordal):
        # seeded G(n, c/n): below c = 1 mostly a forest, past it a chordless cycle
        g = SimpleGraph(n, sparse_gnp(n, c / n, n))
        assert graphs_module._is_chordal(g) == nx.is_chordal(nx.Graph(g.edges)) == chordal

    @pytest.mark.parametrize("n", range(4, 9))
    def test_long_cycles_are_not_chordal(self, n):
        assert not graphs_module._is_chordal(cycle_graph(n))

    @pytest.mark.parametrize("g", [
        SimpleGraph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (3, 4))),  # K_4 minus an edge
        SimpleGraph(6, ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
                        (2, 3), (3, 4), (4, 5), (5, 6))),          # a fan
        SimpleGraph(6, ((3, 1), (3, 2), (3, 4), (3, 5), (3, 6))),  # a star
        complete_graph(6), SimpleGraph(0, ()), SimpleGraph(5, ()),
    ])
    def test_chordal_graphs(self, g):
        assert graphs_module._is_chordal(g)


class TestMaxSubgraphDensity:
    def test_cycles_have_density_one(self):
        for m in range(3, 9):
            assert max_subgraph_density(cycle_graph(m)) == Fraction(1)

    def test_k4(self):
        assert max_subgraph_density(complete_graph(4)) == Fraction(3, 2)

    def test_single_edge_and_path(self):
        assert max_subgraph_density(SimpleGraph(2, ((1, 2),))) == Fraction(1, 2)
        assert max_subgraph_density(path_graph(4)) == Fraction(3, 4)

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError, match="edgeless"):
            max_subgraph_density(SimpleGraph(3, ()))

    def test_vertex_limit(self):
        limit = graphs_module.MDENSITY_LIMIT
        with pytest.raises(ValueError, match="limit"):
            max_subgraph_density(SimpleGraph(limit + 1, ((1, 2),)))
        assert max_subgraph_density(SimpleGraph(limit, ((1, 2),))) == Fraction(1, 2)

    @given(graphs(min_n=2, max_n=6, min_edges=1))
    def test_matches_subset_enumeration(self, g: SimpleGraph):
        brute = max(
            Fraction(sum(1 for u, v in g.edges if u in ws and v in ws), len(ws))
            for size in range(1, g.n + 1)
            for ws in map(set, combinations(g.vertices(), size)))
        assert max_subgraph_density(g) == brute


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_graphs(3)) == 8
        assert sum(1 for _ in enumerate_graphs(4)) == 64

    def test_first_graph_is_edgeless_and_all_distinct(self):
        seen = list(enumerate_graphs(4))
        assert seen[0].m == 0
        assert len(set(seen)) == 64

    def test_graph_k_has_edge_slot_i_iff_bit_i_of_k_is_set(self):
        # the slots are the pairs in lexicographic order; verify lists the
        # mismatches of a labeled sweep in this order
        for n in range(6):
            slots = list(combinations(range(1, n + 1), 2))
            labeled = list(enumerate_graphs(n))
            assert len(labeled) == 2 ** len(slots)
            for k, g in enumerate(labeled):
                assert sum(1 << slots.index(e) for e in g.edges) == k

    def test_limit_guard(self):
        with pytest.raises(ValueError, match="limit"):
            list(enumerate_graphs(8))
        assert sum(1 for _ in enumerate_graphs(4)) == 64
        with pytest.raises(ValueError, match="^vertex count must be nonnegative, got -1$"):
            list(enumerate_graphs(-1))

    def test_builders(self):
        assert complete_graph(3).edges == ((1, 2), (1, 3), (2, 3))
        assert SimpleGraph(4, ((4, 3),)) == SimpleGraph(4, ((3, 4),))

    @pytest.mark.parametrize("call, message", [
        (lambda: path_graph(2.0), "vertex count must be an integer, got 2.0"),
        (lambda: complete_graph(3.0), "vertex count must be an integer, got 3.0"),
        (lambda: cycle_graph("5"), "vertex count must be an integer, got '5'"),
        (lambda: list(enumerate_graphs(2.5)), "vertex count must be an integer, got 2.5"),
        (lambda: list(enumerate_graphs("3")), "vertex count must be an integer, got '3'"),
        (lambda: huneke_ulrich_check("a", 2, 3), "reg_s_mod_i must be an integer, got 'a'"),
        (lambda: huneke_ulrich_check(2, 2.0, 3), "height must be an integer, got 2.0"),
        (lambda: huneke_ulrich_check(2, 2, "3"), "indeg must be an integer, got '3'")],
        ids=["path", "complete", "cycle", "enumerate-float", "enumerate-str",
             "huneke-ulrich-reg", "huneke-ulrich-height", "huneke-ulrich-indeg"])
    def test_an_argument_that_is_no_integer_is_refused_by_name(self, call, message):
        # each was a TypeError from deep inside range, a comparison or arithmetic
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def count_type(g: SimpleGraph) -> tuple[int, int, int, str]:
    """What cross_validate reads off a graph with an edge: n, the vertices on an edge,
    the components holding one, and the kind, forest, complete or another with a cycle."""
    met, joins = graphs_module._join_count(g.edges)
    kind = "forest" if g.m == joins else "complete" if g.m == comb(g.n, 2) else "cycle"
    return g.n, met, met - joins, kind


class TestCensus:
    def test_weights_are_the_atlas_orbit_sums_of_each_type_to_seven(self):
        # networkx's atlas lists one graph per isomorphism class on n <= 7; a
        # class stands for n!/|Aut| labeled graphs, |Aut| counted by its matcher
        orbits: Counter = Counter()
        for g in atlas_graphs(3, 7):
            h = nx_graph(g)
            automorphisms = sum(1 for _ in nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
            orbits[count_type(g)] += factorial(g.n) // automorphisms
        census = {}
        for n in range(3, 8):
            for g, weight in graphs_module._census(n):
                assert count_type(g) not in census, g
                census[count_type(g)] = weight
        assert census == orbits

    def test_weights_give_the_oeis_counts_to_twelve(self):
        # n = 3..12: connected graphs (A001187), forests (A001858) and graphs
        # with no isolated vertex (A006129)
        connected = [4, 38, 728, 26704, 1866256, 251548592, 66296291072, 34496488594816,
                     35641657548953344, 73354596206766622208]
        forests = [7, 38, 291, 2932, 36961, 561948, 10026505, 205608536, 4767440679,
                   123373203208]
        spread = [4, 41, 768, 27449, 1887284, 252522481, 66376424160, 34509011894545,
                  35645504882731588, 73356937912127722841]
        for n, *counts in zip(range(3, 13), connected, forests, spread):
            types = [(count_type(g), weight) for g, weight in graphs_module._census(n)]
            assert sum(weight for _, weight in types) == 2 ** comb(n, 2) - 1
            assert counts == [
                sum(weight for (_, met, c, _), weight in types if met == n and c == 1),
                1 + sum(weight for (*_, kind), weight in types if kind == "forest"),
                sum(weight for (_, met, *_), weight in types if met == n)]

    def test_flagged_weights_to_eight(self):
        # the totals of a verify run to n = 8, with its limit raised: every graph
        # with an edge and an isolated vertex is flagged, and nothing else
        analyzed = flagged = 0
        for n in range(3, 9):
            for g, weight in graphs_module._census(n):
                analyzed += weight
                report = cross_validate(g)
                if not report.clean and NOTE_ISOLATED in report.predicted.notes:
                    flagged += weight
        assert (analyzed, flagged) == (270_566_466, 16_128_439)

    @settings(max_examples=100)
    @given(graphs(min_n=3, max_n=9, min_edges=1))
    def test_graphs_of_one_type_share_their_records(self, g: SimpleGraph):
        twin = {count_type(h): h for h, _ in graphs_module._census(g.n)}[count_type(g)]
        for field in Field:
            mine, its = cross_validate(g, field), cross_validate(twin, field)
            assert mine.predicted is its.predicted
            assert mine.oracle is its.oracle
            assert mine.mismatches is its.mismatches


def nx_graph(g: SimpleGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges)
    return h
