"""Simplicial homology, Betti tables, and the resolution-shape predicates."""
from __future__ import annotations

import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb, log

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from compedge import (Field, SimpleGraph, SquarefreeIdeal, alexander_dual,
                      complementary_edge_dual, complementary_edge_ideal, has_linear_resolution,
                      hochster_betti, homology, is_cohen_macaulay, is_componentwise_linear,
                      is_sequentially_cm, minimalize, reg_pd, simplicial_complex,
                      stanley_reisner)
from compedge.graphs import (_join_count, complete_graph, connected_components, cycle_graph,
                             path_graph)
from compedge.homology import (BettiTable, SimplicialComplex, _closure, _count_betti,
                               _dual_betti, _gf2_rank, _graph_betti, _homology, _primal_betti,
                               _rational_rank, clear_homology_cache, reduced_homology_dims)
from compedge.tables import _count_invariants, _graph_oracle
from conftest import (atlas_graphs, brute_force_component, closed_form_betti, gnp_graph,
                      past_the_oracle_limit, sparse_gnp)


def fs(*vertices: int) -> frozenset[int]:
    return frozenset(vertices)


def gnp_graphs(min_n: int, max_n: int) -> st.SearchStrategy[SimpleGraph]:
    return st.builds(gnp_graph, st.integers(min_n, max_n), st.floats(0.05, 0.95),
                     st.randoms(use_true_random=False))


def complexes(max_n: int = 5, max_facet: int = 5) -> st.SearchStrategy[SimplicialComplex]:
    def build(n: int) -> st.SearchStrategy[SimplicialComplex]:
        facet = st.sets(st.integers(1, n), min_size=0, max_size=min(n, max_facet))
        return st.lists(facet, min_size=0, max_size=6).map(
            lambda facets: simplicial_complex(n, facets))
    return st.integers(1, max_n).flatmap(build)


def ideals(max_n: int) -> st.SearchStrategy[SquarefreeIdeal]:
    """Nonzero squarefree ideals of up to six generators on 1..max_n variables."""
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        st.sets(st.integers(1, n), min_size=1), min_size=1, max_size=6).map(
            lambda supports: minimalize(n, supports)))


@st.composite
def ideals_past_the_graph_kernel(draw, max_n: int) -> SquarefreeIdeal:
    """Ideals on 6..max_n variables with a generator of degree 3..n-3 inside which no
    other support lies, so the count kernel (_graph_betti) leaves them to an engine."""
    n = draw(st.integers(6, max_n))
    wide = draw(st.sets(st.integers(1, n), min_size=3, max_size=n - 3))
    outside = st.sampled_from(sorted(set(range(1, n + 1)) - wide))
    rest = draw(st.lists(st.tuples(st.sets(st.integers(1, n)), outside), max_size=5))
    return minimalize(n, [wide, *(support | {v} for support, v in rest)])


def antichain_ideals(n: int) -> list[SquarefreeIdeal]:
    """Every nonzero squarefree ideal on n variables: one per antichain of nonempty supports."""
    found: list[SquarefreeIdeal] = []

    def extend(start: int, chosen: list[int]) -> None:
        if chosen:
            found.append(SquarefreeIdeal(n, chosen))
        for m in range(start, 1 << n):
            if all(m & c not in (c, m) for c in chosen):
                extend(m + 1, chosen + [m])
    extend(1, [])
    return found


def monte_carlo_graph(n: int, regime: str) -> SimpleGraph:
    from compedge.experiments import sample_gnp
    p = 0.5 / n if regime == "c/n, c = 0.5" else 2 * log(n) / n
    return sample_gnp(n, p, np.random.default_rng(n))


def one_dimensional_ideals(n: int) -> list[SquarefreeIdeal]:
    """Every nonzero ideal on n >= 3 variables with generators all of degree >= n - 2.

    By their complements, the dual facets: the edges of a graph plus any set
    of its isolated vertices, or the empty face alone (the degree-n generator).
    """
    full = (1 << n) - 1
    pairs = [(1 << u) | (1 << v) for u, v in combinations(range(n), 2)]
    found = [SquarefreeIdeal(n, [full])]
    for chosen in range(1 << len(pairs)):
        edges = [e for k, e in enumerate(pairs) if chosen >> k & 1]
        covered = 0
        for e in edges:
            covered |= e
        isolated = [1 << v for v in range(n) if not covered >> v & 1]
        for points in range(1 << len(isolated)):
            tops = edges + [p for k, p in enumerate(isolated) if points >> k & 1]
            if tops:
                found.append(SquarefreeIdeal(n, [full ^ t for t in tops]))
    return found


@st.composite
def one_dimensional_duals(draw, max_n: int) -> SquarefreeIdeal:
    """An ideal with generators of degree >= n - 2: a random graph's edges and facet vertices."""
    n = draw(st.integers(3, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40))
    covered = {v for e in edges for v in e}
    isolated = [v for v in range(n) if v not in covered]
    points = draw(st.lists(st.sampled_from(isolated), unique=True)) if isolated else []
    full = (1 << n) - 1
    tops = [(1 << u) | (1 << v) for u, v in edges] + [1 << v for v in points]
    return SquarefreeIdeal(n, [full ^ t for t in tops] or [full])


def low_degree_ideals(n: int) -> list[SquarefreeIdeal]:
    """Every nonzero ideal on n variables generated in degrees <= 2.

    One per set of variables among the generators and set of pairs of the others.
    """
    found = []
    for points in range(1 << n):
        rest = [v for v in range(n) if not points >> v & 1]
        pairs = [(1 << u) | (1 << v) for u, v in combinations(rest, 2)]
        for chosen in range(1 << len(pairs)):
            masks = [1 << v for v in range(n) if points >> v & 1]
            masks += [p for k, p in enumerate(pairs) if chosen >> k & 1]
            if masks:
                found.append(SquarefreeIdeal(n, masks))
    return found


@st.composite
def forest_complexes(draw, max_n: int) -> tuple[SquarefreeIdeal, int, int]:
    """An ideal whose Stanley-Reisner complex is a random forest on a random vertex
    subset, with the forest's vertex and edge counts.

    The other variables are generators, and so is every pair of forest vertices
    that is not a forest edge.
    """
    n = draw(st.integers(3, max_n))
    labels = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    rng = draw(st.randoms(use_true_random=False))
    join = draw(st.floats(0, 1))
    # each vertex after the first hangs from an earlier one, or starts a tree
    edges = {(1 << v) | (1 << rng.choice(labels[:k]))
             for k, v in enumerate(labels) if k and rng.random() < join}
    masks = [1 << v for v in range(n) if v not in labels]
    masks += [(1 << u) | (1 << v) for u, v in combinations(labels, 2)
              if (1 << u) | (1 << v) not in edges]
    return SquarefreeIdeal(n, masks), len(labels), len(edges)


def engine_rule_witness(engine: str) -> SquarefreeIdeal:
    """An ideal on n = 14 that only the named engine serves fast.

    For the dual engine, 60 generators of degree n - 3; for the primal one,
    alexander_dual(I_c(C_14)), whose complex is the 14-cycle.
    """
    n = 14
    if engine == "dual":
        triples = random.Random(14).sample(list(combinations(range(1, n + 1), 3)), 60)
        return minimalize(n, [set(range(1, n + 1)) - set(t) for t in triples])
    return alexander_dual(complementary_edge_ideal(cycle_graph(n)))


def eliminated_homology(faces: tuple[int, ...], field: Field) -> tuple[int, ...]:
    """Reduced homology with every boundary map ranked by elimination, the edge layer too."""
    top = max(f.bit_count() for f in faces)
    by_size = [[f for f in faces if f.bit_count() == s] for s in range(top + 1)]
    ranks = [0] * (top + 2)
    for s in range(1, top + 1):
        row = {f: i for i, f in enumerate(by_size[s - 1])}
        bits, signed = [0] * len(row), [{} for _ in row]
        for j, f in enumerate(by_size[s]):
            vertices = [1 << v for v in range(f.bit_length()) if f >> v & 1]
            for k, v in enumerate(vertices):
                bits[row[f ^ v]] |= 1 << j
                signed[row[f ^ v]][j] = (-1) ** k
        ranks[s] = _gf2_rank(bits) if field is Field.GF2 else _rational_rank(signed)
    return tuple(len(by_size[s]) - ranks[s] - ranks[s + 1] for s in range(top + 1))


def stanley_reisner_faces(ideal: SquarefreeIdeal) -> list[int]:
    """The faces by brute force: every mask containing no generator."""
    return [s for s in range(1 << ideal.n) if not any(g & s == g for g in ideal.masks)]


def restriction(faces: list[int], sigma: int) -> list[int]:
    return [f for f in faces if f & ~sigma == 0]


def brute_force_betti(ideal: SquarefreeIdeal, field: Field) -> BettiTable:
    """Hochster's sum over all 2^n restrictions, as raw masks, with no lattice and no relabeling."""
    n = ideal.n
    faces = stanley_reisner_faces(ideal)
    expected: dict[tuple[int, int], int] = {}
    for sigma in range(1 << n):
        size = sigma.bit_count()
        dims = reduced_homology_dims(SimplicialComplex(n, frozenset(restriction(faces, sigma))),
                                     field)
        for k, h in enumerate(dims):
            expected[(size - k, size)] = expected.get((size - k, size), 0) + h
    return BettiTable.from_dict(n, field, expected)


def primal_engine(ideal: SquarefreeIdeal, field: Field) -> BettiTable:
    return _primal_betti(ideal.n, ideal.masks, field)


def dual_engine(ideal: SquarefreeIdeal, field: Field) -> BettiTable:
    full = (1 << ideal.n) - 1
    faces = sorted(_closure([full & ~g for g in ideal.masks], 1 << ideal.n))
    return _dual_betti(ideal.n, faces, field)


class TestFieldParsing:
    def test_round_trip(self):
        assert Field("gf2") is Field.GF2
        assert Field("q") is Field.RATIONALS

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="'gf3' is not a valid Field"):
            Field("gf3")


class TestSimplicialComplexes:
    def test_downward_closure(self):
        c = simplicial_complex(3, [(1, 2), (2, 3)])
        # the masks of (), (1,), (2,), (1, 2), (3,), (2, 3)
        assert c.faces == {0, 1, 2, 3, 4, 6}

    def test_void_versus_a_single_empty_face(self):
        void = SimplicialComplex(3, frozenset())
        assert void.is_void
        point_free = simplicial_complex(3, [])
        assert not point_free.is_void and point_free.faces == {0}

    @pytest.mark.parametrize("build, message", [
        (lambda: simplicial_complex(3, [[1.5]]), "facet label must be an integer: 'float'"),
        (lambda: simplicial_complex(3, [["a"]]), "facet label must be an integer: 'str'"),
        (lambda: simplicial_complex(3, [1, 2]), "facet labels must be iterable, got 1"),
        (lambda: simplicial_complex("3", [[1]]), "ground size must be an integer, got '3'"),
        (lambda: minimalize(3, [[1.5, 2]]), "support label must be an integer, got 1.5"),
        (lambda: minimalize(3, [1, 2]), "support labels must be iterable, got 1"),
    ])
    def test_the_facet_and_support_readers_refuse_non_integers_by_name(self, build, message):
        # a ValueError that names the input, not a TypeError from a shift or a comparison
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            build()

    def test_facet_range_guard(self):
        for facet in ((1, 3), (0, 1), (1, 10 ** 12)):
            with pytest.raises(ValueError, match="out of ground range"):
                simplicial_complex(2, [facet])

    def test_a_huge_ground_set_costs_only_the_faces(self):
        # the closure cap follows the facets, so no n-bit integer is built
        tracemalloc.start()
        try:
            c = simplicial_complex(10 ** 9, [[1, 2]])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        assert c.faces == {0, 1, 2, 3}

    @pytest.mark.parametrize("n", [3.5, 3.0, "3", np.int64(3), np.int32(3), True])
    def test_ground_size_is_a_plain_int_or_refused_by_name(self, n):
        if isinstance(n, (float, str)):
            message = f"^ground size must be an integer, got {re.escape(repr(n))}$"
            with pytest.raises(ValueError, match=message):
                SimplicialComplex(n, frozenset({0}))
            return
        c = SimplicialComplex(n, frozenset({0, 1}))
        assert type(c.n) is int and c.n == n
        assert c == SimplicialComplex(int(n), frozenset({0, 1}))
        assert repr(c) == f"SimplicialComplex(n={int(n)}, faces=frozenset({{0, 1}}))"

    def test_face_masks_are_plain_ints_or_refused_by_name(self):
        c = SimplicialComplex(2, {0, np.int64(1), np.uint8(2), True, 3})
        assert c == SimplicialComplex(2, frozenset({0, 1, 2, 3}))
        assert all(type(f) is int for f in c.faces) and type(c.faces) is frozenset
        for bad in (1.0, 2.5, "1"):
            with pytest.raises(ValueError, match="^face mask must be an integer: "):
                SimplicialComplex(2, frozenset({0, bad}))
        # the ground size is checked before any face is read
        with pytest.raises(ValueError, match="^ground size must be nonnegative, got -1$"):
            SimplicialComplex(-1, frozenset({1.0}))

    @pytest.mark.parametrize("faces", [5, None])
    def test_faces_that_are_not_iterable_are_refused_by_name(self, faces):
        with pytest.raises(ValueError, match=f"^face masks must be iterable, got {faces}$"):
            SimplicialComplex(2, faces)

    @pytest.mark.parametrize("build", [lambda: SimplicialComplex(-1, frozenset()),
                                       lambda: SimplicialComplex(-1, frozenset({0})),
                                       lambda: simplicial_complex(-1, [])])
    def test_a_negative_ground_size_is_refused(self, build):
        with pytest.raises(ValueError, match="ground size must be nonnegative, got -1"):
            build()

    @pytest.mark.parametrize("faces, message", [
        ({0, 1, 2, 3, 7}, "not downward closed"), ({7}, "not downward closed"),
        ({0, 16}, "out of ground range")])
    def test_a_family_that_is_no_complex_is_refused(self, faces, message):
        with pytest.raises(ValueError, match=message):
            SimplicialComplex(3, frozenset(faces))

    def test_stanley_reisner_of_complete_graph_ideal_is_points(self):
        # every 2-subset is a generator support, so only points survive
        c = stanley_reisner(complementary_edge_ideal(complete_graph(4)))
        assert c.faces == {0, 1, 2, 4, 8}

    def test_stanley_reisner_zero_ideal_rejected(self):
        with pytest.raises(ValueError, match="zero ideal"):
            stanley_reisner(SquarefreeIdeal(3, ()))

    @given(st.lists(st.integers(0, (1 << 7) - 1), max_size=5), st.integers(1, 1 << 7))
    def test_closure_is_every_subset_of_the_tops(self, tops: list[int], max_faces: int):
        # reference: scan all 2^7 masks for one contained in some top
        every = {0} | {f for f in range(1 << 7) if any(f & t == f for t in tops)}
        expected = every if len(every) <= max_faces else None
        assert _closure(tops, max_faces) == expected


class TestReducedHomology:
    def test_void_complex_has_no_homology(self):
        assert reduced_homology_dims(SimplicialComplex(3, frozenset())) == []

    def test_empty_face_only(self):
        assert reduced_homology_dims(simplicial_complex(3, [])) == [1]

    def test_two_points(self):
        c = simplicial_complex(2, [(1,), (2,)])
        assert reduced_homology_dims(c) == [0, 1]

    def test_full_simplex_is_acyclic(self):
        c = simplicial_complex(4, [(1, 2, 3, 4)])
        assert reduced_homology_dims(c) == [0, 0, 0, 0, 0]

    def test_circle(self):
        square = simplicial_complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        for field in Field:
            assert reduced_homology_dims(square, field) == [0, 0, 1]

    def test_sphere(self):
        boundary = simplicial_complex(4, combinations(range(1, 5), 3))
        for field in Field:
            assert reduced_homology_dims(boundary, field) == [0, 0, 0, 1]

    # six-vertex triangulation of the real projective plane
    RP2_FACETS = [(1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
                  (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6)]

    def test_projective_plane_distinguishes_the_fields(self):
        # 2-torsion is visible over GF(2) only
        rp2 = simplicial_complex(6, self.RP2_FACETS)
        assert reduced_homology_dims(rp2, Field.GF2) == [0, 0, 1, 1]
        assert reduced_homology_dims(rp2, Field.RATIONALS) == [0, 0, 0, 0]

    def test_a_field_that_is_no_member_is_refused(self):
        # a field's value in place of the member would read as Q: [0, 0, 0, 0] here,
        # and so would the tables of both engines on its Stanley-Reisner ideal, whose
        # minimal nonfaces are the ten triples that are no facet
        rp2 = simplicial_complex(6, self.RP2_FACETS)
        ideal = minimalize(6, set(combinations(range(1, 7), 3)) - set(self.RP2_FACETS))
        assert stanley_reisner(ideal) == rp2
        for field in ("gf2", "q", None):
            with pytest.raises(ValueError, match=f"^field must be a Field, got {field!r}$"):
                reduced_homology_dims(rp2, field)
            for engine in (hochster_betti, primal_engine, dual_engine):
                with pytest.raises(ValueError, match="^field must be a Field"):
                    engine(ideal, field)

    @settings(max_examples=80)
    @given(complexes())
    def test_euler_characteristic_matches_face_count(self, c: SimplicialComplex):
        # alternating sums of face counts and homology dims agree over any field
        sizes: dict[int, int] = {}
        for f in c.faces:
            sizes[f.bit_count()] = sizes.get(f.bit_count(), 0) + 1
        chi_faces = sum((-1) ** s * v for s, v in sizes.items())
        for field in Field:
            dims = reduced_homology_dims(c, field)
            assert sum((-1) ** k * h for k, h in enumerate(dims)) == chi_faces

    def test_returned_dims_are_a_fresh_list(self):
        square = simplicial_complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        reduced_homology_dims(square).append(7)
        reduced_homology_dims(square)[2] = 5
        assert reduced_homology_dims(square) == [0, 0, 1]

    @settings(max_examples=150)
    @given(complexes(max_n=7, max_facet=4))
    def test_union_find_edge_layer_matches_all_elimination(self, c: SimplicialComplex):
        # dimensions 0-3: the edge layer takes union-find, higher layers elimination
        faces = tuple(sorted(c.faces))
        for field in Field:
            assert _homology(faces, field) == eliminated_homology(faces, field)

    @settings(max_examples=80)
    @given(complexes())
    def test_gf2_dimensions_dominate_rational_ones(self, c: SimplicialComplex):
        over_2 = reduced_homology_dims(c, Field.GF2)
        over_q = reduced_homology_dims(c, Field.RATIONALS)
        assert len(over_2) == len(over_q)
        assert all(a >= b for a, b in zip(over_2, over_q))


def dense_rational_rank(matrix: list[list[int]]) -> int:
    """Textbook Gaussian elimination over Fraction, the reference for _rational_rank."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        found = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        rows[rank], rows[found] = rows[found], rows[rank]
        pivot = rows[rank]
        for row in rows[rank + 1:]:
            scale = row[col] / pivot[col]
            for c in range(col, len(row)):
                row[c] -= scale * pivot[c]
        rank += 1
    return rank


class TestRationalRank:
    @settings(max_examples=200)
    @given(st.integers(0, 8).flatmap(lambda cols: st.lists(
        st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=0, max_size=8)))
    def test_matches_dense_fraction_elimination(self, matrix: list[list[int]]):
        sparse = [{c: v for c, v in enumerate(row) if v} for row in matrix]
        assert _rational_rank(sparse) == dense_rational_rank(matrix)


class TestEdgeRank:
    """graphs._join_count, the kernel's edge layer, against elimination and networkx."""

    @staticmethod
    def check(vertices: list[int], edges: list[tuple[int, int]]) -> None:
        # the incidence matrix, rows by vertex: bit-packed, and signed sparse
        row = {v: i for i, v in enumerate(vertices)}
        bits, signed = [0] * len(vertices), [{} for _ in vertices]
        for j, (u, v) in enumerate(edges):
            bits[row[u]] |= 1 << j
            bits[row[v]] |= 1 << j
            signed[row[u]][j], signed[row[v]][j] = -1, 1
        graph = nx.Graph(edges)
        graph.add_nodes_from(vertices)
        expected = len(vertices) - nx.number_connected_components(graph)
        met, rank = _join_count(edges)
        assert rank == _gf2_rank(bits) == _rational_rank(signed) == expected
        assert met == len({v for edge in edges for v in edge})

    @settings(max_examples=150)
    @given(st.lists(st.integers(1, 3000), min_size=1, max_size=30, unique=True), st.data())
    def test_union_find_rank_matches_elimination(self, labels: list[int], data):
        # random labels up to 3000 leave isolated vertices and several components
        pairs = list(combinations(labels, 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40)) if pairs else []
        self.check(labels, edges)

    @pytest.mark.parametrize("c", [0.5, 1.5, 4.0])
    def test_union_find_rank_on_three_thousand_vertices(self, c):
        rng = random.Random(3000)
        n = 3000
        edges = list({tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(int(c * n / 2))})
        self.check(list(range(1, n + 1)), edges)


class TestBettiTables:
    def test_koszul_on_three_variables(self):
        table = hochster_betti(minimalize(3, [[1], [2], [3]]))
        assert table.as_dict() == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}

    def test_two_disjoint_quadratic_generators(self):
        table = hochster_betti(minimalize(4, [[1, 2], [3, 4]]))
        assert table.value(1, 2) == 2
        assert table.value(2, 4) == 1
        assert table.as_dict() == {(0, 0): 1, (1, 2): 2, (2, 4): 1}

    def test_complete_graph_on_four(self):
        table = hochster_betti(complementary_edge_ideal(complete_graph(4)))
        assert table.as_dict() == {(0, 0): 1, (1, 2): 6, (2, 3): 8, (3, 4): 3}

    def test_complete_graph_table_matches_skeleton_count_argument(self):
        # the Stanley-Reisner complex of the complete graph ideal keeps all
        # faces of size at most n-3, so a restriction to s >= n-2 vertices is
        # the (n-4)-skeleton of a simplex, whose top reduced homology has rank
        # C(s-1, n-3); smaller restrictions are full simplexes
        for n in (4, 5):
            table = hochster_betti(complementary_edge_ideal(complete_graph(n)))
            expected = {(0, 0): 1}
            for s in range(n - 2, n + 1):
                expected[(s - n + 3, s)] = comb(n, s) * comb(s - 1, n - 3)
            assert table.as_dict() == expected

    def test_cycle_on_four(self):
        table = hochster_betti(complementary_edge_ideal(cycle_graph(4)))
        assert table.as_dict() == {(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1}

    def test_zero_ideal_rejected(self):
        with pytest.raises(ValueError, match="zero ideal"):
            hochster_betti(SquarefreeIdeal(3, ()))

    def test_ambient_limit_guard(self):
        ideal = minimalize(15, [[1, 2]])
        with pytest.raises(ValueError, match="oracle limit"):
            hochster_betti(ideal)

    def test_value_defaults_to_zero(self):
        table = hochster_betti(minimalize(3, [[1]]))
        assert table.value(5, 7) == 0

    def test_to_json_dict(self):
        table = hochster_betti(minimalize(3, [[1]]))
        assert table.to_json_dict() == {
            "n": 3, "field": "gf2",
            "betti": [{"i": 0, "j": 0, "value": 1}, {"i": 1, "j": 1, "value": 1}]}

    def test_from_dict_drops_zero_entries(self):
        table = BettiTable.from_dict(3, Field.GF2, {(0, 0): 1, (1, 2): 0})
        assert table.entries == (((0, 0), 1),)

    def test_cache_can_be_cleared(self):
        ideal = complementary_edge_ideal(path_graph(4))
        before = hochster_betti(ideal)
        clear_homology_cache()
        assert hochster_betti(ideal) == before

    @settings(max_examples=40)
    @given(ideals(6))
    def test_matches_hochster_sum_over_unrelabeled_restrictions(self, ideal: SquarefreeIdeal):
        for field in Field:
            expected = brute_force_betti(ideal, field)
            assert hochster_betti(ideal, field) == expected

    @pytest.mark.parametrize("n, count", [(1, 1), (2, 4), (3, 18), (4, 166)])
    def test_every_ideal_on_at_most_four_variables(self, n, count):
        # count: the Dedekind number M(n) less the empty antichain and {emptyset}
        every = antichain_ideals(n)
        assert len(every) == len(set(every)) == count
        for ideal in every:
            for field in Field:
                expected = brute_force_betti(ideal, field)
                assert primal_engine(ideal, field) == expected
                assert hochster_betti(ideal, field) == expected

    @settings(max_examples=60)
    @given(ideals(7))
    def test_restrictions_off_the_lcm_lattice_are_acyclic(self, ideal: SquarefreeIdeal):
        # the lcm lattice by its definition: the unions of sets of generators
        lattice = {0}
        for g in ideal.masks:
            lattice |= {s | g for s in lattice}
        faces = stanley_reisner_faces(ideal)
        for sigma in set(range(1 << ideal.n)) - lattice:
            complex_ = SimplicialComplex(ideal.n, frozenset(restriction(faces, sigma)))
            for field in Field:
                assert not any(reduced_homology_dims(complex_, field))

    @settings(max_examples=60, deadline=None)
    @given(ideals(8))
    def test_k_polynomial_from_faces_equals_alternating_betti_sum(self, ideal: SquarefreeIdeal):
        # Hilbert series of S/I twice: sum over faces F of t^|F| / (1-t)^|F|,
        # and K(t) / (1-t)^n with K(t) = sum of (-1)^i beta_(i,j) t^j
        n = ideal.n
        from_faces = [0] * (n + 1)
        for f in stanley_reisner_faces(ideal):
            d = f.bit_count()
            for e in range(n - d + 1):
                from_faces[d + e] += (-1) ** e * comb(n - d, e)
        for field in Field:
            for engine in (primal_engine, dual_engine):
                from_table = [0] * (n + 1)
                for (i, j), v in engine(ideal, field).entries:
                    from_table[j] += (-1) ** i * v
                assert from_table == from_faces

    @settings(max_examples=60, deadline=None)
    @given(ideals(8), st.randoms(use_true_random=False))
    def test_relabeling_the_variables_keeps_the_table(self, ideal: SquarefreeIdeal, rng):
        # the engines and kernels work on raw masks, so a relabeled ideal
        # meets other masks than the original
        n = ideal.n
        image = list(range(n))
        rng.shuffle(image)
        relabeled = SquarefreeIdeal(n, [sum(1 << image[v] for v in range(n) if g >> v & 1)
                                        for g in ideal.masks])
        for field in Field:
            for engine in (primal_engine, dual_engine, hochster_betti):
                assert engine(relabeled, field) == engine(ideal, field)

    @settings(max_examples=100)
    @given(ideals(8))
    def test_primal_and_dual_engines_agree(self, ideal: SquarefreeIdeal):
        for field in Field:
            primal = primal_engine(ideal, field)
            assert dual_engine(ideal, field) == primal

    @pytest.mark.parametrize("n, count", [(3, 18), (4, 113), (5, 1450)])
    def test_graph_kernel_on_every_one_dimensional_dual(self, n, count):
        every = one_dimensional_ideals(n)
        assert len(every) == len(set(every)) == count
        for ideal in every:
            assert ideal.indeg >= n - 2
            for field in Field:
                table = _graph_betti(n, ideal.masks, field)
                assert table == primal_engine(ideal, field) == dual_engine(ideal, field)

    @settings(max_examples=150, deadline=None)
    @given(one_dimensional_duals(14))
    def test_graph_kernel_matches_the_dual_engine(self, ideal: SquarefreeIdeal):
        for field in Field:
            assert _graph_betti(ideal.n, ideal.masks, field) == dual_engine(ideal, field)

    def test_complementary_edge_ideals_skip_the_subset_walk(self, monkeypatch):
        # no 2^n union table, no dual-complex closure, and neither engine
        def refuse(*args):
            raise AssertionError("walked subsets or ran an engine")
        for name in ("_union_table", "_closure", "_dual_betti", "_primal_betti"):
            monkeypatch.setattr(homology, name, refuse)
        for graph in (cycle_graph(14), complete_graph(14), SimpleGraph(14, ((1, 2),))):
            for field in Field:
                table = hochster_betti(complementary_edge_ideal(graph), field)
                assert table == closed_form_betti(graph, field)

    def test_complementary_edge_ideals_run_no_elimination(self, monkeypatch):
        # every link of the dual complex, a graph, has dimension at most 1
        def refuse(rows):
            raise AssertionError("ranked a layer by elimination")
        monkeypatch.setattr(homology, "_gf2_rank", refuse)
        monkeypatch.setattr(homology, "_rational_rank", refuse)
        rng = random.Random(13)
        graphs = [complete_graph(13), cycle_graph(13), SimpleGraph(13, ((1, 2),))]
        graphs += [gnp_graph(n, p, rng) for n in range(3, 14) for p in (0.2, 0.5, 0.8)]
        for graph in graphs:
            for field in Field:
                table = hochster_betti(complementary_edge_ideal(graph), field)
                assert table == closed_form_betti(graph, field)

    @pytest.mark.parametrize("n", [200, 1000])
    @pytest.mark.parametrize("regime", ["c/n, c = 0.5", "2 log n / n"])
    def test_dual_engine_matches_the_closed_form_at_monte_carlo_sizes(self, n, regime):
        graph = monte_carlo_graph(n, regime)
        # the dual complex of I_c(G) is G: the empty face, the vertices on an edge, the edges
        faces = sorted(_closure([(1 << u - 1) | (1 << v - 1) for u, v in graph.edges],
                                1 + n + graph.m))
        for field in Field:
            assert _dual_betti(n, faces, field) == closed_form_betti(graph, field)

    @pytest.mark.parametrize("n", [200, 1000])
    @pytest.mark.parametrize("regime", ["c/n, c = 0.5", "2 log n / n"])
    def test_graph_kernel_matches_the_closed_form_at_monte_carlo_sizes(self, n, regime):
        # the generators of I_c(G), past the ambient limit of SquarefreeIdeal
        graph = monte_carlo_graph(n, regime)
        full = (1 << n) - 1
        masks = [full ^ (1 << u - 1) ^ (1 << v - 1) for u, v in graph.edges]
        for field in Field:
            assert _graph_betti(n, masks, field) == closed_form_betti(graph, field)

    @settings(max_examples=40, deadline=None)
    @given(gnp_graphs(3, 13))
    def test_an_isolated_vertex_shifts_every_degree_by_one(self, graph: SimpleGraph):
        # the new variable divides every generator of I_c(G + v)
        bigger = SimpleGraph(graph.n + 1, graph.edges)
        for field in Field:
            table = hochster_betti(complementary_edge_ideal(graph), field)
            shifted = {(i, j + (i > 0)): v for (i, j), v in table.entries}
            assert hochster_betti(complementary_edge_ideal(bigger), field).as_dict() == shifted

    def test_both_fields_agree_on_every_complementary_edge_ideal_up_to_six(self):
        # a graph has no torsion; one graph per isomorphism class (the
        # networkx atlas) covers every labeled graph, as relabeling keeps tables
        for graph in atlas_graphs(3, 6):
            ideal = complementary_edge_ideal(graph)
            over_2 = hochster_betti(ideal, Field.GF2).entries
            assert hochster_betti(ideal, Field.RATIONALS).entries == over_2

    def test_a_primal_table_holds_one_restriction_at_a_time(self):
        # the primal engine, which the engine rule picks for this ideal:
        # 16,345 restrictions of at most 28 faces; holding every restriction
        # at once peaked at 4.8 MB (one at a time: 0.9 MB)
        ideal = alexander_dual(complementary_edge_ideal(path_graph(14)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            table = primal_engine(ideal, Field.GF2)
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert now - before < 1_000_000
        assert peak - before < 2_000_000
        # I_c(P_14) is Cohen-Macaulay, so its dual has a linear resolution
        assert table.as_dict() == {(0, 0): 1} | {(i, i + 1): i * comb(13, i + 1)
                                                 for i in range(1, 13)}

    @pytest.mark.parametrize("witness", ["dual", "primal"])
    def test_the_engine_rule_picks_the_engine_each_witness_needs(self, monkeypatch, witness):
        # each engine is 90x to 2000x slower than the other on one witness (one
        # x86-64 CPU): the dual witness takes 1 ms dual and 2.2 s primal, the
        # primal one 0.22 s primal and 19.7 s dual, so the F^2 <= 3P rule must
        # send each to the cheap one
        ideal = engine_rule_witness(witness)
        slow = {"dual": "_primal_betti", "primal": "_dual_betti"}[witness]

        def refuse(*args):
            raise AssertionError(f"ran {slow} on the {witness} witness")
        monkeypatch.setattr(homology, slow, refuse)
        table = hochster_betti(ideal)
        assert sum(v for (i, _), v in table.entries if i == 1) == len(ideal.masks)

    def test_the_primal_engine_builds_no_ideal(self, monkeypatch):
        # the route hands the primal engine the masks it was given
        ideal = engine_rule_witness("primal")
        built, ran = [], []
        init, primal = SquarefreeIdeal.__init__, homology._primal_betti

        def counted_init(self, *args):
            built.append(args)
            init(self, *args)

        def counted_primal(*args):
            ran.append(args)
            return primal(*args)
        monkeypatch.setattr(SquarefreeIdeal, "__init__", counted_init)
        monkeypatch.setattr(homology, "_primal_betti", counted_primal)
        hochster_betti(ideal)
        assert not is_componentwise_linear(ideal)
        assert (len(ran), built) == (2, [])

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(ideals(9), ideals_past_the_graph_kernel(9)))
    @example(engine_rule_witness("dual"))
    @example(engine_rule_witness("primal"))
    def test_the_face_cap_never_moves_the_engine_choice(self, ideal: SquarefreeIdeal):
        # the rule on the whole dual complex, with no cap: P <= 3^n, so every
        # closure past the cap fails it anyway
        n = ideal.n
        assume(ideal.indeg < n - 2)
        faces = _closure([((1 << n) - 1) & ~g for g in ideal.masks], 1 << n)
        dual = len(faces) ** 2 <= 3 * sum(1 << (n - tau.bit_count()) for tau in faces)
        slow = "_primal_betti" if dual else "_dual_betti"

        def refuse(*args):
            raise AssertionError(f"ran {slow} with {len(faces)} dual faces")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(homology, slow, refuse)
            for field in Field:
                hochster_betti(ideal, field)

    def test_the_path_dual_and_the_irrelevant_ideal_on_fourteen(self):
        # the complex of complementary_edge_dual(P_14) is the path itself, and
        # that of the ideal of all variables is {emptyset}
        linear = {(0, 0): 1} | {(i, i + 1): i * comb(13, i + 1) for i in range(1, 13)}
        koszul = {(i, i): comb(14, i) for i in range(15)}
        path = complementary_edge_dual(path_graph(14))
        variables = minimalize(14, [[v] for v in range(1, 15)])
        for field in Field:
            assert hochster_betti(path, field).as_dict() == linear
            assert hochster_betti(variables, field).as_dict() == koszul

    def test_seven_variables_on_fourteen_give_the_koszul_diagonal(self):
        # (x_1..x_7) on n = 14: the complex is the full simplex on the other
        # seven variables, and every nonempty restriction to them is a cone
        ideal = minimalize(14, [[v] for v in range(1, 8)])
        for field in Field:
            assert hochster_betti(ideal, field).as_dict() == {(i, i): comb(7, i)
                                                              for i in range(8)}

    @pytest.mark.parametrize("n, count", [(1, 1), (2, 4), (3, 17), (4, 112), (5, 1449)])
    def test_every_ideal_of_degree_at_most_two(self, n, count):
        every = low_degree_ideals(n)
        assert len(every) == len(set(every)) == count
        for ideal in every:
            for field in Field:
                table = hochster_betti(ideal, field)
                assert table == primal_engine(ideal, field) == brute_force_betti(ideal, field)

    @settings(max_examples=60, deadline=None)
    @given(forest_complexes(14), st.sampled_from(Field))
    def test_forest_complexes_match_the_closed_form(self, drawn, field: Field):
        # every restriction of a forest is a forest, with H~_0 = v' - m' - 1
        # for its v' vertices and m' edges; the sets sigma of the D variable
        # generators restrict to {emptyset}, giving beta_(j,j) = C(D, j), and
        # over the C(n, j) - C(D, j) others of size j, v' sums to
        # V * C(n-1, j-1) and m' to M * C(n-2, j-2), giving beta_(j-1,j)
        ideal, vertices, edges = drawn
        n = ideal.n
        d = n - vertices
        expected = {(j, j): comb(d, j) for j in range(d + 1)}
        for j in range(2, n + 1):
            expected[(j - 1, j)] = (vertices * comb(n - 1, j - 1) - edges * comb(n - 2, j - 2)
                                    - comb(n, j) + comb(d, j))
        assert hochster_betti(ideal, field) == BettiTable.from_dict(n, field, expected)

    def test_a_cubic_generator_and_cyclic_complexes_match_brute_force(self):
        def non_edge_ideal(graph: SimpleGraph) -> SquarefreeIdeal:
            # its complex is the clique complex of the graph
            return SquarefreeIdeal(graph.n, [(1 << u - 1) | (1 << v - 1)
                                             for u, v in combinations(range(1, graph.n + 1), 2)
                                             if (u, v) not in graph.edges])
        cubic = minimalize(6, [[1, 2], [3, 4, 5]])
        # the complement of C_5 is C_5: its complex is the 5-cycle
        pentagon = non_edge_ideal(cycle_graph(5))
        # a 4-cycle and an isolated vertex
        square = non_edge_ideal(SimpleGraph(5, ((1, 2), (2, 3), (3, 4), (1, 4))))
        for ideal in (cubic, pentagon, square):
            for field in Field:
                assert hochster_betti(ideal, field) == brute_force_betti(ideal, field)

    def test_irrelevant_ideal_is_koszul(self):
        for n in range(1, 11):
            table = hochster_betti(minimalize(n, [[v] for v in range(1, n + 1)]))
            assert table.as_dict() == {(i, i): comb(n, i) for i in range(n + 1)}

    @settings(max_examples=60, deadline=None)
    @given(gnp_graphs(7, 14))
    def test_matches_the_closed_form_from_edge_and_component_counts(self, graph: SimpleGraph):
        for field in Field:
            table = hochster_betti(complementary_edge_ideal(graph), field)
            assert table == closed_form_betti(graph, field)

    @settings(max_examples=40)
    @given(st.integers(3, 6).flatmap(lambda n: st.lists(
        st.sampled_from(list(combinations(range(1, n + 1), 2))),
        unique=True, min_size=1).map(lambda e: SimpleGraph(n, tuple(e)))))
    def test_corner_entry_and_taylor_bound(self, graph: SimpleGraph):
        ideal = complementary_edge_ideal(graph)
        table = hochster_betti(ideal)
        assert table.value(0, 0) == 1
        m = len(ideal.gens)
        totals: dict[int, int] = {}
        for (i, _), v in table.entries:
            totals[i] = totals.get(i, 0) + v
        # the Taylor complex resolves S/I, so row sums stay under C(m, i)
        assert all(v <= comb(m, i) for i, v in totals.items())
        assert totals.get(1, 0) == m


class TestGraphOracle:
    """The graph-level entry's table and _count_invariants' height of I_c(G), off m, n' and c'."""

    def test_every_labeled_graph_to_six_against_the_graph_kernel_and_height(self, oracle_sweep):
        # oracle_sweep holds height(complementary_edge_ideal(graph)) per labeled graph
        records, _ = oracle_sweep
        assert len(records) == 7 + 63 + 1023 + 32767
        for record in records:
            graph = record.graph
            masks = complementary_edge_ideal(graph).masks
            counts = _join_count(graph.edges)
            assert _count_invariants(graph.n, graph.m, *counts)[0] == record.height, graph
            for field in Field:
                table = _graph_oracle(graph, field)
                assert table == _graph_betti(graph.n, masks, field), graph

    def test_atlas_classes_to_seven_against_both_engines_and_the_cover_search(self):
        # tables and heights are invariant under relabeling, so one graph per
        # isomorphism class (the networkx atlas) stands for every labeled one;
        # the primal engine, at 1-5 ms a table on n = 7, reads every class
        # below 7 and every eighth class of n = 7 over GF(2)
        graphs = atlas_graphs(3, 7)
        assert len(graphs) == 201 + 1043
        for k, graph in enumerate(graphs):
            ideal = complementary_edge_ideal(graph)
            counts = _join_count(graph.edges)
            for field in Field:
                table = _graph_oracle(graph, field)
                assert table == dual_engine(ideal, field), graph
                if graph.n < 7 or (k % 8 == 0 and field is Field.GF2):
                    assert table == primal_engine(ideal, field), graph
            ht = _count_invariants(graph.n, graph.m, *counts)[0]
            assert ht == alexander_dual(ideal).indeg, graph

    @pytest.mark.parametrize("n", [200, 1000, 10000])
    def test_count_step_matches_the_graph_kernel_on_raw_masks(self, n):
        # seeded G(n, 3/n), past both limits: the kernel reads the n-bit
        # generators of I_c(G), the count step the edges' union-find counts
        edges = sparse_gnp(n, 3 / n, n)
        assert len(edges) > n
        full = (1 << n) - 1
        masks = [full ^ (1 << u - 1) ^ (1 << v - 1) for u, v in edges]
        graph = SimpleGraph(n, edges)
        met, joins = _join_count(edges)
        for field in Field:
            table = _count_betti(n, len(edges), met, joins, 0, field)
            assert table == _graph_betti(n, masks, field) == closed_form_betti(graph, field)

    def test_complementary_edge_ideals_are_never_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built an ideal, a closure or a mask table")
        monkeypatch.setattr(SquarefreeIdeal, "__init__", refuse)
        for name in ("_closure", "_graph_betti", "_union_table"):
            monkeypatch.setattr(homology, name, refuse)
        for graph in (cycle_graph(14), complete_graph(14), SimpleGraph(14, ((1, 2),))):
            for field in Field:
                assert _graph_oracle(graph, field) == closed_form_betti(graph, field)

    @pytest.mark.parametrize("graph", past_the_oracle_limit(), ids=lambda g: f"n{g.n}")
    def test_count_level_questions_answer_past_the_oracle_limit(self, graph):
        # n = 15..24: hochster_betti routes I_c(G) to the count kernel before
        # the oracle limit, so it agrees with the graph-level entry; an engine
        # ideal on the same n and stanley_reisner's 2^n table are refused
        ideal = complementary_edge_ideal(graph)
        counts = _join_count(graph.edges)
        ht = _count_invariants(graph.n, graph.m, *counts)[0]
        for field in Field:
            table = _graph_oracle(graph, field)
            assert hochster_betti(ideal, field) == table == closed_form_betti(graph, field)
            hom = reg_pd(table)
            assert is_cohen_macaulay(ideal, field) == (hom.pd_s_mod_i == ht)
            # the degree n - 2 component is I_c(G), and the higher ones are linear
            assert has_linear_resolution(ideal, field) == is_componentwise_linear(ideal, field) == (
                hom.reg_ideal == graph.n - 2)
        message = f"^ambient size {graph.n} exceeds the oracle limit of 14$"
        with pytest.raises(ValueError, match=message):
            hochster_betti(minimalize(graph.n, [[1, 2]]))
        with pytest.raises(ValueError, match=message):
            stanley_reisner(ideal)


class TestCountInvariants:
    """tables._count_invariants: height, reg(S/I) and pd(S/I) of I_c(G) off the counts."""

    def test_every_labeled_graph_to_six_against_the_tables_and_the_cover_search(
            self, oracle_sweep):
        # oracle_sweep holds, per labeled graph, reg_pd of
        # hochster_betti(complementary_edge_ideal(graph)) and ideals.height of it
        records, _ = oracle_sweep
        assert len(records) == 7 + 63 + 1023 + 32767
        for record in records:
            graph = record.graph
            n, m = graph.n, graph.m
            counts = _join_count(graph.edges)
            closed = _count_invariants(n, m, *counts)
            assert closed == (record.height, record.reg_s_mod_i, record.pd_ideal + 1), graph
            for field in Field:
                hom = _count_betti(n, m, *counts, 0, field).reg_pd()
                assert closed[1:] == (hom.reg_s_mod_i, hom.pd_s_mod_i), graph

    @settings(max_examples=40, deadline=None)
    @given(gnp_graphs(3, 14))
    @example(cycle_graph(14))
    @example(SimpleGraph(11, ((1, 2), (3, 4), (5, 6))))
    def test_equals_both_engines_and_the_cover_search_to_fourteen(self, graph: SimpleGraph):
        # the dual engine on every draw over both fields; the primal one,
        # whose 2^n union table takes about 2 s over GF(2) and 40 s over Q
        # at n = 14, to n = 11 over GF(2) and n = 8 over Q
        ideal = complementary_edge_ideal(graph)
        ht, reg, pd = _count_invariants(graph.n, graph.m, *_join_count(graph.edges))
        assert ht == alexander_dual(ideal).indeg
        for field in Field:
            tables = [dual_engine(ideal, field)]
            if graph.n <= (11 if field is Field.GF2 else 8):
                tables.append(primal_engine(ideal, field))
            for table in tables:
                hom = table.reg_pd()
                assert (reg, pd) == (hom.reg_s_mod_i, hom.pd_s_mod_i), (graph, field)

    def test_each_rule_on_its_smallest_witness(self):
        # pd 3 exactly with a cycle, 2 when two edges meet or two components
        # hold an edge, else 1; reg n - 2 exactly with two such components
        cases = {
            SimpleGraph(3, ((1, 2),)): (1, 0, 1),
            SimpleGraph(3, ((1, 2), (2, 3))): (2, 0, 2),
            SimpleGraph(4, ((1, 2), (3, 4))): (2, 2, 2),
            SimpleGraph(5, ((1, 2), (3, 4))): (1, 3, 2),
            cycle_graph(4): (2, 1, 3),
            complete_graph(3): (3, 0, 3),
            complete_graph(4): (3, 1, 3),
        }
        for graph, expected in cases.items():
            assert _count_invariants(graph.n, graph.m, *_join_count(graph.edges)) == expected
            assert expected[1:] == tuple(reg_pd(closed_form_betti(graph, Field.GF2))[:2])


class TestRegPd:
    def test_conversions(self):
        table = hochster_betti(complementary_edge_ideal(complete_graph(4)))
        hom = reg_pd(table)
        assert hom.pd_s_mod_i == 3
        assert hom.reg_s_mod_i == 1
        assert hom.pd_ideal == 2
        assert hom.reg_ideal == 2

    def test_cycle_on_five(self):
        hom = reg_pd(hochster_betti(complementary_edge_ideal(cycle_graph(5))))
        assert (hom.pd_ideal, hom.reg_ideal) == (2, 3)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            reg_pd(BettiTable(3, Field.GF2, ()))

    def test_entries_in_any_order(self):
        # the NamedTuple constructor keeps the entries in the order given
        assert BettiTable(3, Field.GF2, (((1, 1), 3), ((0, 0), 1))).reg_pd() == (0, 1, 1, 0)
        rng = random.Random(0)
        ideals = [ideal for n in range(1, 5) for ideal in antichain_ideals(n)]
        ideals += [complementary_edge_ideal(graph) for graph in atlas_graphs(3, 5)]
        for field in Field:
            for ideal in ideals:
                for table in (primal_engine(ideal, field), dual_engine(ideal, field)):
                    shuffled = list(table.entries)
                    rng.shuffle(shuffled)
                    for entries in (shuffled, table.entries[::-1]):
                        reordered = BettiTable(table.n, field, tuple(entries))
                        assert reordered.reg_pd() == two_max_reg_pd(table), table


def two_max_reg_pd(table: BettiTable) -> tuple[int, int, int, int]:
    """(reg, pd) of S/I and of I by the definition: the largest j - i and the largest i."""
    pd = max(i for (i, _), _ in table.entries)
    reg = max(j - i for (i, j), _ in table.entries)
    return reg, pd, reg + 1, pd - 1


def feasible_counts(n: int):
    """(m, met, joins, points) of every graph plus isolated facet vertices on n vertices.

    met vertices lie on the m edges, in c components of at least two vertices
    (joins = met - c), and points isolated facet vertices lie beside them; a
    dual complex has at least one facet.
    """
    for met in [0, *range(2, n + 1)]:
        for c in range(1, met // 2 + 1) if met else (0,):
            # one big component and c - 1 single edges carry the most edges
            most = comb(met - 2 * (c - 1), 2) + c - 1
            for m in range(met - c, most + 1):
                for points in range(0 if met else 1, n - met + 1):
                    yield m, met, met - c, points


class TestTableKeyOrder:
    """The count table is built in key order and reg_pd reads pd off the last key."""

    def test_count_table_equals_the_dict_table_on_every_feasible_count(self):
        checked = 0
        for n in range(3, 15):
            for m, met, joins, points in feasible_counts(n):
                for field in Field:
                    table = _count_betti(n, m, met, joins, points, field)
                    assert table == BettiTable.from_dict(n, field, {
                        (0, 0): 1, (1, n - 2): m, (1, n - 1): points, (2, n - 1): 2 * m - met,
                        (2, n): met + points - joins - 1, (3, n): m - joins}), (n, m, met, points)
                    assert table.reg_pd() == two_max_reg_pd(table)
                    checked += 1
        assert checked > 10 ** 4

    def test_every_engine_table_has_increasing_keys_and_the_two_max_reg_pd(
            self, oracle_sweep, forest_sweep):
        # the count table of _graph_oracle on the exhaustive fixtures, every
        # labeled graph to six and forest to seven (the field is only a tag
        # there); both engines on every ideal on at most four variables and
        # every atlas class to six, over both fields
        graphs = [record.graph for record in oracle_sweep[0]] + [row[0] for row in forest_sweep]
        tables = {_graph_oracle(graph, Field.GF2) for graph in graphs}
        ideals = [ideal for n in range(1, 5) for ideal in antichain_ideals(n)]
        ideals += [complementary_edge_ideal(graph) for graph in atlas_graphs(3, 6)]
        for field in Field:
            for ideal in ideals:
                tables |= {primal_engine(ideal, field), dual_engine(ideal, field)}
        for table in tables:
            keys = [ij for ij, _ in table.entries]
            assert all(a < b for a, b in zip(keys, keys[1:])), table
            assert table.reg_pd() == two_max_reg_pd(table), table

class TestRingPredicates:
    def test_cohen_macaulay_examples(self):
        assert is_cohen_macaulay(complementary_edge_ideal(complete_graph(4)))
        assert is_cohen_macaulay(complementary_edge_ideal(path_graph(4)))
        assert not is_cohen_macaulay(complementary_edge_ideal(cycle_graph(4)))
        assert not is_cohen_macaulay(complementary_edge_ideal(cycle_graph(5)))

    def test_linear_resolution_examples(self):
        assert has_linear_resolution(complementary_edge_ideal(complete_graph(4)))
        assert has_linear_resolution(complementary_edge_ideal(path_graph(4)))
        # cycle ideals reach regularity n-2 too
        assert has_linear_resolution(complementary_edge_ideal(cycle_graph(4)))
        # two disjoint triangles: equigenerated in degree 4, regularity 5
        two_triangles = SimpleGraph(6, ((1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)))
        assert not has_linear_resolution(complementary_edge_ideal(two_triangles))
        # mixed generation degrees never count as linear
        assert not has_linear_resolution(minimalize(3, [[1], [2, 3]]))

    def test_componentwise_linear_examples(self):
        assert is_componentwise_linear(complementary_edge_ideal(cycle_graph(4)))
        two_edges = complementary_edge_ideal(SimpleGraph(4, ((1, 2), (3, 4))))
        assert not is_componentwise_linear(two_edges)

    @staticmethod
    def every_component_linear(ideal: SquarefreeIdeal, field: Field) -> bool:
        """The Herzog-Hibi criterion walked over every degree up to n, with no early exit,
        on components built by brute force rather than by the chain."""
        return all(has_linear_resolution(brute_force_component(ideal, d), field)
                   for d in range(ideal.indeg, ideal.n + 1))

    @pytest.mark.parametrize("field", list(Field))
    def test_veronese_exit_agrees_with_every_degree_on_graph_duals(self, field):
        """The dual of I_c(G) for every graph G with an edge on 3..6 vertices, up to isomorphism.

        Both sides are invariant under relabeling the vertices, so one graph per
        isomorphism class (the networkx atlas) covers every labeled graph; the
        labeled sweep would walk 32,768 graphs on n = 6 alone.
        """
        graphs = atlas_graphs(3, 6)
        assert len(graphs) == 3 + 10 + 33 + 155
        for graph in graphs:
            dual = alexander_dual(complementary_edge_ideal(graph))
            assert is_componentwise_linear(dual, field) == self.every_component_linear(dual, field)

    @settings(max_examples=100)
    @given(ideals(8), st.sampled_from(list(Field)))
    def test_veronese_exit_agrees_with_every_degree(self, ideal: SquarefreeIdeal, field: Field):
        assert is_componentwise_linear(ideal, field) == self.every_component_linear(ideal, field)

    @pytest.mark.parametrize("n, count", [(1, 1), (2, 4), (3, 18), (4, 166)])
    def test_veronese_exit_agrees_with_every_degree_on_every_ideal_to_four(self, n, count):
        # the chain's components are read as masks, every_component_linear's
        # as ideals through has_linear_resolution
        every = antichain_ideals(n)
        assert len(every) == count
        for ideal in every:
            for field in Field:
                assert is_componentwise_linear(ideal, field) == (
                    self.every_component_linear(ideal, field)), ideal

    def test_the_oracle_limit_is_kept_below_the_veronese_exit(self):
        # 13 variables on 15: a component that is not all of its degree
        with pytest.raises(ValueError, match="^ambient size 15 exceeds the oracle limit of 14$"):
            is_componentwise_linear(minimalize(15, [[v] for v in range(1, 14)]))
        # every variable: the Veronese exit answers before any table
        assert is_componentwise_linear(minimalize(15, [[v] for v in range(1, 16)]))

    @pytest.mark.parametrize("n, count", [(1, 1), (2, 4), (3, 15), (4, 94), (5, 2109)])
    def test_one_degree_ideals_are_componentwise_linear_iff_linear(self, n, count):
        # Herzog-Hibi, Nagoya Math. J. 153 (1999): an ideal generated in one
        # degree is componentwise linear iff its resolution is linear, which
        # lets implication_suite read the dual's linear resolution off its
        # componentwise linearity; every nonempty set of d-subsets, every d
        every = []
        for d in range(1, n + 1):
            supports = [sum(1 << v for v in c) for c in combinations(range(n), d)]
            every += [SquarefreeIdeal(n, [g for k, g in enumerate(supports) if chosen >> k & 1])
                      for chosen in range(1, 1 << len(supports))]
        assert len(every) == count
        for ideal in every:
            for field in Field:
                assert is_componentwise_linear(ideal, field) == has_linear_resolution(
                    ideal, field), ideal

    def test_sequentially_cm_examples(self):
        two_edges = complementary_edge_ideal(SimpleGraph(4, ((1, 2), (3, 4))))
        assert is_sequentially_cm(two_edges)
        assert not has_linear_resolution(two_edges)
        assert not is_sequentially_cm(complementary_edge_ideal(cycle_graph(4)))

    def test_zero_ideal_guards(self):
        zero = SquarefreeIdeal(3, ())
        with pytest.raises(ValueError):
            has_linear_resolution(zero)
        with pytest.raises(ValueError):
            is_componentwise_linear(zero)

    @settings(max_examples=30)
    @given(st.integers(3, 5).flatmap(lambda n: st.lists(
        st.sampled_from(list(combinations(range(1, n + 1), 2))),
        unique=True, min_size=1).map(lambda e: SimpleGraph(n, tuple(e)))))
    def test_dual_has_linear_resolution_iff_primal_is_cm(self, graph: SimpleGraph):
        ideal = complementary_edge_ideal(graph)
        assert has_linear_resolution(alexander_dual(ideal)) == is_cohen_macaulay(ideal)
