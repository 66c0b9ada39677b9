"""Betti tables and the count-level oracle of complementary edge ideals.

This layer sits between graphs and the ideal and homology layers. It holds
the table type (BettiTable, with its regularity and projective dimension),
the coefficient field tag and the refusal of fewer than 3 vertices that the
ideal layer shares. It also holds the oracle of I_c(G) read off graph
counts, at any n: the edges, the vertices on an edge and the components
holding one. _count_betti gives the dual Hochster table of a dual complex
that is a graph plus isolated points; _graph_oracle gives that table of
I_c(G) for the betti command, and _count_invariants the height, reg and pd
it implies, which the invariants layer reads with no table built. No ideal,
mask or face is built here, and this module imports only graphs: the
invariants layer and the CLI's graph commands load neither the ideal layer,
whose ambient limit (ideals.AMBIENT_LIMIT) bounds its n-bit masks, nor the
homology engines, whose oracle limit (homology.ORACLE_LIMIT) they never
meet. homology and ideals import these names and keep them as their own
attributes.
"""
from __future__ import annotations

import enum
from math import comb
from typing import NamedTuple

from .graphs import SimpleGraph, _join_count


class Field(enum.Enum):
    """Coefficient field tag for homology ranks."""

    GF2 = "gf2"
    RATIONALS = "q"


class Homological(NamedTuple):
    reg_s_mod_i: int
    pd_s_mod_i: int
    reg_ideal: int
    pd_ideal: int


class BettiTable(NamedTuple):
    """Graded Betti numbers beta_(i,j) of S/I, sorted by key (homological index, degree)."""

    n: int
    field: Field
    entries: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def from_dict(n: int, field: Field, values: dict[tuple[int, int], int]) -> "BettiTable":
        items = tuple(sorted((ij, v) for ij, v in values.items() if v))
        return BettiTable(n, field, items)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)

    def value(self, i: int, j: int) -> int:
        return self.as_dict().get((i, j), 0)

    def reg_pd(self) -> Homological:
        """Regularity and projective dimension of S/I and of I: the largest j - i and the
        largest i (both at least 0, as j >= i >= 0), read in one pass over entries in any order."""
        if not self.entries:
            raise ValueError("empty Betti table")
        pd = reg = 0
        for (i, j), _ in self.entries:
            if i > pd:
                pd = i
            if j - i > reg:
                reg = j - i
        return Homological(reg, pd, reg + 1, pd - 1)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "field": self.field.value,
            "betti": [{"i": i, "j": j, "value": v} for (i, j), v in self.entries],
        }


def _require_edge_ambient(n: int) -> None:
    """Refuse n < 3, where an edge's complement support is empty: the unit ideal."""
    if n < 3:
        raise ValueError(f"degenerate ambient: need at least 3 vertices, got {n}")


def _graph_oracle(graph: SimpleGraph, field: Field) -> BettiTable:
    """The Betti table of I_c(G), read off the graph's counts at any n.

    The counts are graphs._join_count(graph.edges): the n' vertices on an
    edge and the n' - c' joins, for the c' components holding an edge. No
    ideal, mask or face is built, and no vertex is walked. Fewer than 3
    vertices are refused, then a graph with no edge (the zero ideal). The
    dual complex of I_c(G) is G itself: the empty face, the n' vertices and
    the m edges. The dual Hochster formula
    (Miller-Sturmfels, Combinatorial Commutative Algebra, Cor. 5.12) then
    gives beta_(1, n-2) = m, beta_(2, n-1) = 2m - n', beta_(2, n) = c' - 1
    and beta_(3, n) = m - n' + c', over every field: the table of
    _count_betti with no isolated facet vertex.
    """
    _require_edge_ambient(graph.n)
    if not graph.m:
        raise ValueError("Betti table undefined for the zero ideal")
    return _count_betti(graph.n, graph.m, *_join_count(graph.edges), 0, field)


def _count_invariants(n: int, m: int, met: int, joins: int) -> tuple[int, int, int]:
    """(height, reg(S/I), pd(S/I)) of I_c(G) for m >= 1 edges on n >= 3 vertices.

    met vertices lie on an edge and joins of the edges join two components
    (graphs._join_count), so c' = met - joins components hold an edge. pd
    and reg are the largest i and j - i among the nonzero entries of
    _count_betti(n, m, met, joins, 0, field), with no table built:
    beta_(3, n) = m - joins is nonzero iff G has a cycle; beta_(2, n-1) =
    2m - met iff two edges meet; beta_(2, n) = c' - 1 iff c' >= 2, and it is
    the one entry with j - i = n - 2; beta_(1, n-2) = m is never zero and
    has j - i = n - 3. The height is the least k with f_(k-1) < C(n, k) in
    the f-vector (1, met, m) of the dual complex, the rule of ideals.height:
    1 with an isolated vertex, else 2 unless G is complete, else 3.
    """
    return (1 if met < n else 2 if m < comb(n, 2) else 3, n - 2 if met - joins >= 2 else n - 3,
            3 if m > joins else 2 if 2 * m > met or met - joins >= 2 else 1)


def _count_betti(n: int, m: int, met: int, joins: int, points: int,
                 field: Field) -> BettiTable:
    """The dual Hochster table of a dual complex that is a graph plus isolated points.

    The graph has m edges on met vertices, of which joins join two
    components (graphs._join_count), beside points isolated facet vertices:
    the counts of homology._graph_betti, and of _graph_oracle with points = 0.
    Its keys are in order for every n.
    """
    entries = (((0, 0), 1), ((1, n - 2), m), ((1, n - 1), points), ((2, n - 1), 2 * m - met),
               ((2, n), met + points - joins - 1), ((3, n), m - joins))
    return BettiTable(n, field, tuple([e for e in entries if e[1]]))
