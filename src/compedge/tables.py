"""Betti tables and the count-level oracle of complementary edge ideals.

This layer sits between graphs and the ideal and homology layers. It holds
the table type (BettiTable, with its regularity and projective dimension),
the coefficient field tag, the ambient refusals the ideal layer shares
(AMBIENT_LIMIT) and the one limit of every Betti table (ORACLE_LIMIT). It
also holds the oracle of I_c(G) read off graph counts: _graph_oracle gives
the table and the height from the edges, the vertices on an edge and the
components holding one, through _count_betti, the dual Hochster table of a
dual complex that is a graph plus isolated points. No ideal, mask or face is
built here, and this module imports only graphs: the invariants layer and
the CLI's graph commands read every table of I_c(G) from it and load
neither the ideal layer nor the homology engines. homology and ideals
import these names and keep them as their own attributes.
"""
from __future__ import annotations

import enum
from math import comb
from typing import NamedTuple

from .graphs import SimpleGraph, _clip

AMBIENT_LIMIT = 24
ORACLE_LIMIT = 14


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
        """Regularity and projective dimension of S/I and of I; pd is the last key's i."""
        if not self.entries:
            raise ValueError("empty Betti table")
        pd = self.entries[-1][0][0]
        reg = max([j - i for (i, j), _ in self.entries])
        return Homological(reg, pd, reg + 1, pd - 1)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "field": self.field.value,
            "betti": [{"i": i, "j": j, "value": v} for (i, j), v in self.entries],
        }


def _outside_ambient(n: int) -> ValueError:
    return ValueError(f"ambient size {_clip(n)} outside supported range 0..{AMBIENT_LIMIT}")


def _require_edge_ambient(n: int) -> None:
    """Refuse n < 3, where an edge's complement support is empty: the unit ideal."""
    if n < 3:
        raise ValueError(f"degenerate ambient: need at least 3 vertices, got {n}")


def _require_oracle(n: int) -> None:
    """Refuse an ambient size past ORACLE_LIMIT, the one limit of every Betti table."""
    if n > ORACLE_LIMIT:
        raise ValueError(f"ambient size {_clip(n)} exceeds the oracle limit of {ORACLE_LIMIT}")


def _graph_oracle(graph: SimpleGraph, field: Field,
                  counts: tuple[int, int]) -> tuple[BettiTable, int]:
    """The Betti table and the height of I_c(G), read off the graph's counts.

    counts is graphs._join_count(graph.edges), which the caller runs once per
    question: the n' vertices on an edge and the n' - c' joins, for the c'
    components holding an edge. No ideal, mask or face is built. The
    refusals are those of hochster_betti(complementary_edge_ideal(graph)), in
    the same order: fewer than 3 vertices, more than AMBIENT_LIMIT, no edge
    (the zero ideal), more than ORACLE_LIMIT. The dual complex of I_c(G) is G
    itself: the empty face, the n' vertices and the m edges. The dual Hochster
    formula (Miller-Sturmfels, Combinatorial Commutative Algebra, Cor. 5.12)
    then gives beta_(1, n-2) = m, beta_(2, n-1) = 2m - n', beta_(2, n) =
    c' - 1 and beta_(3, n) = m - n' + c', over every field: the table of
    _count_betti with no isolated facet vertex. The height is the least k
    with f_(k-1) < C(n, k) in the f-vector (1, n', m), the rule of
    ideals.height: 1 with an isolated vertex, else 2 unless G is complete.
    """
    n = graph.n
    _require_edge_ambient(n)
    if n > AMBIENT_LIMIT:
        raise _outside_ambient(n)
    m = graph.m
    if not m:
        raise ValueError("Betti table undefined for the zero ideal")
    _require_oracle(n)
    met, joins = counts
    return _count_betti(n, m, met, joins, 0, field), 1 if met < n else 2 if m < comb(n, 2) else 3


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
