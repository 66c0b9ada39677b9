"""Squarefree monomial ideals, stored by generator supports.

A squarefree monomial in K[x_1..x_n] is identified with its support, a subset
of {1..n}. An ideal is a minimal antichain of supports in a fixed canonical
order (lexicographic on the sorted index tuples). Hot paths work on integer
bit masks (vertex i <-> bit i-1); the ambient guard keeps that honest.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .graphs import SimpleGraph

AMBIENT_LIMIT = 24
LINEAR_QUOTIENTS_BUDGET = 10 ** 6


class UnitIdeal:
    """Distinguished result for colon ideals that contain 1."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UnitIdeal()"


UNIT = UnitIdeal()


def mask_of(support: Iterable[int]) -> int:
    mask = 0
    for v in support:
        mask |= 1 << (v - 1)
    return mask


def support_of(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def _canonical(gens: Iterable[frozenset[int]]) -> tuple[frozenset[int], ...]:
    return tuple(sorted(set(gens), key=lambda g: tuple(sorted(g))))


@dataclass(frozen=True)
class SquarefreeIdeal:
    """A squarefree monomial ideal given by its minimal generating supports."""

    n: int
    gens: tuple[frozenset[int], ...]

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def indeg(self) -> int:
        """Smallest generator degree (initial degree)."""
        if self.is_zero:
            raise ValueError("the zero ideal has no initial degree")
        return min(len(g) for g in self.gens)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(len(g) for g in self.gens))

    def generator_masks(self) -> list[int]:
        return [mask_of(g) for g in self.gens]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "generators": [sorted(g) for g in self.gens]}


def _check_ambient(n: int) -> None:
    if n < 0 or n > AMBIENT_LIMIT:
        raise ValueError(f"ambient size {n} outside supported range 0..{AMBIENT_LIMIT}")


def _minimal_masks(masks: Iterable[int]) -> list[int]:
    """Inclusion-minimal masks, each once: by size, each kept unless it contains a kept one."""
    kept: list[int] = []
    for c in sorted(set(masks), key=int.bit_count):
        if not any(d & c == d for d in kept):
            kept.append(c)
    return kept


def minimalize(n: int, supports: Iterable[Iterable[int]]) -> SquarefreeIdeal:
    """Build the ideal generated by the given supports, discarding redundant ones.

    A support containing another is dropped. The empty support would make the
    ideal the unit ideal, which is rejected.
    """
    _check_ambient(n)
    masks = []
    for s in supports:
        fs = frozenset(s)
        if not fs:
            raise ValueError("unit ideal: a generator has empty support")
        if any(v < 1 or v > n for v in fs):
            raise ValueError(f"support {sorted(fs)} out of ambient range 1..{n}")
        masks.append(mask_of(fs))
    return SquarefreeIdeal(n, _canonical(support_of(c) for c in _minimal_masks(masks)))


def complementary_edge_ideal(graph: SimpleGraph) -> SquarefreeIdeal:
    """The ideal with one generator per edge {i,j}: support {1..n} minus {i,j}.

    Every generator has degree n-2. An edgeless graph yields the zero ideal.
    The supports are distinct and of one size, so they are already minimal.
    """
    if graph.n < 3:
        raise ValueError(f"degenerate ambient: need at least 3 vertices, got {graph.n}")
    if not graph.edges:
        return SquarefreeIdeal(graph.n, ())
    _check_ambient(graph.n)
    everything = frozenset(graph.vertices())
    return SquarefreeIdeal(graph.n, _canonical(everything - {u, v} for u, v in graph.edges))


def minimal_vertex_covers(ideal: SquarefreeIdeal) -> tuple[frozenset[int], ...]:
    """Inclusion-minimal transversals of the generator supports, canonically ordered.

    These are exactly the supports of the minimal primes of the ideal.
    """
    if ideal.is_zero:
        raise ValueError("no associated primes computed for zero ideal")
    gen_masks = ideal.generator_masks()
    found: set[int] = set()

    def extend(chosen: int, remaining: list[int]) -> None:
        if not remaining:
            found.add(chosen)
            return
        first = remaining[0]
        bits = first
        while bits:
            low = bits & -bits
            bits ^= low
            nxt = chosen | low
            rest = [g for g in remaining[1:] if g & nxt == 0]
            extend(nxt, rest)

    extend(0, gen_masks)
    return _canonical(support_of(c) for c in _minimal_masks(found))


def height(ideal: SquarefreeIdeal) -> int:
    """Smallest size of a minimal vertex cover, i.e. the codimension."""
    return min(len(c) for c in minimal_vertex_covers(ideal))


def alexander_dual(ideal: SquarefreeIdeal) -> SquarefreeIdeal:
    """The ideal generated by the minimal vertex covers; an involution."""
    return SquarefreeIdeal(ideal.n, minimal_vertex_covers(ideal))


def colon_by_monomial(ideal: SquarefreeIdeal, monomial: Iterable[int]) -> SquarefreeIdeal | UnitIdeal:
    """I : m for a squarefree monomial m, given by its support.

    Each generator support loses the variables of m; an empty result means the
    colon contains 1 and the distinguished unit marker is returned.
    """
    if ideal.is_zero:
        return SquarefreeIdeal(ideal.n, ())
    m = frozenset(monomial)
    if any(v < 1 or v > ideal.n for v in m):
        raise ValueError(f"monomial support {sorted(m)} out of ambient range 1..{ideal.n}")
    quotients = [g - m for g in ideal.gens]
    if any(not q for q in quotients):
        return UNIT
    return minimalize(ideal.n, quotients)


@dataclass(frozen=True)
class QuotientSearchResult:
    """Outcome of the linear-quotients search.

    status is "yes" (with a witness ordering), "no" (search space exhausted),
    or "inconclusive" (node budget hit first).
    """

    status: str
    ordering: tuple[frozenset[int], ...] | None = None
    nodes: int = 0


def has_linear_quotients(ideal: SquarefreeIdeal) -> QuotientSearchResult:
    """Search for a linear-quotients ordering of the generators.

    Only degree-nondecreasing orderings are tried (a necessary shape for such
    an ordering), i.e. permutations within each degree class. The search is
    backtracking with a budget of LINEAR_QUOTIENTS_BUDGET nodes; exceeding it
    yields "inconclusive".
    """
    if ideal.is_zero:
        raise ValueError("linear quotients undefined for the zero ideal")
    masks = ideal.generator_masks()
    order_all = sorted(range(len(masks)), key=lambda i: (masks[i].bit_count(), masks[i]))
    by_degree: list[list[int]] = []
    for idx in order_all:
        d = masks[idx].bit_count()
        if by_degree and masks[by_degree[-1][0]].bit_count() == d:
            by_degree[-1].append(idx)
        else:
            by_degree.append([idx])

    chosen: list[int] = []
    nodes = 0

    def admissible(j: int) -> bool:
        # every earlier generator's difference must contain a singleton difference
        gj = masks[j]
        diffs = [masks[i] & ~gj for i in chosen]
        singles = [d for d in diffs if d.bit_count() == 1]
        for d in diffs:
            if d.bit_count() == 1:
                continue
            if not any(s & d for s in singles):
                return False
        return True

    def search(group: int, remaining: frozenset[int]) -> tuple[frozenset[int], ...] | None:
        nonlocal nodes
        if not remaining:
            if group + 1 == len(by_degree):
                return tuple(ideal.gens[i] for i in chosen)
            return search(group + 1, frozenset(by_degree[group + 1]))
        for j in sorted(remaining):
            nodes += 1
            if nodes > LINEAR_QUOTIENTS_BUDGET:
                raise _BudgetExceeded
            if not admissible(j):
                continue
            chosen.append(j)
            result = search(group, remaining - {j})
            if result is not None:
                return result
            chosen.pop()
        return None

    try:
        witness = search(0, frozenset(by_degree[0]))
    except _BudgetExceeded:
        return QuotientSearchResult("inconclusive", None, nodes)
    if witness is not None:
        return QuotientSearchResult("yes", witness, nodes)
    return QuotientSearchResult("no", None, nodes)


class _BudgetExceeded(Exception):
    pass


def squarefree_component(ideal: SquarefreeIdeal, d: int) -> SquarefreeIdeal:
    """The ideal generated by the squarefree degree-d monomials inside the ideal.

    These are the degree-d supersets of generators of degree <= d; the result
    may be the zero ideal.
    """
    if d < 0 or d > ideal.n:
        raise ValueError(f"degree {d} outside 0..{ideal.n}")
    ground = range(1, ideal.n + 1)
    out: set[frozenset[int]] = set()
    for g in ideal.gens:
        if len(g) > d:
            continue
        others = [v for v in ground if v not in g]
        for extra in combinations(others, d - len(g)):
            out.add(g | frozenset(extra))
    return SquarefreeIdeal(ideal.n, _canonical(out))
