"""Squarefree monomial ideals, stored by generator bit masks.

A squarefree monomial in K[x_1..x_n] is identified with its support, a subset
of {1..n}, and a support with its bit mask (vertex i <-> bit i-1). An ideal is
a minimal antichain of masks stored in increasing mask order, so equal ideals
compare equal. SquarefreeIdeal's constructor is the one place that checks,
minimalizes and orders generators; every producer below hands it raw masks.
The frozenset supports (`gens`) are derived on demand in the canonical order
users see, lexicographic on the sorted index tuples. alexander_dual, the
cover search, is the one Alexander dual; complementary_edge_dual runs it on
I_c(G), whose covers the graph names by a rule that the tests check against
it. has_linear_quotients is a backtracking search for general ideals; the
implication suite builds no dual and runs no search, as chordality of G
settles the dual's linear quotients. A mask is n bits wide, so this layer,
and it alone, refuses an ambient size past AMBIENT_LIMIT (24); the graph
questions read I_c(G) off counts and meet no such limit.
"""
from __future__ import annotations

from itertools import islice
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

from .graphs import SimpleGraph, _clip, _Frozen, _iterate, _plain_int, _plain_ints
from .tables import _require_edge_ambient

# the widest ambient an n-bit generator mask may span
AMBIENT_LIMIT = 24
LINEAR_QUOTIENTS_BUDGET = 10 ** 6
# height reads the f-vector of the dual complex, the closure of the generator
# complements, up to this many faces, and past it runs the cover search; both
# give the same height, so the cap only picks the faster one
_DUAL_FACE_CAP = 4096


def _require_ambient(n: int) -> None:
    """Refuse an ambient size outside 0..AMBIENT_LIMIT, the one bound on the mask width."""
    if not 0 <= n <= AMBIENT_LIMIT:
        raise ValueError(f"ambient size {_clip(n)} outside supported range 0..{AMBIENT_LIMIT}")


def mask_of(support: Iterable[int]) -> int:
    """Bit mask of a support (vertex i <-> bit i-1).

    A label outside 1..AMBIENT_LIMIT lies in no ambient, so it gives -1, which
    every ambient refuses, in place of a mask that could be huge. Each label
    is read as a plain int (graphs._plain_int) as it comes, so a float or a
    string, or a support that is not iterable, is a ValueError that names it.
    """
    mask = 0
    for v in _iterate(support, "support labels"):
        v = _plain_int(v, "support label")
        if not 0 < v <= AMBIENT_LIMIT:
            return -1
        mask |= 1 << (v - 1)
    return mask


def support_of(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


class SquarefreeIdeal(_Frozen):
    """A squarefree monomial ideal in K[x_1..x_n], stored by generator bit masks.

    The constructor takes any iterable of masks and is the one generator check:
    it stores n and each mask as plain ints (graphs._plain_int and
    _plain_ints), refusing a float or a string and masks that are not
    iterable, refuses n outside 0..AMBIENT_LIMIT before reading a mask,
    refuses a zero mask (the unit ideal) and a mask outside 1..n, drops
    duplicate and redundant masks, and stores the minimal ones in increasing
    mask order. Ambient size 0 is accepted: its one ideal is the zero ideal.
    """

    __slots__ = ("n", "masks")

    def __init__(self, n: int, masks: Iterable[int]):
        n = _plain_int(n, "ambient size")
        _require_ambient(n)
        masks = _plain_ints(masks, "generator mask")
        if 0 in masks:
            raise ValueError("unit ideal: a generator has empty support")
        if masks and (min(masks) < 0 or max(masks) >> n):
            raise ValueError(f"a generator is out of ambient range 1..{n}")
        # masks of one degree form an antichain: nothing to filter
        if len({m.bit_count() for m in masks}) > 1:
            masks = _minimal_masks(masks)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", tuple(sorted(masks)))

    @property
    def gens(self) -> tuple[frozenset[int], ...]:
        """The generator supports, lexicographic on the sorted index tuples."""
        return tuple(sorted(map(support_of, self.masks), key=sorted))

    @property
    def is_zero(self) -> bool:
        return not self.masks

    @property
    def indeg(self) -> int:
        """Smallest generator degree (initial degree)."""
        if self.is_zero:
            raise ValueError("the zero ideal has no initial degree")
        return min(m.bit_count() for m in self.masks)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(m.bit_count() for m in self.masks))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "generators": [sorted(g) for g in self.gens]}


def _minimal_masks(masks: Iterable[int]) -> list[int]:
    """Inclusion-minimal masks: by size, each kept unless it contains a kept one."""
    kept: list[int] = []
    for c in sorted(masks, key=int.bit_count):
        if not any(d & c == d for d in kept):
            kept.append(c)
    return kept


def minimalize(n: int, supports: Iterable[Iterable[int]]) -> SquarefreeIdeal:
    """The ideal generated by the given supports; the constructor drops redundant ones."""
    return SquarefreeIdeal(n, [mask_of(s) for s in _iterate(supports, "supports")])


def complementary_edge_ideal(graph: SimpleGraph) -> SquarefreeIdeal:
    """The ideal with one generator per edge {i,j}: support {1..n} minus {i,j}.

    Every generator has degree n-2. An edgeless graph yields the zero ideal.
    The masks are lazy, so an n past AMBIENT_LIMIT is refused before 2^n is built.
    """
    n = graph.n
    _require_edge_ambient(n)
    return SquarefreeIdeal(n, (((1 << n) - 1) ^ (1 << (u - 1)) ^ (1 << (v - 1))
                               for u, v in graph.edges))


def complementary_edge_dual(graph: SimpleGraph) -> SquarefreeIdeal:
    """The Alexander dual of complementary_edge_ideal(graph), by the cover search.

    A set meets every generator support V - {u, v} exactly when it lies inside
    no edge, so the minimal covers are {v} for each isolated vertex, {u, v}
    for each non-edge whose ends both carry an edge, and {u, v, w} for each
    triangle; the tests check this cover rule against the search. The
    refusals are those of complementary_edge_ideal, then alexander_dual's
    for the zero ideal of an edgeless graph.
    """
    return alexander_dual(complementary_edge_ideal(graph))


def alexander_dual(ideal: SquarefreeIdeal) -> SquarefreeIdeal:
    """The ideal generated by the minimal vertex covers; an involution.

    The covers are the inclusion-minimal transversals of the generator
    supports, i.e. the supports of the minimal primes of the ideal.
    """
    if ideal.is_zero:
        raise ValueError("no associated primes computed for zero ideal")
    found: set[int] = set()

    def extend(chosen: int, remaining: Sequence[int]) -> None:
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

    extend(0, ideal.masks)
    return SquarefreeIdeal(ideal.n, found)


def minimal_vertex_covers(ideal: SquarefreeIdeal) -> tuple[frozenset[int], ...]:
    """Inclusion-minimal transversals of the generator supports, canonically ordered.

    These are exactly the supports of the minimal primes of the ideal.
    """
    return alexander_dual(ideal).gens


def _closure(tops: Iterable[int], max_faces: int) -> set[int] | None:
    """The empty face and every subset of the given masks, or None past max_faces faces."""
    faces = {0}
    for top in tops:
        # a top alone has 2^|top| subsets
        if 1 << top.bit_count() > max_faces:
            return None
        sub = top
        while sub:
            faces.add(sub)
            sub = (sub - 1) & top
        if len(faces) > max_faces:
            return None
    return faces


def height(ideal: SquarefreeIdeal) -> int:
    """Smallest size of a minimal vertex cover, i.e. the codimension.

    The covers are the nonfaces of the Alexander dual complex, the closure of
    the generator complements (Miller-Sturmfels, Combinatorial Commutative
    Algebra, Ch. 1 and 5). That complex is closed downward, so the smallest
    cover has the least size k at which it lacks a k-subset: the least k with
    f_(k-1) < C(n, k) in its f-vector. Past _DUAL_FACE_CAP dual faces the
    cover search of alexander_dual answers instead.
    """
    if ideal.is_zero:
        raise ValueError("no associated primes computed for zero ideal")
    n = ideal.n
    faces = _closure([((1 << n) - 1) & ~g for g in ideal.masks], _DUAL_FACE_CAP)
    if faces is None:
        return alexander_dual(ideal).indeg
    f_vector = [0] * (n + 1)
    for f in faces:
        f_vector[f.bit_count()] += 1
    # the full set is no face (no generator is empty), so some k <= n qualifies
    return next(k for k in range(n + 1) if f_vector[k] < comb(n, k))


class QuotientSearchResult(NamedTuple):
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
    yields "inconclusive". Each degree class is walked in stored mask order,
    so the witness is the first admissible ordering in that order. The walk
    keeps its own stack, one frame per generator chosen, so an ideal with
    thousands of generators needs no deeper Python recursion.
    """
    if ideal.is_zero:
        raise ValueError("linear quotients undefined for the zero ideal")
    chosen: list[int] = []
    nodes = 0
    # a frame holds the generators left after its choices and the index of its
    # next candidate; a stable sort keeps the stored mask order in a degree
    stack = [[sorted(ideal.masks, key=int.bit_count), 0]]
    while stack[-1][0]:
        frame = stack[-1]
        remaining, k = frame
        # the candidates are the prefix of least degree
        if k == len(remaining) or remaining[k].bit_count() != remaining[0].bit_count():
            stack.pop()
            if not stack:
                return QuotientSearchResult("no", None, nodes)
            chosen.pop()
            continue
        frame[1] = k + 1
        nodes += 1
        if nodes > LINEAR_QUOTIENTS_BUDGET:
            return QuotientSearchResult("inconclusive", None, nodes)
        # every earlier generator's difference must contain a singleton
        # difference, i.e. meet the union of the singleton differences
        outside = ~remaining[k]
        singles = 0
        for c in chosen:
            d = c & outside
            if not d & (d - 1):
                singles |= d
        if all(c & outside & singles for c in chosen):
            chosen.append(remaining[k])
            stack.append([remaining[:k] + remaining[k + 1:], 0])
    return QuotientSearchResult("yes", tuple(map(support_of, chosen)), nodes)


def squarefree_component(ideal: SquarefreeIdeal, d: int) -> SquarefreeIdeal:
    """The ideal generated by the squarefree degree-d monomials inside the ideal.

    These are the degree-d supersets of generators of degree <= d; the result
    may be the zero ideal. It is read off the chain of _squarefree_components.
    """
    d = _plain_int(d, "degree")
    if d < 0 or d > ideal.n:
        raise ValueError(f"degree {d} outside 0..{ideal.n}")
    return SquarefreeIdeal(ideal.n, next(islice(_squarefree_components(ideal), d, None)))


def _squarefree_components(ideal: SquarefreeIdeal) -> Iterator[set[int]]:
    """The masks of the degree-d squarefree component for d = 0, 1, ..., n, as one chain.

    The degree-(d+1) component is {c + v : c in the degree-d one, v not in c}
    together with the generators of degree d + 1, so each component grows from
    the one below it; a component below the initial degree is empty.
    """
    n = ideal.n
    by_degree: list[list[int]] = [[] for _ in range(n + 1)]
    for g in ideal.masks:
        by_degree[g.bit_count()].append(g)
    variables = [1 << i for i in range(n)]
    component: set[int] = set()
    for d in range(n + 1):
        component = {c | x for x in variables for c in component if not c & x}
        component.update(by_degree[d])
        yield component
