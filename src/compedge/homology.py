"""Exact reduced simplicial homology and graded Betti numbers of squarefree ideals.

The Betti oracle has two engines and two cases read off counts, with one
result. The primal engine is Hochster's formula: the multidegree-sigma Betti
number of S/I in homological position i is dim of reduced H_(|sigma|-i-1) of
the Stanley-Reisner complex restricted to sigma. One table of 2^n entries
holds, for every subset, the union of the generators inside it; only the
sigma equal to their entry, the lcm lattice, are restricted to, since any
other restriction is a cone; each one filters the face list, one at a time.
The dual engine reads the same numbers from the Alexander dual complex,
whose faces are the complements of the nonfaces: position i of multidegree
sigma is dim of reduced H_(i-2) of the link of sigma's complement. It visits
one link per dual face. hochster_betti runs the engine with less work to do,
comparing the squared dual face count with a bound on the primal
restrictions (see its docstring); the dual complex is listed only up to
ideals._DUAL_FACE_CAP faces, the cap height uses too. The table
aggregates multidegrees by cardinality either way. The complex {emptyset}
has reduced H_(-1) = K, which makes the links of the dual facets count the
generators.

Two cases take neither engine, and read the table off counts with no face
list and no link. Generators all of degree at least n - 2 have a dual
complex of dimension at most 1. For a complementary edge ideal it is the
graph itself (the empty face, the n' vertices on an edge,
the m edges), and every link is {emptyset}, a set of points or that graph,
so the dual formula is read off vertex degrees, edge counts and the
components (_graph_betti). Generators all of degree at most 2 whose
Stanley-Reisner complex is a forest, the dual of I_c(F) for a forest F
among them, have forests as every restriction, so the primal formula is
read off vertex and edge counts (_forest_betti). So do ideals generated by
variables alone: their complex is a full simplex, every nonempty restriction
is a cone, and the table is the Koszul diagonal.

A complementary edge ideal I_c(G) needs no ideal at all. tables._graph_oracle
reads its table and its height off the graph's counts: the edges, and the
vertices on an edge and the components holding one, which its caller counts
once (graphs._join_count). The invariants layer and the betti command ask
it, never build I_c(G) and never load this module. The table type
(BettiTable), the field tag and ORACLE_LIMIT live in tables too, and are
attributes of this module as well.

Nothing is memoised. The exhaustive sweeps repeat small tables, but with
every complementary edge ideal, every forest dual and every ideal of
variables read off counts, a verify round sends no table to an engine.
clear_homology_cache() is kept as a no-op for callers that clear before
timing.

All ranks are exact. The two lowest boundary maps need no elimination: the
augmentation map from vertices onto K has rank 1 once a vertex exists, and
the map from edges to vertices is the incidence matrix of the 1-skeleton,
whose rank over every field is the number of vertices less the number of
components: the edges joining two components, counted by graphs._join_count
as in _graph_betti. Higher maps are eliminated with pivots keyed by lowest
column: over GF(2) on bit-packed rows with XOR, over the rationals on sparse
integer rows, fraction-free with gcd reduction; torsion first shows there, as
in the projective plane. No floating point anywhere.

The resolution-shape predicates read these tables. is_componentwise_linear
reads the regularity of each squarefree component in turn off its table,
routed from the component's masks (_mask_betti, the routing hochster_betti
uses) with no ideal built, and builds the components as one chain: the
degree-(d+1) component is the degree-d one times every variable, plus the
generators of degree d + 1. The implication suite asks for no table of
the dual of I_c(G), builds no dual and runs no quotient search: the graph
names the dual's components, and only the one in degree 2 can fail to be
linear, exactly when G is not chordal, which the suite reads off the graph
(graphs._is_chordal); chordality settles the dual's linear quotients too.
On that dual, is_componentwise_linear is the suite's slow leg in the tests;
it and ideals.has_linear_quotients serve general ideals.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import comb, gcd
from typing import Collection, Iterable

from .graphs import _clip, _join_count
from .ideals import (_DUAL_FACE_CAP, SquarefreeIdeal, _closure, _squarefree_components,
                     alexander_dual, height, support_of)
# the count-level oracle and the table type live in tables; Field, BettiTable,
# ORACLE_LIMIT, parse_field and _graph_oracle stay attributes of this module too
from .tables import (ORACLE_LIMIT, BettiTable, Field, Homological, _count_betti,
                     _graph_oracle, _require_oracle, parse_field)


@dataclass(frozen=True)
class SimplicialComplex:
    """A simplicial complex on ground set {1..n}, faces stored as bit masks.

    The void complex (no faces at all) is distinct from the complex whose only
    face is the empty set (mask 0). The constructor refuses a negative n, a
    face outside 1..n and a family that is not downward closed.
    """

    n: int
    faces: frozenset[int]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"ground size must be nonnegative, got {_clip(self.n)}")
        for f in self.faces:
            if f < 0 or f >> self.n:
                raise ValueError(f"face mask {f} out of ground range 1..{self.n}")
            # closed under dropping one vertex means closed under every subset
            bits = f
            while bits:
                low = bits & -bits
                bits ^= low
                if f ^ low not in self.faces:
                    raise ValueError(f"not downward closed: face {sorted(support_of(f))} "
                                     f"lacks {sorted(support_of(f ^ low))}")

    @property
    def is_void(self) -> bool:
        return not self.faces

    @property
    def dimension(self) -> int:
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return max(f.bit_count() for f in self.faces) - 1

    def face_sets(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(support_of(f))) for f in self.faces)


def simplicial_complex(n: int, facets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Downward closure of the given facets (always includes the empty face)."""
    tops = []
    for facet in map(set, facets):
        # labels first: a huge one would make a huge mask
        if not all(0 < v <= n for v in facet):
            raise ValueError(f"facet {sorted(facet)} out of ground range 1..{n}")
        tops.append(sum(1 << (v - 1) for v in facet))
    # a cap the closure cannot pass, sized by the facets and not by n
    return SimplicialComplex(n, frozenset(_closure(tops, sum(1 << t.bit_count() for t in tops))))


def stanley_reisner(ideal: SquarefreeIdeal) -> SimplicialComplex:
    """Faces are the subsets of {1..n} containing no generator support."""
    if ideal.is_zero:
        raise ValueError("Stanley-Reisner complex undefined for the zero ideal")
    _require_oracle(ideal.n)
    union = _union_table(ideal)
    return SimplicialComplex(ideal.n, frozenset(s for s, u in enumerate(union) if not u))


def _union_table(ideal: SquarefreeIdeal) -> list[int]:
    """union[s] is the OR of the generators inside s: 0 exactly on the faces."""
    n = ideal.n
    full = (1 << n) - 1
    union = [0] * (1 << n)
    for g in ideal.masks:
        rest = full & ~g
        sub = rest
        while True:
            union[g | sub] |= g
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return union


def _gf2_rank(rows: list[int]) -> int:
    """Rank of a GF(2) matrix whose rows are bit masks (XOR basis)."""
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            low = r & -r
            p = pivots.get(low)
            if p is None:
                pivots[low] = r
                break
            r ^= p
    return len(pivots)


def _rational_rank(rows: list[dict[int, int]]) -> int:
    """Rank over Q of sparse integer rows {column: value}, without fractions.

    Same scheme as _gf2_rank: pivots are keyed by lowest column, and a row
    meeting a pivot p at its lowest column becomes a*r - b*p (a = p[low],
    b = r[low]), divided by the gcd of its entries to keep them small.
    """
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        while r:
            low = min(r)
            p = pivots.get(low)
            if p is None:
                pivots[low] = r
                break
            a, b = p[low], r[low]
            r = {c: v for c in r.keys() | p.keys() if (v := a * r.get(c, 0) - b * p.get(c, 0))}
            g = gcd(*r.values())
            if g > 1:
                r = {c: v // g for c, v in r.items()}
    return len(pivots)


def _homology(faces: Iterable[int], field: Field) -> tuple[int, ...]:
    """Reduced homology dims of a nonvoid downward-closed family of face masks.

    Index 0 of the result is dimension -1 of the reduced chain complex.
    """
    faces_by_size: list[list[int]] = [[]]
    for f in faces:
        k = f.bit_count()
        while len(faces_by_size) <= k:
            faces_by_size.append([])
        faces_by_size[k].append(f)
    top = len(faces_by_size) - 1
    sizes = [len(fs) for fs in faces_by_size]
    ranks = [0] * (top + 2)
    # the augmentation map sends every vertex to 1, so it is onto once one exists
    if top >= 1:
        ranks[1] = 1
    if top >= 2:
        # the vertex labels of each edge, so no lookup hashes a long mask
        ranks[2] = _join_count([((e & -e).bit_length(), e.bit_length())
                                for e in faces_by_size[2]])[1]
    for s in range(3, top + 1):
        cols = faces_by_size[s]
        below = faces_by_size[s - 1]
        row_index = {f: i for i, f in enumerate(below)}
        if field is Field.GF2:
            rows = [0] * len(below)
            for j, f in enumerate(cols):
                bits = f
                while bits:
                    low = bits & -bits
                    bits ^= low
                    rows[row_index[f ^ low]] |= 1 << j
            ranks[s] = _gf2_rank(rows)
        else:
            sparse: list[dict[int, int]] = [{} for _ in below]
            for j, f in enumerate(cols):
                bits = f
                sign = 1
                while bits:
                    low = bits & -bits
                    bits ^= low
                    sparse[row_index[f ^ low]][j] = sign
                    sign = -sign
            ranks[s] = _rational_rank(sparse)
    return tuple(sizes[s] - ranks[s] - ranks[s + 1] for s in range(top + 1))


def reduced_homology_dims(complex_: SimplicialComplex, field: Field = Field.GF2) -> list[int]:
    """Dims of reduced homology, listed from dimension -1 upward.

    The void complex has no homology at all and yields the empty list; the
    complex {emptyset} yields [1].
    """
    if complex_.is_void:
        return []
    return list(_homology(complex_.faces, field))


def reg_pd(table: BettiTable) -> Homological:
    """Regularity and projective dimension of S/I and of I from one table (BettiTable.reg_pd)."""
    return table.reg_pd()


def clear_homology_cache() -> None:
    """Does nothing: the oracle keeps no memo. Kept for callers that clear before timing."""


def hochster_betti(ideal: SquarefreeIdeal, field: Field = Field.GF2) -> BettiTable:
    """Graded Betti numbers of S/I over the chosen field, degree by multidegree.

    After the checks below, the table is routed from the generator masks
    (_mask_betti), the one routing is_componentwise_linear also takes.
    Generators all of degree at least n - 2, every complementary edge ideal
    among them, have a dual complex of dimension at most 1: a graph, whose
    links are read off counts (_graph_betti). Generators all of degree at
    most 2 whose Stanley-Reisner complex is a forest, and ideals generated by
    variables alone, whose table is the Koszul diagonal, have restrictions
    read off counts too (_forest_betti). Otherwise two engines compute the
    same table. The primal one sums the homology of the Stanley-Reisner
    complex restricted to each sigma of the lcm lattice (the unions of
    generators; every other restriction is a cone), found in one table of
    2^n entries. The dual one
    reads the table from the links of the faces of the Alexander dual
    complex; it collects them by subset inversion, which costs sum over dual
    faces f of 2^|f| (at most 4F for the F faces of a graph). Its faces tau
    are the complements of the nonfaces sigma, so P = sum over tau of
    2^(n - |tau|) is the sum over nonfaces of 2^|sigma|: an upper bound on
    the faces the primal restrictions hold, since every lattice sigma but the
    empty one is a nonface with at most 2^|sigma| faces inside it. The rule:
    the dual engine runs when F^2 <= 3 * P, the primal one otherwise. The
    dual faces are enumerated only up to ideals._DUAL_FACE_CAP (4,096), the
    cap height uses; past it the primal engine runs. The cap never moves the
    choice: P <= 3^n, so the rule already refuses every F above
    isqrt(3^(n+1)), which is at most 3,787 for n <= 14. Ambient sizes above
    ORACLE_LIMIT (14) are refused. Nothing is memoised: a repeated table is
    computed again.
    """
    if ideal.is_zero:
        raise ValueError("Betti table undefined for the zero ideal")
    _require_oracle(ideal.n)
    return _mask_betti(ideal.n, ideal.masks, ideal.indeg, field)


def _mask_betti(n: int, masks: Collection[int], indeg: int, field: Field) -> BettiTable:
    """The table of the ideal with these minimal generators, of least degree indeg.

    The one routing of hochster_betti, with no ideal to build: _graph_betti,
    then _forest_betti, then the engine rule. Only the primal engine needs a
    SquarefreeIdeal, and only it gets one.
    """
    if indeg >= n - 2:
        return _graph_betti(n, masks, field)
    table = _forest_betti(n, masks, field)
    if table is not None:
        return table
    full = (1 << n) - 1
    faces = _closure([full & ~g for g in masks], _DUAL_FACE_CAP)
    if faces is None or len(faces) ** 2 > 3 * sum(1 << (n - tau.bit_count()) for tau in faces):
        return _primal_betti(SquarefreeIdeal(n, masks), field)
    return _dual_betti(n, faces, field)


def _primal_betti(ideal: SquarefreeIdeal, field: Field) -> BettiTable:
    """Hochster's formula: beta_(i,sigma) = dim H~_(|sigma|-i-1) of the restriction to sigma.

    Only sigma in the lcm lattice, the unions of generators, can carry
    homology: any other sigma has a vertex in no generator inside sigma, and
    the restriction is a cone on that vertex (Gasharov-Peeva-Welker, The
    lcm-lattice in monomial resolutions, 1999). The faces are listed once, in
    increasing mask order, and each lattice sigma filters them to its
    restriction, summed and dropped before the next, so one restriction is
    held at a time. A face inside sigma is no greater than sigma as a mask,
    so only the prefix up to sigma is filtered.
    """
    n = ideal.n
    union = _union_table(ideal)
    faces = [f for f, u in enumerate(union) if not u]
    entries: dict[tuple[int, int], int] = {}
    for sigma, u in enumerate(union):
        if u != sigma:
            continue
        inside = faces[:bisect_right(faces, sigma)]
        dims = _homology([f for f in inside if f & ~sigma == 0], field)
        ssize = sigma.bit_count()
        for k, h in enumerate(dims):
            if h:
                i = ssize - k
                entries[(i, ssize)] = entries.get((i, ssize), 0) + h
    return BettiTable.from_dict(n, field, entries)


def _dual_betti(n: int, faces: Iterable[int], field: Field) -> BettiTable:
    """Dual Hochster formula: beta_(i,sigma) = dim H~_(i-2) of the link of sigma's complement.

    The link of tau in the dual complex is {f - tau : f a face containing
    tau}; only faces tau contribute, with sigma = tau's complement
    (Miller-Sturmfels, Combinatorial Commutative Algebra, Cor. 5.12). Each
    face f adds f - tau to the link of every tau inside it: sum of 2^|f| steps
    in place of a scan of all faces per face.
    """
    links: dict[int, list[int]] = {tau: [] for tau in faces}
    for f in links:
        tau = f
        while True:
            links[tau].append(f ^ tau)
            if not tau:
                break
            tau = (tau - 1) & f
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for tau, link in links.items():
        dims = _homology(link, field)
        j = n - tau.bit_count()
        for k, h in enumerate(dims):
            if h:
                entries[(k + 1, j)] = entries.get((k + 1, j), 0) + h
    return BettiTable.from_dict(n, field, entries)


def _graph_betti(n: int, masks: Iterable[int], field: Field) -> BettiTable:
    """The dual Hochster formula of _dual_betti on a dual complex of dimension at most 1.

    The generators (an antichain) all have degree at least n - 2, so their
    complements, the facets of the dual complex, have at most two vertices:
    the complex is a graph plus isolated facet vertices, or {emptyset} for
    the lone generator of degree n. Every link is read off counts. A facet's
    link is {emptyset}, 1 to beta_(1, n - |facet|). A vertex v on an edge has
    its neighbours as link, deg(v) - 1 to beta_(2, n-1). The empty face, when
    no facet, has the whole complex as link: with n' vertices on m edges, p
    isolated facet vertices and r edges joining two components
    (graphs._join_count), c = n' + p - r components give c - 1 to
    beta_(2, n) and m - r to beta_(3, n). A graph has no torsion, so the
    table is the same over every field.
    """
    full = (1 << n) - 1
    edges: list[tuple[int, int]] = []
    points = 0
    for g in masks:
        tau = full ^ g
        if tau.bit_count() == 2:
            edges.append(((tau & -tau).bit_length(), tau.bit_length()))
        elif tau:
            points += 1
        else:
            return BettiTable(n, field, (((0, 0), 1), ((1, n), 1)))
    met, joins = _join_count(edges)
    return _count_betti(n, len(edges), met, joins, points, field)


def _forest_betti(n: int, masks: Iterable[int], field: Field) -> BettiTable | None:
    """Hochster's formula of _primal_betti on a Stanley-Reisner complex that is a forest.

    With generators all of degree at most 2, D of them variables, the
    complex is the clique complex of the graph Gamma whose vertices are the
    V = n - D other variables and whose edges are the M pairs among them that
    are not generators. If a generator has degree 3 or more this returns
    None. Every restriction to a sigma holding no vertex is {emptyset}, with
    H~_(-1) = 1: the D-sets give beta_(j,j) = C(D, j). With no degree-2
    generator the complex is the full simplex on the V vertices and every
    other restriction is a cone, so that Koszul diagonal is the table. Else,
    if Gamma has a cycle (graphs._join_count), this returns None. Otherwise
    Gamma is a forest, its own clique complex, and so is every restriction,
    whose homology is a count: H~_0 = v' - m' - 1 for its v' vertices and m'
    edges. Summed over the C(n, j) - C(D, j) sets sigma of size j that hold a
    vertex, v' adds up to V * C(n-1, j-1) and m' to M * C(n-2, j-2), which
    gives beta_(j-1,j). Neither a simplex nor a forest has torsion, so the
    table is the same over every field.
    """
    points = 0
    pairs = set()
    for g in masks:
        size = g.bit_count()
        if size == 1:
            points |= g
        elif size == 2:
            pairs.add(g)
        else:
            return None
    d = points.bit_count()
    entries = {(j, j): comb(d, j) for j in range(d + 1)}
    if not pairs:
        return BettiTable.from_dict(n, field, entries)
    labels = [v for v in range(n) if not points >> v & 1]
    vertices = len(labels)
    m = vertices * (vertices - 1) // 2 - len(pairs)
    # a forest has fewer edges than vertices; a degree-2 generator, minimal,
    # has two of the vertices
    if m >= vertices:
        return None
    edges = [(u, v) for k, u in enumerate(labels) for v in labels[k + 1:]
             if (1 << u) | (1 << v) not in pairs]
    if _join_count(edges)[1] < m:
        return None
    for j in range(2, n + 1):
        entries[(j - 1, j)] = (vertices * comb(n - 1, j - 1) - m * comb(n - 2, j - 2)
                               - comb(n, j) + comb(d, j))
    return BettiTable.from_dict(n, field, entries)


def is_cohen_macaulay(ideal: SquarefreeIdeal, field: Field = Field.GF2) -> bool:
    """S/I is Cohen-Macaulay iff pd(S/I) equals the height of I."""
    table = hochster_betti(ideal, field)
    return reg_pd(table).pd_s_mod_i == height(ideal)


def has_linear_resolution(ideal: SquarefreeIdeal, field: Field = Field.GF2) -> bool:
    """True iff all generators share one degree d and reg(I) = d."""
    if ideal.is_zero:
        raise ValueError("linear resolution undefined for the zero ideal")
    degrees = set(ideal.degrees)
    if len(degrees) != 1:
        return False
    d = degrees.pop()
    table = hochster_betti(ideal, field)
    return reg_pd(table).reg_ideal == d


def is_componentwise_linear(ideal: SquarefreeIdeal, field: Field = Field.GF2) -> bool:
    """Every nonzero squarefree component has a linear resolution.

    The components come from one chain, each grown from the one below it by
    one variable (ideals._squarefree_components, the chain squarefree_component
    also reads). Each is an antichain of degree-d masks, so its table is
    routed straight from them (_mask_betti) and it is linear when reg(I) = d;
    no ideal is built. The walk stops at the first degree d whose
    component holds all C(n, d) squarefree monomials: that component and
    every higher one is a squarefree Veronese ideal, which has linear
    quotients and so a linear resolution over every field (Herzog-Hibi,
    Monomial Ideals, 2011). The first component below that reached on more
    than ORACLE_LIMIT variables is refused.
    """
    if ideal.is_zero:
        raise ValueError("componentwise linearity undefined for the zero ideal")
    n = ideal.n
    for d, masks in enumerate(_squarefree_components(ideal)):
        if not masks:
            continue
        if len(masks) == comb(n, d):
            return True
        _require_oracle(n)
        if reg_pd(_mask_betti(n, masks, d, field)).reg_ideal != d:
            return False
    return True


def is_sequentially_cm(ideal: SquarefreeIdeal, field: Field = Field.GF2) -> bool:
    """S/I is sequentially Cohen-Macaulay iff the Alexander dual is componentwise linear."""
    return is_componentwise_linear(alexander_dual(ideal), field)
