"""Exact reduced simplicial homology and graded Betti numbers of squarefree ideals.

The Betti oracle has two engines and one case read off counts, with one
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
restrictions (see its docstring); the dual complex is listed only up to the
largest face count that rule can send to the dual engine. Both engines read
the generator masks alone and build no ideal. The table aggregates
multidegrees by cardinality either way. The complex {emptyset} has reduced
H_(-1) = K, which makes the links of the dual facets count the generators.

One case takes neither engine, and reads the table off counts with no face
list and no link. Generators all of degree at least n - 2 have a dual
complex of dimension at most 1. For a complementary edge ideal it is the
graph itself (the empty face, the n' vertices on an edge,
the m edges), and every link is {emptyset}, a set of points or that graph,
so the dual formula is read off vertex degrees, edge counts and the
components (_graph_betti). Every other ideal goes to an engine.

The engines, and stanley_reisner, do work that grows as 2^n, and they alone
refuse an ambient size past ORACLE_LIMIT (14): _mask_betti checks it after
the count case and before the engine rule. A table read off counts answers
up to the ideal layer's AMBIENT_LIMIT (24), the widest mask an ideal holds.

A complementary edge ideal I_c(G) needs no ideal at all. Its table and its
height, reg and pd are read off the graph's counts at any n: the edges,
and the vertices on an edge and the components holding one, which the
graph counts once when it is built (graphs._join_count). The betti command
reads the table from tables._graph_oracle; the invariants layer reads
height, reg and pd from tables._count_invariants and builds no table.
Neither builds I_c(G) or loads this module. The table type (BettiTable)
and the field tag live in tables too, and are attributes of this module as
well.

Nothing is memoised. The exhaustive sweeps repeat small tables, but they
read every complementary edge ideal off counts, so a verify round sends no
table to an engine.
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
linear, exactly when G is not chordal, which the suite reads off the graph:
a forest is, and a graph with a cycle goes to graphs._is_chordal.
Chordality settles the dual's linear quotients too.
On that dual, is_componentwise_linear is the suite's slow leg in the tests;
it and ideals.has_linear_quotients serve general ideals.
"""
from __future__ import annotations

from bisect import bisect_right
from math import comb, gcd, isqrt
from typing import Collection, Iterable

from .graphs import _clip, _Frozen, _iterate, _join_count, _plain_int, _plain_ints
from .ideals import (SquarefreeIdeal, _closure, _squarefree_components, alexander_dual, height,
                     support_of)
# the table type lives in tables; Field and BettiTable stay attributes of
# this module too
from .tables import BettiTable, Field, Homological, _count_betti, _require_field

ORACLE_LIMIT = 14


def _require_oracle(n: int) -> None:
    """Refuse an ambient size past ORACLE_LIMIT, the one limit of the two engines and
    of stanley_reisner, whose work grows as 2^n; a table read off counts has none."""
    if n > ORACLE_LIMIT:
        raise ValueError(f"ambient size {_clip(n)} exceeds the oracle limit of {ORACLE_LIMIT}")


class SimplicialComplex(_Frozen):
    """A simplicial complex on ground set {1..n}, faces stored as bit masks.

    The void complex (no faces at all) is distinct from the complex whose only
    face is the empty set (mask 0). The constructor stores n and each face
    as plain ints (graphs._plain_int and _plain_ints), the faces as a
    frozenset, and refuses a float or a string, faces that are not iterable,
    a negative n, a face outside 1..n and a family that is not downward
    closed.
    """

    __slots__ = ("n", "faces")

    def __init__(self, n: int, faces: Iterable[int]):
        n = _plain_int(n, "ground size")
        if n < 0:
            raise ValueError(f"ground size must be nonnegative, got {_clip(n)}")
        faces = _plain_ints(faces, "face mask")
        for f in faces:
            if f < 0 or f >> n:
                raise ValueError(f"face mask {f} out of ground range 1..{n}")
            # closed under dropping one vertex means closed under every subset
            bits = f
            while bits:
                low = bits & -bits
                bits ^= low
                if f ^ low not in faces:
                    raise ValueError(f"not downward closed: face {sorted(support_of(f))} "
                                     f"lacks {sorted(support_of(f ^ low))}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "faces", faces)

    @property
    def is_void(self) -> bool:
        return not self.faces


def simplicial_complex(n: int, facets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Downward closure of the given facets (always includes the empty face).

    n and each label are read as plain ints (graphs._plain_int and _plain_ints),
    so a float or a string, or facets that are not iterable, are a ValueError
    that names them.
    """
    n = _plain_int(n, "ground size")
    tops = []
    for facet in _iterate(facets, "facets"):
        facet = _plain_ints(facet, "facet label")
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
    union = _union_table(ideal.n, ideal.masks)
    return SimplicialComplex(ideal.n, frozenset(s for s, u in enumerate(union) if not u))


def _union_table(n: int, masks: Iterable[int]) -> list[int]:
    """union[s] is the OR of the generators inside s: 0 exactly on the faces."""
    full = (1 << n) - 1
    union = [0] * (1 << n)
    for g in masks:
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

    Index 0 of the result is dimension -1 of the reduced chain complex. A
    field that is no Field member is refused, as it would pass for Q below.
    """
    _require_field(field)
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

    After the zero-ideal check, the table is routed from the generator masks
    (_mask_betti), the one routing is_componentwise_linear also takes.
    Generators all of degree at least n - 2, every complementary edge ideal
    among them, have a dual complex of dimension at most 1: a graph, whose
    links are read off counts (_graph_betti). Otherwise two engines compute
    the same table. The primal one sums the homology of the Stanley-Reisner
    complex restricted to each sigma of the lcm lattice (the unions of
    generators; every other restriction is a cone), found in one table of
    2^n entries. The dual one reads the table from the links of the faces of
    the Alexander dual complex; it collects them by subset inversion, which
    costs sum over dual faces f of 2^|f| (at most 4F for the F faces of a
    graph). Its faces tau are the complements of the nonfaces sigma, so
    P = sum over tau of 2^(n - |tau|) is the sum over nonfaces of 2^|sigma|:
    an upper bound on the faces the primal restrictions hold, since every
    lattice sigma but the empty one is a nonface with at most 2^|sigma|
    faces inside it. The rule:
    the dual engine runs when F^2 <= 3 * P, the primal one otherwise. As
    P <= 3^n, the rule refuses every F above isqrt(3^(n+1)) (3,787 at
    n = 14), so the dual faces are listed only up to that bound, and past it
    the primal engine runs. An ideal that goes to an engine is refused past
    ORACLE_LIMIT (14); one read off counts answers up to AMBIENT_LIMIT (24). Nothing is memoised: a repeated table
    is computed again. A field that is no Field member is refused first.
    """
    _require_field(field)
    if ideal.is_zero:
        raise ValueError("Betti table undefined for the zero ideal")
    return _mask_betti(ideal.n, ideal.masks, ideal.indeg, field)


def _mask_betti(n: int, masks: Collection[int], indeg: int, field: Field) -> BettiTable:
    """The table of the ideal whose minimal generators are masks, of least degree indeg.

    masks must be a minimal antichain, as ideal.masks or a squarefree
    component of one degree is; nothing here checks it. The one routing of
    hochster_betti: _graph_betti, else the engine rule, which refuses n past
    ORACLE_LIMIT first. The dual complex is listed to isqrt(3^(n+1)) faces,
    the most the rule can send to the dual engine (see hochster_betti).
    """
    if indeg >= n - 2:
        return _graph_betti(n, masks, field)
    _require_oracle(n)
    full = (1 << n) - 1
    faces = _closure([full & ~g for g in masks], isqrt(3 ** (n + 1)))
    if faces is None or len(faces) ** 2 > 3 * sum(1 << (n - tau.bit_count()) for tau in faces):
        return _primal_betti(n, masks, field)
    return _dual_betti(n, faces, field)


def _primal_betti(n: int, masks: Iterable[int], field: Field) -> BettiTable:
    """Hochster's formula: beta_(i,sigma) = dim H~_(|sigma|-i-1) of the restriction to sigma.

    Only sigma in the lcm lattice, the unions of generators, can carry
    homology: any other sigma has a vertex in no generator inside sigma, and
    the restriction is a cone on that vertex (Gasharov-Peeva-Welker, The
    lcm-lattice in monomial resolutions, 1999). The faces are listed once, in
    increasing mask order, and each lattice sigma filters them to its
    restriction, summed and dropped before the next, so one restriction is
    held at a time. A face inside sigma is no greater than sigma as a mask,
    so only the prefix up to sigma is filtered. masks must be the minimal
    generators, an antichain, as for _mask_betti.
    """
    union = _union_table(n, masks)
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


def is_cohen_macaulay(ideal: SquarefreeIdeal, field: Field = Field.GF2) -> bool:
    """S/I is Cohen-Macaulay iff pd(S/I) equals the height of I."""
    return reg_pd(hochster_betti(ideal, field)).pd_s_mod_i == height(ideal)


def has_linear_resolution(ideal: SquarefreeIdeal, field: Field = Field.GF2) -> bool:
    """True iff all generators share one degree d and reg(I) = d."""
    if ideal.is_zero:
        raise ValueError("linear resolution undefined for the zero ideal")
    degrees = set(ideal.degrees)
    if len(degrees) != 1:
        return False
    return reg_pd(hochster_betti(ideal, field)).reg_ideal == degrees.pop()


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
    Monomial Ideals, 2011). A component below that goes to _mask_betti, so
    past ORACLE_LIMIT variables it is refused unless its degree d is at
    least n - 2, where its table is read off counts. A field that is no
    Field member is refused first.
    """
    _require_field(field)
    if ideal.is_zero:
        raise ValueError("componentwise linearity undefined for the zero ideal")
    n = ideal.n
    for d, masks in enumerate(_squarefree_components(ideal)):
        if not masks:
            continue
        if len(masks) == comb(n, d):
            return True
        if reg_pd(_mask_betti(n, masks, d, field)).reg_ideal != d:
            return False
    return True


def is_sequentially_cm(ideal: SquarefreeIdeal, field: Field = Field.GF2) -> bool:
    """S/I is sequentially Cohen-Macaulay iff the Alexander dual is componentwise linear."""
    return is_componentwise_linear(alexander_dual(ideal), field)
