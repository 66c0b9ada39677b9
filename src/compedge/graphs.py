"""Simple graphs on vertex set {1, ..., n}: parsing, predicates, enumeration, census.

Edges are stored canonically as a sorted tuple of pairs (u, v) with u < v, so
two graphs are equal exactly when they have the same vertex count and edge set.
"""
from __future__ import annotations

import json
from heapq import heappop, heappush
from itertools import combinations
from math import comb
from operator import attrgetter, index
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_ENUMERATION_LIMIT = 7
MDENSITY_LIMIT = 18


class GraphFormatError(ValueError):
    """A malformed graph; `line` is its 1-based line, `edge` the 0-based index of a bad edge."""

    def __init__(self, message: str, line: int | None = None, edge: int | None = None):
        self.line = line
        self.edge = edge
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _clip(token: object) -> str:
    """An echoed input token, cut after 80 characters so one bad token cannot flood stderr."""
    text = str(token)
    return text if len(text) <= 80 else f"{text[:80]}... ({len(text)} characters)"


def _plain_int(value: object, what: str) -> int:
    """value as a plain int (operator.index): a numpy integer or a bool is normalised,
    and a float or a string is a ValueError that names what it is."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {_clip(repr(value))}") from None


def _iterate(values: object, what: str) -> Iterator:
    """iter(values), or a ValueError that names what they are when values is not iterable."""
    try:
        return iter(values)
    except TypeError:
        raise ValueError(f"{what} must be iterable, got {_clip(repr(values))}") from None


def _plain_ints(values: Iterable[object], what: str) -> frozenset[int]:
    """values as a frozenset of plain ints, read by one C-level map(operator.index), or a
    ValueError that names what they are when values is not iterable or one is a float
    or a string."""
    read = map(index, _iterate(values, f"{what}s"))
    try:
        return frozenset(read)
    except TypeError as exc:
        raise ValueError(f"{what} must be an integer: {exc}") from None


class _Frozen:
    """Base of the value types that check their input, frozen and slotted.

    A subclass's __init__ validates and stores each field of its __slots__ with
    object.__setattr__. Its fields are the slots with a public name; a private
    slot holds a value derived from them. Instances compare equal within one
    type only, hash as the tuple of their fields, and print and pickle by them,
    so unpickling runs __init__ again. They are not NamedTuples, whose
    _replace would skip the validation.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


class SimpleGraph(_Frozen):
    """A finite simple graph on {1, ..., n}: fields n and edges.

    Two private ints hold the counts every question reads, taken by one
    _join_count when the graph is built: _met, the vertices on an edge, and
    _joins, the edges that join two components. They are ints, which the
    garbage collector does not track, so the counts add no tracked object.
    """

    __slots__ = ("n", "edges", "_met", "_joins")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        """The one edge check: a GraphFormatError names the input edge at fault by index.

        n and every endpoint are stored as plain ints (operator.index), so a
        numpy integer or a bool is normalised and a float or a string refused;
        edges that are not iterable are refused by name, as a ValueError.
        """
        n = _plain_int(n, "vertex count")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {_clip(n)}")
        seen = set()
        canon = []
        for k, edge in enumerate(_iterate(edges, "edges")):
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise GraphFormatError(f"edge must be a pair of vertex labels, got "
                                       f"{_clip(repr(edge))}", edge=k) from None
            try:
                u, v = index(u), index(v)
            except TypeError:
                raise GraphFormatError(f"vertex label must be an integer in edge "
                                       f"{_clip(repr(u))} {_clip(repr(v))}", edge=k) from None
            pair = (u, v) if u < v else (v, u)
            if u == v:
                raise GraphFormatError(f"self-loop {_clip(u)} {_clip(v)}", edge=k)
            if not (0 < u <= n and 0 < v <= n):
                raise GraphFormatError(f"vertex label out of range 1..{_clip(n)} in edge "
                                       f"{_clip(u)} {_clip(v)}", edge=k)
            if pair in seen:
                raise GraphFormatError(f"duplicate edge {_clip(u)} {_clip(v)}", edge=k)
            seen.add(pair)
            canon.append(pair)
        object.__setattr__(self, "n", n)
        # sort the input-order list: timsort is linear on already-sorted pairs
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        met, joins = _join_count(canon)
        object.__setattr__(self, "_met", met)
        object.__setattr__(self, "_joins", joins)

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def isolated_vertices(self) -> tuple[int, ...]:
        touched = {v for e in self.edges for v in e}
        return tuple(v for v in self.vertices() if v not in touched)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}


def parse_graph(text: str) -> SimpleGraph:
    """Parse a graph from either the line-oriented or the JSON format.

    Line format: a header ``n m`` followed by m lines ``u v``.
    JSON format: ``{"n": <int>, "edges": [[u, v], ...]}``.
    Edge order is irrelevant; endpoint order within an edge is normalized.
    """
    if text.lstrip().startswith("{"):
        return _parse_json_graph(text)
    return _parse_edge_list(text)


def _parse_json_graph(text: str) -> SimpleGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except RecursionError:
        raise GraphFormatError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # an integer longer than Python's int-string limit
        raise GraphFormatError(f"invalid JSON: {exc}") from None
    if "n" not in obj or "edges" not in obj:
        raise GraphFormatError("JSON graph needs fields 'n' and 'edges'")
    # json.loads makes no subclass of int or list, and the type of true is bool
    n = obj["n"]
    if type(n) is not int or n < 0:
        raise GraphFormatError(f"field 'n' must be a nonnegative integer, got {_clip(repr(n))}")
    edges = obj["edges"]
    if type(edges) is not list:
        raise GraphFormatError("field 'edges' must be an array of pairs")
    for k, item in enumerate(edges):
        if (type(item) is not list or len(item) != 2
                or type(item[0]) is not int or type(item[1]) is not int):
            raise GraphFormatError(
                f"edge #{k + 1} must be a pair of integers, got {_clip(repr(item))}")
    return SimpleGraph(n, edges)


def _integer(token: str, line: int) -> int | None:
    """The token as an int, or None unless it is ASCII decimal digits after at most one sign.

    Such a token always is an int, so int() refuses it only past Python's
    int-string digit limit: that is a number out of range.
    """
    digits = token[1:] if token[:1] in "+-" else token
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"number {_clip(token)} out of range", line=line) from None


def _pair(line: str, at: int, shape: str, kind: str) -> tuple[int, int]:
    """The two integers on line number at, or a GraphFormatError there whose message
    starts with shape when the line does not hold two tokens, or with kind when one
    of them is not an integer."""
    tokens = line.split()
    if len(tokens) != 2:
        raise GraphFormatError(f"{shape}, got {_clip(line.strip())!r}", line=at)
    first, second = _integer(tokens[0], at), _integer(tokens[1], at)
    if first is None or second is None:
        raise GraphFormatError(f"{kind}, got {_clip(line.strip())!r}", line=at)
    return first, second


def _read_edge_list(text: str) -> tuple[int, list[tuple[int, int]], list[int]]:
    """(n, edges, rows) of the line format, read in one walk over its nonblank lines.

    rows holds the 1-based number of each nonblank line: rows[0] is the
    header's and rows[k + 1] that of edge k.
    """
    lines = text.splitlines()
    rows = [at for at, line in enumerate(lines, 1) if line.strip()]
    if not rows:
        raise GraphFormatError("empty input, expected a header 'n m'")
    n, m = _pair(lines[rows[0] - 1], rows[0], "malformed header, expected 'n m'",
                 "malformed header, expected two integers")
    if n < 0 or m < 0:
        raise GraphFormatError("header counts must be nonnegative", line=rows[0])
    edges = [_pair(lines[at - 1], at, "expected an edge 'u v'", "edge endpoints must be integers")
             for at in rows[1:]]
    if len(edges) != m:
        raise GraphFormatError(f"header promised {m} edges, found {len(edges)}", line=rows[0])
    return n, edges, rows


def _parse_edge_list(text: str) -> SimpleGraph:
    """The line format, built into a graph once its split lines are freed.

    The edge SimpleGraph refuses, named by index k, is reported on its own
    line, rows[k + 1].
    """
    n, edges, rows = _read_edge_list(text)
    try:
        return SimpleGraph(n, edges)
    except GraphFormatError as exc:
        raise GraphFormatError(str(exc), line=rows[exc.edge + 1]) from None


def connected_components(graph: SimpleGraph) -> list[tuple[int, ...]]:
    """Vertex blocks of the components, each sorted, ordered by smallest element."""
    adj: dict[int, list[int]] = {v: [] for v in graph.vertices()}
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    unseen = set(graph.vertices())
    blocks = []
    for start in graph.vertices():
        if start not in unseen:
            continue
        stack = [start]
        unseen.discard(start)
        block = []
        while stack:
            v = stack.pop()
            block.append(v)
            for w in adj[v]:
                if w in unseen:
                    unseen.discard(w)
                    stack.append(w)
        blocks.append(tuple(sorted(block)))
    return blocks


def _join_count(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """(n' labels met, r pairs that joined two components): union-find, path halving.

    With c' components on the labels met, r = n' - c' is the rank of the
    incidence matrix over every field, and r = m exactly when m pairs form a forest.
    """
    parent: dict[int, int] = {}
    joins = 0
    for u, v in pairs:
        if u in parent:
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
        else:
            parent[u] = u
        if v in parent:
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
        else:
            parent[v] = v
        if u != v:
            parent[u] = v
            joins += 1
    return len(parent), joins


def is_forest(graph: SimpleGraph) -> bool:
    """True iff the graph is acyclic: every edge joins two components of the edges before it.

    The joins are read at construction, so this is O(1) however large n is.
    """
    return graph._joins == graph.m


def _is_chordal(graph: SimpleGraph) -> bool:
    """True iff the graph has no chordless cycle: maximum cardinality search and its PEO check.

    Only the vertices on an edge take part, each with its set of neighbours,
    so the work is O(m log m) however large n is. The search visits next a
    vertex with the most visited neighbours, one component at a time, through
    a heap of (-weight, vertex) entries: a weight only grows, and each rise
    pushes a new entry that comes out before the stale ones. The reverse of
    the visit order is a perfect elimination ordering (PEO), in which the
    later neighbours of each vertex form a clique, exactly when the graph is
    chordal (Tarjan-Yannakakis, SIAM J. Comput. 13, 1984). It is checked as
    each vertex is visited: the neighbours visited before it, less the latest
    of them, p, must all be adjacent to p. They were visited before p, so
    they lie among p's earlier neighbours, a clique by the same check at p.
    """
    adjacent: dict[int, set[int]] = {}
    for u, v in graph.edges:
        adjacent.setdefault(u, set()).add(v)
        adjacent.setdefault(v, set()).add(u)
    weight = dict.fromkeys(adjacent, 0)
    position: dict[int, int] = {}
    for start in adjacent:
        if start in position:
            continue
        heap = [(0, start)]
        while heap:
            v = heappop(heap)[1]
            if v in position:
                continue
            earlier = adjacent[v] & position.keys()
            if earlier:
                p = max(earlier, key=position.__getitem__)
                if any(w != p and w not in adjacent[p] for w in earlier):
                    return False
            position[v] = len(position)
            for w in adjacent[v] - earlier:
                weight[w] += 1
                heappush(heap, (-weight[w], w))
    return True


def is_complete(graph: SimpleGraph) -> bool:
    """True iff every pair of vertices is an edge; K_1 and K_0 count as complete."""
    return graph.m == graph.n * (graph.n - 1) // 2


def is_tree(graph: SimpleGraph) -> bool:
    """A forest with n - 1 edges has exactly one component; O(1) like is_forest."""
    return graph.m == graph.n - 1 and is_forest(graph)


def max_subgraph_density(graph: SimpleGraph) -> Fraction:
    """m(G) = max over nonempty W of |E(G[W])| / |W|, as an exact fraction.

    Walks all 2^n vertex subsets, so n is capped at MDENSITY_LIMIT; meant for
    the small fixed graphs fed to threshold formulas.
    """
    # imported here, its one use, so that no other command loads fractions
    from fractions import Fraction
    if graph.m == 0:
        raise ValueError("density of an edgeless graph is undefined")
    if graph.n > MDENSITY_LIMIT:
        raise ValueError(f"density on {_clip(graph.n)} vertices exceeds the limit of "
                         f"{MDENSITY_LIMIT}")
    masks = []
    for u, v in graph.edges:
        masks.append((1 << (u - 1)) | (1 << (v - 1)))
    # the best count / size so far, compared in ints: one Fraction, at the end
    best_count, best_size = 0, 1
    for w in range(1, 1 << graph.n):
        count = sum(1 for em in masks if em & w == em)
        size = w.bit_count()
        if count * best_size > best_count * size:
            best_count, best_size = count, size
    return Fraction(best_count, best_size)


def enumerate_graphs(n: int) -> Iterator[SimpleGraph]:
    """Yield all 2^C(n,2) labeled graphs on {1..n} in a fixed order.

    Edge slots are the pairs of {1..n} in lexicographic order; graph k has edge
    slot i present iff bit i of k is set.
    """
    n = _plain_int(n, "vertex count")
    if n > DEFAULT_ENUMERATION_LIMIT:
        raise ValueError(f"enumeration of graphs on {n} vertices exceeds the limit of "
                         f"{DEFAULT_ENUMERATION_LIMIT}")
    slots = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(slots)):
        edges = tuple(slots[i] for i in range(len(slots)) if (mask >> i) & 1)
        yield SimpleGraph(n, edges)


def _census(n: int) -> list[tuple[SimpleGraph, int]]:
    """One graph per count type on n >= 3 vertices, with the number of labeled graphs of its type.

    A type is what cross_validate reads off a graph: met, the vertices on an
    edge; c', the components that hold an edge; and a kind, forest, K_n or
    another graph with a cycle (a forest on met = 2c' vertices is a perfect
    matching). Its weight is C(n, met) times the number of graphs of that
    kind on met labeled vertices with no isolated vertex and c' components.
    Those are counted by splitting off the component of the lowest vertex
    (Stanley, Enumerative Combinatorics 2, ch. 5): a tree on k vertices in
    k^(k-2) ways (Cayley), a connected graph in c(k) ways by the recurrence
    c(k) = 2^C(k,2) - sum_(j<k) C(k-1, j-1) c(j) 2^C(k-j,2) (Harary and
    Palmer, Graphical Enumeration, 1973). A type's graph is c' - 1 disjoint
    edges and a path on the other met vertices, which one chord closes into
    a triangle for the cycle kind; K_n stands for itself. The weights sum to
    2^C(n,2) - 1, every labeled graph on n vertices with an edge.
    """
    connected = [0, 1]
    for k in range(2, n + 1):
        connected.append(2 ** comb(k, 2) - sum(comb(k - 1, j - 1) * connected[j]
                                               * 2 ** comb(k - j, 2) for j in range(1, k)))
    graphs = _spread([0, 0, *connected[2:]])
    forests = _spread([0, 0, *(k ** (k - 2) for k in range(2, n + 1))])
    census = [(complete_graph(n), 1)]
    for met in range(2, n + 1):
        for c in range(1, met // 2 + 1):
            forest = ([(2 * i - 1, 2 * i) for i in range(1, c)]
                      + [(v, v + 1) for v in range(2 * c - 1, met)])
            census.append((SimpleGraph(n, forest), comb(n, met) * forests[met][c]))
            cycles = graphs[met][c] - forests[met][c] - (met == n and c == 1)
            if cycles:
                census.append((SimpleGraph(n, forest + [(2 * c - 1, 2 * c + 1)]),
                               comb(n, met) * cycles))
    return census


def _spread(units: list[int]) -> list[list[int]]:
    """[v][c]: the graphs on v labeled vertices made of c components, each one of the
    units[k] allowed graphs on its k vertices, counted by the component of the lowest vertex."""
    spread = [[1]]
    for v in range(1, len(units)):
        row = [0] * (v + 1)
        for k in range(2, v + 1):
            for c, count in enumerate(spread[v - k]):
                row[c + 1] += comb(v - 1, k - 1) * units[k] * count
        spread.append(row)
    return spread


def complete_graph(n: int) -> SimpleGraph:
    n = _plain_int(n, "vertex count")
    return SimpleGraph(n, tuple(combinations(range(1, n + 1), 2)))


def path_graph(n: int) -> SimpleGraph:
    n = _plain_int(n, "vertex count")
    return SimpleGraph(n, tuple((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> SimpleGraph:
    n = _plain_int(n, "vertex count")
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return SimpleGraph(n, tuple((i, i + 1) for i in range(1, n)) + ((1, n),))
