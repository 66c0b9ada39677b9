"""Simple graphs on vertex set {1, ..., n}: parsing, predicates, enumeration, classes.

Edges are stored canonically as a sorted tuple of pairs (u, v) with u < v, so
two graphs are equal exactly when they have the same vertex count and edge set.
"""
from __future__ import annotations

import json
from heapq import heappop, heappush
from itertools import combinations
from math import factorial
from operator import attrgetter, index
from typing import Iterable, Iterator, Sequence

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
    object.__setattr__. Instances compare equal within one type only, hash as
    the tuple of their fields, and print and pickle by them. They are not
    NamedTuples, whose _replace would skip the validation.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


class SimpleGraph(_Frozen):
    """A finite simple graph on {1, ..., n}: fields n and edges."""

    __slots__ = ("n", "edges")

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
    stripped = text.lstrip()
    if stripped.startswith("{"):
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
    if not isinstance(obj, dict):
        raise GraphFormatError("JSON graph must be an object")
    if "n" not in obj or "edges" not in obj:
        raise GraphFormatError("JSON graph needs fields 'n' and 'edges'")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise GraphFormatError(f"field 'n' must be a nonnegative integer, got {_clip(repr(n))}")
    raw = obj["edges"]
    if not isinstance(raw, list):
        raise GraphFormatError("field 'edges' must be an array of pairs")
    edges = []
    for k, item in enumerate(raw):
        if (not isinstance(item, list) or len(item) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)):
            raise GraphFormatError(
                f"edge #{k + 1} must be a pair of integers, got {_clip(repr(item))}")
        edges.append((item[0], item[1]))
    return SimpleGraph(n, tuple(edges))


def _integer(token: str, line: int) -> int | None:
    """The token as an int, or None if it is not one.

    A signed run of decimal digits always is one, so int() refuses it only past
    Python's int-string digit limit: that is a number out of range.
    """
    try:
        return int(token)
    except ValueError:
        if (token[1:] if token[:1] in "+-" else token).isdecimal():
            raise GraphFormatError(f"number {_clip(token)} out of range", line=line) from None
        return None


def _parse_edge_list(text: str) -> SimpleGraph:
    lines = text.splitlines()
    header_idx = None
    for idx, line in enumerate(lines):
        if line.strip():
            header_idx = idx
            break
    if header_idx is None:
        raise GraphFormatError("empty input, expected a header 'n m'")
    header = lines[header_idx].split()
    if len(header) != 2:
        raise GraphFormatError(
            f"malformed header, expected 'n m', got {_clip(lines[header_idx].strip())!r}",
            line=header_idx + 1)
    n, m = (_integer(token, header_idx + 1) for token in header)
    if n is None or m is None:
        raise GraphFormatError(
            f"malformed header, expected two integers, got {_clip(lines[header_idx].strip())!r}",
            line=header_idx + 1)
    if n < 0 or m < 0:
        raise GraphFormatError("header counts must be nonnegative", line=header_idx + 1)
    edges: list[tuple[int, int]] = []
    line_nos: list[int] = []
    for idx in range(header_idx + 1, len(lines)):
        line = lines[idx]
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected an edge 'u v', got {_clip(line.strip())!r}",
                                   line=idx + 1)
        u, v = (_integer(token, idx + 1) for token in parts)
        if u is None or v is None:
            raise GraphFormatError(f"edge endpoints must be integers, got {_clip(line.strip())!r}",
                                   line=idx + 1)
        edges.append((u, v))
        line_nos.append(idx + 1)
    if len(edges) != m:
        raise GraphFormatError(f"header promised {m} edges, found {len(edges)}",
                               line=header_idx + 1)
    try:
        return SimpleGraph(n, tuple(edges))
    except GraphFormatError as exc:
        raise GraphFormatError(str(exc), line=line_nos[exc.edge]) from None


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

    Isolated vertices are their own components and join nothing, so this is
    O(m) however large n is. A forest has at most n - 1 edges, so a denser
    graph is refused before any union.
    """
    return graph.m < max(graph.n, 1) and _join_count(graph.edges)[1] == graph.m


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
    """A forest with n - 1 edges has exactly one component; O(m) like is_forest."""
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
    best = Fraction(0)
    for w in range(1, 1 << graph.n):
        count = sum(1 for em in masks if em & w == em)
        size = w.bit_count()
        val = Fraction(count, size)
        if val > best:
            best = val
    return best


def enumerate_graphs(n: int) -> Iterator[SimpleGraph]:
    """Yield all 2^C(n,2) labeled graphs on {1..n} in a fixed order.

    Edge slots are the pairs of {1..n} in lexicographic order; graph k has edge
    slot i present iff bit i of k is set.
    """
    if n > DEFAULT_ENUMERATION_LIMIT:
        raise ValueError(f"enumeration of graphs on {n} vertices exceeds the limit of "
                         f"{DEFAULT_ENUMERATION_LIMIT}")
    slots = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(slots)):
        edges = tuple(slots[i] for i in range(len(slots)) if (mask >> i) & 1)
        yield SimpleGraph(n, edges)


def _graph_classes(max_n: int) -> list[list[tuple[SimpleGraph, int]]]:
    """Level n = 0..max_n: one graph per class on {1..n}, its orbit size n!/|Aut|, in one pass.

    The classes on k + 1 vertices come from those on k by vertex
    augmentation: a new vertex joined to a subset of the old ones. Deleting a
    vertex of largest degree from any graph leaves a class on k, so only the
    subsets that give the new vertex the largest degree are tried. Each class
    is kept once, as the first augmentation that reaches its canonical code
    (_canonical_order); so a level is ordered by parent, then by the new
    vertex's neighbourhood mask. This is isomorph-free exhaustive generation
    (McKay, J. Algorithms 26, 1998) with a canonical form in place of
    canonical augmentation. The orbit sizes of level n sum to 2^C(n,2), the
    labeled graphs of enumerate_graphs(n).
    """
    if max_n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {max_n}")
    if max_n > DEFAULT_ENUMERATION_LIMIT:
        raise ValueError(f"graph classes on {max_n} vertices exceed the limit of "
                         f"{DEFAULT_ENUMERATION_LIMIT}")
    # a class is its neighbour masks (vertex i <-> bit i, 0-based) and |Aut|
    levels: list[dict[int, tuple[list[int], int]]] = [{0: ([], 1)}]
    for k in range(max_n):
        grown: dict[int, tuple[list[int], int]] = {}
        for neighbours, _ in levels[-1].values():
            degrees = [a.bit_count() for a in neighbours]
            for s in range(1 << k):
                if any(d + (s >> u & 1) > s.bit_count() for u, d in enumerate(degrees)):
                    continue
                graph = [a | (s >> v & 1) << k for v, a in enumerate(neighbours)] + [s]
                code, automorphisms = _canonical_order(graph)
                grown.setdefault(code, (graph, automorphisms))
        levels.append(grown)
    return [[(SimpleGraph(n, tuple((u + 1, v + 1) for v, a in enumerate(neighbours)
                                   for u in range(v) if a >> u & 1)),
              factorial(n) // automorphisms) for neighbours, automorphisms in level.values()]
            for n, level in enumerate(levels)]


def _canonical_order(neighbours: Sequence[int]) -> tuple[int, int]:
    """(least code, |Aut|) for the graph with these neighbour masks.

    The code of a vertex order v_0, ..., v_(n-1) is its adjacency bits, most
    significant first, for j = 1..n-1 and then i = 0..j-1: [v_i ~ v_j]. Only
    orders that list the vertices by increasing degree are tried. Every
    isomorphism keeps degrees, so it maps such an order to another with the
    same code, and two orders with the same code differ by an automorphism:
    the least code is canonical and |Aut| is the number of orders that reach
    it. The search places one vertex per position and follows only the
    candidates whose bits so far are least, the others can reach no least code.
    """
    n = len(neighbours)
    degrees = [a.bit_count() for a in neighbours]
    allowed = [sum(1 << v for v in range(n) if degrees[v] == d) for d in sorted(degrees)]
    best = [-1, 0]
    order: list[int] = []
    bits = n * (n - 1) // 2

    def place(k: int, used: int, code: int) -> None:
        if k == n:
            if best[0] < 0 or code < best[0]:
                best[:] = [code, 1]
            elif code == best[0]:
                best[1] += 1
            return
        least = -1
        candidates: list[int] = []
        free = allowed[k] & ~used
        while free:
            low = free & -free
            free ^= low
            v = low.bit_length() - 1
            c = code
            for u in order:
                c = c << 1 | (neighbours[v] >> u & 1)
            if least < 0 or c < least:
                least, candidates = c, [v]
            elif c == least:
                candidates.append(v)
        if best[0] >= 0 and least > best[0] >> (bits - k * (k + 1) // 2):
            return
        for v in candidates:
            order.append(v)
            place(k + 1, used | 1 << v, least)
            order.pop()

    place(0, 0, 0)
    return best[0], best[1]


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple(combinations(range(1, n + 1), 2)))


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return SimpleGraph(n, tuple((i, i + 1) for i in range(1, n)) + ((1, n),))
