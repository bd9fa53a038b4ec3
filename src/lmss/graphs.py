"""Immutable simple graphs on at most 16 vertices, stored as per-vertex bitmasks.

Everything downstream (stable sets, matchings, greedoid checks) works on
integer masks over the vertex set, so the capacity cap keeps every subset
loop at 2^16 iterations worst case.  Vertices are 0-indexed integers;
optional string labels are display metadata only.

Input is checked where it enters: ``Graph(...)`` checks in ``__post_init__``
(so do ``from_edges``, ``with_labels`` and the generators) and
``parse_edge_list`` checks each line.  Values derived from checked input
(parsed, induced, relabelled, generated and rebuilt graphs, listed matchings,
cycles and stable-set families) are built by ``_derived``, which runs no check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

MAX_VERTICES = 16


class CapacityError(ValueError):
    """Graph would exceed the 16-vertex capacity."""


class MismatchError(ValueError):
    """A vertex set, edge or matching was used with a graph it does not belong to."""


class UsageError(ValueError):
    """An operation was called with its documented preconditions violated."""


class ParseError(ValueError):
    """Edge-list text could not be parsed.  ``line`` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class MalformedLineError(ParseError):
    pass


class SelfLoopError(ParseError):
    pass


class DuplicateEdgeError(ParseError):
    pass


class VertexRangeError(ParseError):
    pass


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _derived(cls, *values):
    """The frozen dataclass ``cls`` holding ``values``, one per field in order
    (``init=False`` ones too), built without the checks of ``__post_init__``:
    for values derived from checked input, which pass those checks as they are
    (tuples, a matching's edges sorted, its saturated mask theirs)."""
    obj = object.__new__(cls)
    # as the dataclass's __init__ does: a __dict__ write would give each value a dict
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


class Edge(NamedTuple):
    u: int
    v: int

    @classmethod
    def of(cls, a: int, b: int) -> "Edge":
        if a == b:
            raise UsageError(f"self-loop at vertex {a}")
        return cls(a, b) if a < b else cls(b, a)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: ``adj[v]`` is the neighbour bitmask of vertex v."""

    n: int
    adj: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise CapacityError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        object.__setattr__(self, "adj", tuple(self.adj))
        if len(self.adj) != self.n:
            raise ValueError(f"expected {self.n} adjacency masks, got {len(self.adj)}")
        adj = self.adj
        outside = ~self.full_mask
        for v, mask in enumerate(adj):
            if mask & outside:
                raise ValueError(f"adjacency mask of vertex {v} leaves the vertex universe")
            if mask >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for u in bits(mask):
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.n:
                raise ValueError("labels must cover every vertex")
            if len(set(self.labels)) != self.n:
                raise ValueError("labels must be distinct")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
    ) -> "Graph":
        adj = [0] * n
        seen = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) outside 0..{n - 1}")
            e = Edge.of(a, b)
            if e in seen:
                raise ValueError(f"duplicate edge ({a},{b})")
            seen.add(e)
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return cls(n, tuple(adj), tuple(labels) if labels is not None else None)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> tuple[Edge, ...]:
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            out.extend(Edge(u, v) for v in bits(rest))
        return tuple(out)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def vertex(self, spec: int | str) -> int:
        """Resolve a vertex index or display label to an index."""
        if isinstance(spec, str):
            if self.labels is None:
                raise UsageError(f"graph has no labels, cannot resolve {spec!r}")
            try:
                return self.labels.index(spec)
            except ValueError:
                raise UsageError(f"unknown vertex label {spec!r}") from None
        if not 0 <= spec < self.n:
            raise UsageError(f"vertex {spec} outside 0..{self.n - 1}")
        return spec

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def set_of(self, *specs: int | str) -> "VertexSet":
        m = 0
        for s in specs:
            m |= 1 << self.vertex(s)
        return VertexSet(self, m)

    def with_labels(self, labels: Sequence[str] | None) -> "Graph":
        return Graph(self.n, self.adj, tuple(labels) if labels is not None else None)

    def __repr__(self):
        es = ",".join(f"{self.label_of(u)}{'-'}{self.label_of(v)}" for u, v in self.edges())
        return f"Graph(n={self.n}, edges=[{es}])"


@dataclass(frozen=True)
class VertexSet:
    """Bitmask-backed set of vertices of a specific graph."""

    graph: Graph
    bits: int

    def __post_init__(self):
        if self.bits & ~self.graph.full_mask:
            raise UsageError("vertex set leaves the graph's vertex universe")

    def _check(self, other: "VertexSet") -> None:
        if other.graph != self.graph:
            raise MismatchError("vertex sets belong to different graphs")

    def __contains__(self, v: int | str) -> bool:
        return bool(self.bits >> self.graph.vertex(v) & 1)

    def __iter__(self) -> Iterator[int]:
        return bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.graph, self.bits | other.bits)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.graph, self.bits & other.bits)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.graph, self.bits & ~other.bits)

    def __le__(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def with_vertex(self, v: int | str) -> "VertexSet":
        return VertexSet(self.graph, self.bits | 1 << self.graph.vertex(v))

    def vertices(self) -> tuple[int, ...]:
        return tuple(bits(self.bits))

    def names(self) -> tuple[str, ...]:
        return tuple(self.graph.label_of(v) for v in bits(self.bits))

    def __repr__(self):
        return "{%s}" % ",".join(self.names())


def require_member(g: Graph, s: VertexSet) -> int:
    """Return the mask of ``s`` after checking it belongs to ``g``."""
    if s.graph != g:
        raise MismatchError("vertex set does not belong to this graph")
    return s.bits


def neighborhood_bits(g: Graph, mask: int) -> int:
    """N(S) as a mask: neighbours of members, minus the members themselves."""
    out = 0
    for v in bits(mask):
        out |= g.adj[v]
    return out & ~mask


def closed_neighborhood_bits(g: Graph, mask: int) -> int:
    out = mask
    for v in bits(mask):
        out |= g.adj[v]
    return out


def neighborhood(g: Graph, s: VertexSet) -> VertexSet:
    """Open neighbourhood N(S)."""
    return VertexSet(g, neighborhood_bits(g, require_member(g, s)))


def closed_neighborhood(g: Graph, s: VertexSet) -> VertexSet:
    """Closed neighbourhood N[S] = S united with N(S)."""
    return VertexSet(g, closed_neighborhood_bits(g, require_member(g, s)))


def induced_subgraph(g: Graph, s: VertexSet) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph spanned by ``s`` plus the map new-index -> original vertex."""
    keep = sorted(bits(require_member(g, s)))
    index = {v: i for i, v in enumerate(keep)}
    adj = [0] * len(keep)
    for v in keep:
        for u in bits(g.adj[v]):
            if u in index:
                adj[index[v]] |= 1 << index[u]
    labels = tuple(g.labels[v] for v in keep) if g.labels is not None else None
    return _derived(Graph, len(keep), tuple(adj), labels), tuple(keep)


def _components(g: Graph) -> int:
    """The number of connected components of g."""
    unseen = g.full_mask
    components = 0
    while unseen:
        components += 1
        frontier = unseen & -unseen
        while frontier:
            unseen &= ~frontier
            reach = 0
            for v in bits(frontier):
                reach |= g.adj[v]
            frontier = reach & unseen
    return components


def is_connected(g: Graph) -> bool:
    return _components(g) <= 1


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None for forests.

    For every edge uv, look for the shortest u-v path avoiding that edge;
    the minimum over all edges of (path length + 1) is the girth.  A
    triangle ends the search, since no cycle is shorter.
    """
    best = None
    for u, v in g.edges():
        dist = {u: 0}
        frontier = [u]
        while frontier and v not in dist:
            nxt = []
            for x in frontier:
                for y in bits(g.adj[x]):
                    if (x, y) in ((u, v), (v, u)) or y in dist:
                        continue
                    dist[y] = dist[x] + 1
                    nxt.append(y)
            frontier = nxt
        if v in dist:
            cycle = dist[v] + 1
            if best is None or cycle < best:
                best = cycle
                if best == 3:
                    break
    return best


def corona(x: Graph, hs: Sequence[Graph]) -> Graph:
    """Disjoint union of ``x`` and each H_i, joining vertex i of x to all of H_i."""
    if len(hs) != x.n:
        raise UsageError(f"need one attached graph per vertex of x ({x.n}), got {len(hs)}")
    if any(h.n == 0 for h in hs):
        raise UsageError("attached graphs must be non-empty")
    total = x.n + sum(h.n for h in hs)
    if total > MAX_VERTICES:
        raise CapacityError(f"corona would have {total} > {MAX_VERTICES} vertices")
    edges: list[tuple[int, int]] = [(u, v) for u, v in x.edges()]
    base = x.n
    for i, h in enumerate(hs):
        edges.extend((base + u, base + v) for u, v in h.edges())
        edges.extend((i, base + u) for u in range(h.n))
        base += h.n
    return Graph.from_edges(total, edges)


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise UsageError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise UsageError("paths need at least 1 vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


# ------------------------------------------------------------------ text format
#
# First non-comment line: vertex count n.  Every further line: one edge
# "u v", whitespace separated, 0-indexed.  '#' starts a comment anywhere.


def _strip(line: str) -> str:
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


def parse_edge_list(text: str) -> Graph:
    n: int | None = None
    adj: list[int] = []
    seen: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        parts = line.split()
        if n is None:
            try:
                (count,) = parts
                n = int(count)
            except ValueError:
                raise MalformedLineError(f"expected vertex count, got {raw!r}", lineno) from None
            if n < 0:
                raise MalformedLineError(f"negative vertex count {n}", lineno)
            if n > MAX_VERTICES:
                raise CapacityError(f"line {lineno}: vertex count {n} exceeds {MAX_VERTICES}")
            adj = [0] * n
            continue
        if len(parts) != 2:
            raise MalformedLineError(f"expected 'u v', got {raw!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLineError(f"non-integer endpoint in {raw!r}", lineno) from None
        if not (0 <= a < n and 0 <= b < n):
            raise VertexRangeError(f"edge ({a},{b}) outside 0..{n - 1}", lineno)
        if a == b:
            raise SelfLoopError(f"self-loop at vertex {a}", lineno)
        e = Edge.of(a, b)
        if e in seen:
            raise DuplicateEdgeError(f"duplicate edge ({a},{b})", lineno)
        seen.add(e)
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    if n is None:
        raise MalformedLineError("empty input: missing vertex count", None)
    return _derived(Graph, n, tuple(adj), None)


def serialize(g: Graph) -> str:
    """Canonical edge-list text: n, then edges in (min,max) lexicographic order."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def serialize_many(items: Iterable[tuple[str, Graph]]) -> str:
    """Multi-graph file: blank-line separated blocks, each preceded by '# name'."""
    blocks = [f"# {name}\n{serialize(g)}" for name, g in items]
    return "\n".join(blocks)


def parse_edge_lists(text: str) -> list[Graph]:
    """Parse a multi-graph file written by :func:`serialize_many`."""
    blocks: list[list[str]] = [[]]
    for raw in text.splitlines():
        if raw.strip():
            blocks[-1].append(raw)
        elif blocks[-1]:
            blocks.append([])
    return [parse_edge_list("\n".join(b)) for b in blocks if b]
