"""Matchings, alternating cycles, and uniquely restricted matchings.

A matching M is *uniquely restricted* when it is the only perfect matching
of the subgraph induced by the vertices it saturates; equivalently, when
the graph has no M-alternating cycle.  The alternating-cycle route is the
implementation; the enumeration route stays available as an oracle.

Each matching concept has one search, with two exceptions: the alternating
cycle has a listing and a decision, and the matchings have a listing and
th9's decision walk.  Two memoised recursions on the free-vertex mask
answer the numeric questions: ``_mu_on`` gives the size of a maximum
matching and ``_count_perfect_matchings_on`` the number of perfect
matchings.  One walk, ``_matchings``, pruned by ``_mu_on``, lists the
matchings of one size: all maximum ones, all perfect ones, and the first
perfect one.  ``facts.Facts`` gives each graph one ``_mu_on`` memo, which
mu, the walk, th3 and th11 share.  The counter only counts, so the check
that a unique perfect matching is the only one counted shares no code with
the walk that found it.  The th9 rule walks every matching of a graph
itself, keeping the mate array and saturated mask in place, and builds no
``Matching`` per matching: it needs them in no order, and on the coronas a
generator resume and a tuple per matching took about a third of its time.

``Matching(...)``, ``Matching.of`` and ``AlternatingCycle(...)`` check their
input.  The searches build their matchings (with the saturated mask they
kept) and cycles from g's own edges through ``graphs._derived``, unchecked.

Two searches run on masks and build no ``AlternatingCycle``.
``_alternating_cycles`` yields as vertex tuples the alternating cycles,
for the matching a mate array describes, through the seed edges it is
given: every cycle when every matched edge is a seed.  ``_cycle_free``
decides whether such a cycle exists.  The two are kept apart on purpose.
The listing extends through ascending neighbours, unsaturated ones
included, and closes a cycle at the seed, so its first cycle is the
certificate that reports and demos print; that order must stay.  The
decision needs no order: it steps only onto saturated vertices off the
path, keeps no path list, and stops at the first end that closes a cycle,
so a shared DFS would have to branch on its caller.  The cycle objects are
built only at the public boundary: ``find_alternating_cycle`` and
``enumerate_alternating_cycles`` wrap listed cycles in
``AlternatingCycle``s; ``is_uniquely_restricted`` runs the decision on the
matching's saturated mask.  All three seed every matched edge.  The th9
rule runs the decision on its own walk's mate array and mask.

The unique-perfect-matching question is one search, the
``perfect_matching_search`` fact of ``facts.Facts``: the first perfect
matching, then the first alternating cycle with respect to it.  Every
reader (``has_unique_perfect_matching``, the fast greedoid verdict, the
classification report and th8) reads that one pair, or the verdict
``Facts.unique_perfect_matching`` drawn from it.

Favaron's property P is defined once, per edge, by ``_edge_has_p``:
``check_property_p`` asks it of each edge of a perfect matching, and th11
asks it of each edge of the graph.

All enumeration is exhaustive DFS over canonical edge order, exact and
deterministic at this scale (n <= 16).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import (
    Edge,
    Graph,
    MismatchError,
    UsageError,
    VertexSet,
    _derived,
    bits,
)


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges of one graph."""

    graph: Graph
    edges: tuple[Edge, ...]
    # the mask of saturated vertices, kept from the overlap check
    saturated_bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        used = 0
        for e in self.edges:
            if not isinstance(e, Edge):
                raise UsageError("matching edges must be Edge values")
            if not self.graph.adjacent(e.u, e.v):
                raise MismatchError(f"edge {e} is not present in the graph")
            m = (1 << e.u) | (1 << e.v)
            if used & m:
                raise UsageError(f"edges share a vertex at {e}")
            used |= m
        object.__setattr__(self, "saturated_bits", used)

    @classmethod
    def of(cls, g: Graph, *pairs: tuple[int | str, int | str]) -> "Matching":
        return cls(g, tuple(Edge.of(g.vertex(a), g.vertex(b)) for a, b in pairs))

    def saturated(self) -> VertexSet:
        return VertexSet(self.graph, self.saturated_bits)

    def saturates(self, v: int | str) -> bool:
        return bool(self.saturated_bits >> self.graph.vertex(v) & 1)

    def is_perfect(self) -> bool:
        return self.saturated_bits == self.graph.full_mask

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, e: Edge) -> bool:
        return e in self.edges

    def __repr__(self):
        lab = self.graph.label_of
        return "{%s}" % ",".join(f"{lab(u)}{lab(v)}" for u, v in self.edges)


@dataclass(frozen=True)
class AlternatingCycle:
    """An even cycle whose edges alternate inside/outside a matching.

    ``vertices`` lists the cycle once; edge i runs vertices[i] ->
    vertices[i+1] (wrapping), and ``in_matching[i]`` flags whether that
    edge lies in the reference matching.
    """

    graph: Graph
    vertices: tuple[int, ...]
    in_matching: tuple[bool, ...]

    def __post_init__(self):
        k = len(self.vertices)
        if k < 4 or k % 2:
            raise ValueError("alternating cycles have even length >= 4")
        if len(set(self.vertices)) != k or len(self.in_matching) != k:
            raise ValueError("malformed cycle")
        for i in range(k):
            u, v = self.vertices[i], self.vertices[(i + 1) % k]
            if not self.graph.adjacent(u, v):
                raise ValueError(f"cycle step {u}-{v} is not an edge")
            if self.in_matching[i] == self.in_matching[(i + 1) % k]:
                raise ValueError("cycle edges do not alternate")

    @property
    def length(self) -> int:
        return len(self.vertices)

    def edges(self) -> tuple[Edge, ...]:
        k = len(self.vertices)
        return tuple(
            Edge.of(self.vertices[i], self.vertices[(i + 1) % k]) for i in range(k)
        )

    def chords(self) -> tuple[Edge, ...]:
        """Graph edges joining non-consecutive cycle vertices."""
        k = len(self.vertices)
        out = []
        for i in range(k):
            for j in range(i + 2, k):
                if i == 0 and j == k - 1:
                    continue
                u, v = self.vertices[i], self.vertices[j]
                if self.graph.adjacent(u, v):
                    out.append(Edge.of(u, v))
        return tuple(out)

    def is_chordless(self) -> bool:
        return not self.chords()

    def __repr__(self):
        lab = self.graph.label_of
        return "(%s)" % "-".join(lab(v) for v in self.vertices)


def _check_matching(g: Graph, m: Matching) -> None:
    if m.graph != g:
        raise MismatchError("matching does not belong to this graph")


def mu(g: Graph, memo: dict[int, int] | None = None) -> int:
    """Size of a maximum matching.

    ``memo`` is a ``_mu_on`` memo of g to read and fill; ``Facts`` shares
    one between mu and ``_matchings``.
    """
    return _mu_on(g, g.full_mask, {} if memo is None else memo)


def _mu_on(g: Graph, avail: int, memo: dict[int, int]) -> int:
    """Maximum matching size of the subgraph induced by ``avail``.

    The lowest free vertex is matched to each free neighbour in turn, then
    left unmatched.  The search stops once it reaches
    ``avail.bit_count() // 2``, which no matching exceeds, and leaves the
    vertex unmatched only while the other ``avail.bit_count() - 1``
    vertices could still hold a larger matching.  ``memo`` maps free-vertex
    masks to sizes; it is valid for one graph only, and every mask of that
    graph may share it.
    """
    free = avail.bit_count()
    if free < 2:
        return 0
    got = memo.get(avail)
    if got is not None:
        return got
    low = avail & -avail
    rest = g.adj[low.bit_length() - 1] & avail
    best = 0
    cap = free // 2
    while rest and best < cap:
        u = rest & -rest
        cand = 1 + _mu_on(g, avail ^ low ^ u, memo)
        if cand > best:
            best = cand
        rest ^= u
    if best < (free - 1) // 2:
        cand = _mu_on(g, avail ^ low, memo)
        if cand > best:
            best = cand
    memo[avail] = best
    return best


def enumerate_matchings(g: Graph) -> list[Matching]:
    """Every matching of g, the empty one included: by size, then in lexicographic
    edge order.  One pass over the edges, last first, extends each matching found that
    misses the edge; reversed, that list is lexicographic within each size."""
    found = [((), 0)]
    for e in reversed(g.edges()):
        ends = 1 << e.u | 1 << e.v
        found += [((e, *es), used | ends) for es, used in found if not used & ends]
    return sorted((_derived(Matching, g, es, used) for es, used in reversed(found)), key=len)


def enumerate_maximum_matchings(g: Graph) -> list[Matching]:
    """All maximum matchings, in lexicographic edge order, no duplicates."""
    from .facts import Facts
    return Facts(g).maximum_matchings


def enumerate_perfect_matchings(g: Graph) -> list[Matching]:
    """All perfect matchings, in lexicographic edge order."""
    return [] if g.n % 2 else list(_matchings(g, g.n // 2, {}))


def count_perfect_matchings(g: Graph) -> int:
    """Number of perfect matchings, by memoised recursion on the free-vertex mask."""
    if g.n % 2:
        return 0
    return _count_perfect_matchings_on(g, g.full_mask, {})


def _count_perfect_matchings_on(g: Graph, avail: int, memo: dict[int, int]) -> int:
    """Number of perfect matchings of the subgraph induced by ``avail``.

    The lowest free vertex is matched to each free neighbour in turn.
    ``memo`` maps free-vertex masks to counts; it is valid for one graph
    only, and every mask of that graph may share it.
    """
    if not avail:
        return 1
    got = memo.get(avail)
    if got is not None:
        return got
    low = avail & -avail
    rest = g.adj[low.bit_length() - 1] & avail
    total = 0
    while rest:
        u = rest & -rest
        total += _count_perfect_matchings_on(g, avail ^ low ^ u, memo)
        rest ^= u
    memo[avail] = total
    return total


def _matchings(g: Graph, size: int, memo: dict[int, int]):
    """Every matching of g with ``size`` edges, in lexicographic edge order.

    The walk matches the lowest free vertex v to each free neighbour in
    ascending order, then leaves v unmatched, and enters only masks whose
    ``_mu_on`` still allows the edges it needs, so it never backtracks.
    ``memo`` is the ``_mu_on`` memo of g it reads and fills.

    The order is lexicographic without a sort.  Two matchings agree up to
    the branch point where they part, at some lowest free vertex v.  There
    the earlier one took (v, u) with the smaller u, or took (v, u) while
    the later one left v unmatched, so that the later one's next edge
    starts after v.  Every matching yielded has ``size`` edges, so neither
    is a prefix of the other, and the earlier one has the smaller edge at
    the first position where they differ.
    """
    chosen: list[Edge] = []

    def walk(avail: int, need: int, used: int):
        if not need:
            yield _derived(Matching, g, tuple(chosen), used)
            return
        low = avail & -avail
        v = low.bit_length() - 1
        rest = g.adj[v] & avail
        while rest:
            u = rest & -rest
            sub = avail ^ low ^ u
            if _mu_on(g, sub, memo) >= need - 1:
                chosen.append(Edge(v, u.bit_length() - 1))
                yield from walk(sub, need - 1, used | low | u)
                chosen.pop()
            rest ^= u
        # with 2 * need free vertices left, v must be matched
        if 2 * need < avail.bit_count() and _mu_on(g, avail ^ low, memo) >= need:
            yield from walk(avail ^ low, need, used)

    if _mu_on(g, g.full_mask, memo) >= size:
        yield from walk(g.full_mask, size, 0)


def _mate_of(g: Graph, m: Matching) -> list[int]:
    mate = [-1] * g.n
    for u, v in m.edges:
        mate[u], mate[v] = v, u
    return mate


def _alternating_cycles(adj: tuple[int, ...], seeds: tuple[Edge, ...], mate: list[int]):
    """Alternating cycles through the edges ``seeds`` of the matching ``mate``,
    as vertex tuples whose first edge is a seed, once per seed on them.

    DFS over alternating walks from each seed ab in order, extending through
    ascending neighbours and closing at a.  ``adj`` is the graph's adjacency
    and ``mate[v]`` is v's partner or -1; seeding every matched edge finds
    every alternating cycle.
    """
    for a, b in seeds:
        path = [a, b]
        onpath = (1 << a) | (1 << b)
        # rest: untried neighbours of the walk's end; stack: those of earlier ends
        rest = adj[b] & ~(1 << a)
        stack: list[int] = []
        while True:
            if not rest:
                if not stack:
                    break
                rest = stack.pop()
                onpath ^= (1 << path.pop()) | (1 << path.pop())
                continue
            low = rest & -rest
            rest ^= low
            if low >> a & 1:
                if len(path) >= 4:
                    yield tuple(path)
                continue
            if onpath & low:
                continue
            # the path holds whole matched edges, so a free u has a free mate
            u = low.bit_length() - 1
            w = mate[u]
            if w < 0:
                continue
            path += (u, w)
            onpath |= low | (1 << w)
            stack.append(rest)
            rest = adj[w] & ~low


def _cycle_free(adj: tuple[int, ...], seeds: tuple[Edge, ...], mate: list[int],
                saturated: int) -> bool:
    """True when no alternating cycle of the matching ``mate`` passes through a seed.

    ``saturated`` is the mask of matched vertices.  An alternating cycle
    holds whole matched edges, so from a seed ab the DFS steps from the
    walk's end only onto saturated vertices u off the path, then along the
    matched edge u-w, and decides as soon as w is adjacent to a: the cycle
    closes by the edge w-a, which is not matched, since a's mate is b.  A
    seed whose a has no saturated neighbour but b closes no cycle.  The
    stack keeps each earlier end's untried steps with the path's mask, and
    no path, since nothing is reported.
    """
    for a, b in seeds:
        if not adj[a] & saturated & ~(1 << b):
            continue
        onpath = (1 << a) | (1 << b)
        # rest: untried steps from the walk's end; stack: (rest, onpath) of earlier ends
        rest = adj[b] & saturated & ~onpath
        stack: list[tuple[int, int]] = []
        while True:
            if not rest:
                if not stack:
                    break
                rest, onpath = stack.pop()
                continue
            low = rest & -rest
            rest ^= low
            w = mate[low.bit_length() - 1]
            if adj[w] >> a & 1:
                return False
            stack.append((rest, onpath))
            onpath |= low | (1 << w)
            rest = adj[w] & saturated & ~onpath
    return True


def _cycle_of(g: Graph, vertices: tuple[int, ...]) -> AlternatingCycle:
    flags = tuple(i % 2 == 0 for i in range(len(vertices)))
    return _derived(AlternatingCycle, g, vertices, flags)


def find_alternating_cycle(g: Graph, m: Matching) -> AlternatingCycle | None:
    """First alternating cycle with respect to m, or None."""
    _check_matching(g, m)
    first = next(_alternating_cycles(g.adj, m.edges, _mate_of(g, m)), None)
    return None if first is None else _cycle_of(g, first)


def enumerate_alternating_cycles(g: Graph, m: Matching) -> list[AlternatingCycle]:
    """All distinct alternating cycles (distinct as edge sets)."""
    _check_matching(g, m)
    found: dict[frozenset, AlternatingCycle] = {}
    for vertices in _alternating_cycles(g.adj, m.edges, _mate_of(g, m)):
        cyc = _cycle_of(g, vertices)
        found.setdefault(frozenset(cyc.edges()), cyc)
    return list(found.values())


def is_uniquely_restricted(g: Graph, m: Matching) -> bool:
    """True when m has no alternating cycle (empty matchings vacuously qualify)."""
    _check_matching(g, m)
    return _cycle_free(g.adj, m.edges, _mate_of(g, m), m.saturated_bits)


def has_unique_perfect_matching(g: Graph) -> tuple[bool, Matching | None]:
    """(True, the matching) when exactly one perfect matching exists."""
    from .facts import Facts
    facts = Facts(g)
    unique = facts.unique_perfect_matching
    return unique, facts.perfect_matching_search[0] if unique else None


def find_alternating_c4(g: Graph, m: Matching) -> AlternatingCycle | None:
    """First chordless alternating 4-cycle with respect to a maximum matching.

    A candidate uses two matched edges ab, xy joined by two non-matched
    edges; chordless means the remaining two vertex pairs are non-adjacent.
    """
    _check_matching(g, m)
    if len(m) != mu(g):
        raise UsageError("find_alternating_c4 needs a maximum matching")
    return _find_alternating_c4(g, m)


def _find_alternating_c4(g: Graph, m: Matching) -> AlternatingCycle | None:
    """``find_alternating_c4`` with no check that m is a maximum matching of g."""
    es = m.edges
    for i in range(len(es)):
        a, b = es[i]
        for j in range(i + 1, len(es)):
            x, y = es[j]
            for p, q in ((x, y), (y, x)):
                # cycle a-b .. b-p .. p-q .. q-a; diagonals a-p and b-q must be absent
                if (
                    g.adjacent(b, p)
                    and g.adjacent(q, a)
                    and not g.adjacent(a, p)
                    and not g.adjacent(b, q)
                ):
                    return _derived(AlternatingCycle, g, (a, b, p, q), (True, False, True, False))
    return None


def check_property_p(g: Graph, m: Matching) -> tuple[bool, Edge | None]:
    """Neighbourhood condition that characterises very well-covered graphs:
    every matched edge has property P (``_edge_has_p``).  Returns the first
    violating edge when the check fails.
    """
    _check_matching(g, m)
    if not m.is_perfect():
        raise UsageError("check_property_p needs a perfect matching")
    for e in m.edges:
        if not _edge_has_p(g.adj, e.u, e.v):
            return False, e
    return True, None


def _edge_has_p(adj: tuple[int, ...], x: int, y: int) -> bool:
    """Favaron's property P on the edge xy of the graph with adjacency
    ``adj``: x and y share no neighbour, and every other neighbour of x is
    adjacent to every other neighbour of y."""
    if adj[x] & adj[y]:
        return False
    others_y = adj[y] & ~(1 << x)
    rest = adj[x] & ~(1 << y)
    while rest:
        low = rest & -rest
        if others_y & ~adj[low.bit_length() - 1]:
            return False
        rest ^= low
    return True


def _chordless_cycle_through(g: Graph, x: int, y: int) -> list[int] | None:
    """A chordless cycle of length 3 or of length 5 and up through the edge
    xy, as a vertex list from x, else None: a common neighbour first, then
    an induced path of at least 4 edges.  In a very well-covered graph no
    perfect-matching edge has one; rule lem1 checks that edge by edge."""
    common = g.adj[x] & g.adj[y]
    if common:
        return [x, y, next(bits(common))]
    return _induced_path(g, x, y, min_edges=4)


def _induced_path(g: Graph, x: int, y: int, min_edges: int) -> list[int] | None:
    """An induced x..y path with >= min_edges edges whose only extra
    adjacency is the edge xy itself, else None.

    Closing such a path with the edge xy yields a chordless cycle, which is
    what ``_chordless_cycle_through`` is after.
    """

    def dfs(path, onpath):
        u = path[-1]
        interior = onpath & ~(1 << u)
        for w in bits(g.adj[u]):
            if w == y:
                # y may touch only x (the closing edge) and the path's end
                if len(path) >= min_edges and not g.adj[y] & interior & ~(1 << x):
                    return path + [y]
                continue
            if onpath >> w & 1:
                continue
            # keep the path induced: w may touch nothing before u
            if g.adj[w] & interior:
                continue
            got = dfs(path + [w], onpath | (1 << w))
            if got is not None:
                return got
        return None

    return dfs([x], 1 << x)
