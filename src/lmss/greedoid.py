"""Set-system axioms and the greedoid decision for local maximum stable sets.

A greedoid is a non-empty set system satisfying accessibility (every
non-empty member loses some element and stays a member) and exchange
(a member one larger than another donates an element).  Chains bottom out
at singletons, whose predecessor is the empty set; the empty set therefore
counts as an implicit member during the accessibility check.

For very well-covered graphs the family of local maximum stable sets is a
greedoid exactly when the graph has a unique perfect matching.
``psi_is_greedoid`` makes one decision: by that criterion (the "fast"
route) on very well-covered graphs, and by the axioms on the enumerated
family (the "bruteforce" route) on every other graph.  A negative
brute-force verdict carries the failing axiom's witness; a positive one
carries no certificate, since the axioms hold on the whole family.  The
brute-force verdict on any graph is ``is_greedoid(psi_enumerate(g))``.

The axiom checks take a ``SetSystem``.  It lives in ``stability``, where
every family the package builds is made as its subclass
``StableSetFamily``, so psi goes to the checks as ``psi_enumerate``
returns it.

The exchange check is a bitmask kernel.  For each size k it records, for
every member Y of size k, the mask of vertices v with Y+{v} a member,
found by dropping one vertex at a time from the members of size k+1.  A
pair X, Y then passes with a single AND, so the cost per level is one set
probe per element of a larger member plus one AND per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .classifiers import is_very_well_covered
from .graphs import Edge, Graph, UsageError, VertexSet, bits, closed_neighborhood_bits
from .matching import AlternatingCycle, Matching, _perfect_matching_and_cycle
from .stability import SetSystem, _psi_member_bits, omega_enumerate, psi_enumerate


def check_accessibility(f: SetSystem) -> tuple[bool, int | None]:
    """Every non-empty member must contain a one-smaller member.

    The empty set is treated as an implicit member, so singletons are
    always accessible.  Bits drop lowest first, up to the first one-smaller
    member.  Returns the first violating member, in ascending order, otherwise.
    """
    have = {0, *f.members}
    for x in f.members:
        rest = x
        while rest and x ^ (rest & -rest) not in have:
            rest &= rest - 1
        if x and not rest:
            return False, x
    return True, None


def check_exchange(f: SetSystem) -> tuple[bool, tuple[int, int] | None]:
    """For members X, Y with |X| = |Y|+1 some x in X-Y keeps Y+{x} a member.

    Level by level, ``ext[y]`` is the mask of vertices v with y+{v} a
    member, built in one pass over the members one larger (each drops one
    vertex at a time).  ext[y] never meets y, so a pair passes exactly when
    ``x & ext[y]`` is non-zero.  Pairs are visited x-outer, y-inner in
    ascending order, and the first failing pair is returned.
    """
    by_size: dict[int, list[int]] = {}
    for m in f.members:
        by_size.setdefault(m.bit_count(), []).append(m)
    for k, ys in sorted(by_size.items()):
        xs = by_size.get(k + 1)
        if not xs:
            continue
        ext = dict.fromkeys(ys, 0)
        for x in xs:
            rest = x
            while rest:
                low = rest & -rest
                y = x ^ low
                if y in ext:
                    ext[y] |= low
                rest ^= low
        for x in xs:
            for y, e in ext.items():
                if not x & e:
                    return False, (x, y)
    return True, None


def is_greedoid(f: SetSystem) -> bool:
    return check_accessibility(f)[0] and check_exchange(f)[0]


@dataclass(frozen=True)
class AccessibilityChain:
    """Vertex insertion order x1..xk whose prefixes all stay in the family."""

    graph: Graph
    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("chain repeats a vertex")
        for v in self.vertices:
            if not 0 <= v < self.graph.n:
                raise ValueError(f"vertex {v} outside the graph")

    def prefixes(self) -> Iterator[VertexSet]:
        m = 0
        for v in self.vertices:
            m |= 1 << v
            yield VertexSet(self.graph, m)

    def __len__(self) -> int:
        return len(self.vertices)


def accessibility_chain(g: Graph, s: VertexSet) -> AccessibilityChain | None:
    """A chain from the empty set up to s with every prefix locally maximum.

    Deterministic: the lexicographically least vertex is tried first at
    every step, with backtracking.  None when no chain exists.
    """
    if s.graph != g:
        raise UsageError("vertex set does not belong to this graph")
    if not _psi_member_bits(g, s.bits):
        raise UsageError("accessibility chains start from local maximum stable sets")

    target = s.bits

    def grow(prefix: int, order: list[int]):
        if prefix == target:
            return order
        for v in bits(target & ~prefix):
            nxt = prefix | 1 << v
            if _psi_member_bits(g, nxt):
                got = grow(nxt, order + [v])
                if got is not None:
                    return got
        return None

    got = grow(0, [])
    return AccessibilityChain(g, tuple(got)) if got is not None else None


@dataclass(frozen=True)
class GreedoidVerdict:
    """Decision plus certificate for the local-maximum-stable-set family."""

    holds: bool
    mode: str  # the route that decided: "fast" or "bruteforce"
    unique_matching: Matching | None = None
    inaccessible_member: VertexSet | None = None
    exchange_violation: tuple[VertexSet, VertexSet] | None = None
    alternating_cycle: AlternatingCycle | None = None

    def __bool__(self) -> bool:
        return self.holds


def psi_is_greedoid(g: Graph) -> GreedoidVerdict:
    """Decide whether the family of local maximum stable sets is a greedoid.

    On a very well-covered graph the decision is the unique-perfect-matching
    criterion (mode ``fast``): it reads the pair (first perfect matching,
    first alternating cycle) of the one search that
    ``has_unique_perfect_matching`` also reads, and carries the unique
    perfect matching or an alternating cycle (none when there is no perfect
    matching).  On any other graph both axioms are checked on the
    enumerated family (mode ``bruteforce``); a negative verdict carries an
    inaccessible member or an exchange-violating pair.
    """
    if is_very_well_covered(g):
        pm, cyc = _perfect_matching_and_cycle(g)
        if pm is None:
            return GreedoidVerdict(False, "fast")
        if cyc is None:
            return GreedoidVerdict(True, "fast", unique_matching=pm)
        return GreedoidVerdict(False, "fast", alternating_cycle=cyc)

    f = psi_enumerate(g)
    ok, bad = check_accessibility(f)
    if not ok:
        return GreedoidVerdict(False, "bruteforce", inaccessible_member=VertexSet(g, bad))
    ok, pair = check_exchange(f)
    if not ok:
        x, y = pair
        return GreedoidVerdict(
            False, "bruteforce", exchange_violation=(VertexSet(g, x), VertexSet(g, y))
        )
    return GreedoidVerdict(True, "bruteforce")


def matching_from_chains(g: Graph) -> Matching:
    """Rebuild the unique perfect matching of g from an accessibility chain.

    Walks the lexicographically least maximum stable set's chain; at every
    step the new vertex x sees exactly one neighbour y outside the closed
    neighbourhood of the previous prefix, and the pairs xy form the
    matching.  Requires a very well-covered graph whose family is a
    greedoid.
    """
    if not is_very_well_covered(g):
        raise UsageError("matching_from_chains needs a very well-covered graph")
    pm, cyc = _perfect_matching_and_cycle(g)
    if pm is None or cyc is not None:
        raise UsageError("matching_from_chains needs a greedoid family")
    omega = omega_enumerate(g)
    s = VertexSet(g, omega.members[0])
    chain = accessibility_chain(g, s)
    if chain is None:
        raise UsageError("no accessibility chain despite the greedoid property")
    edges = []
    prefix = 0
    for x in chain.vertices:
        fresh = g.adj[x] & ~closed_neighborhood_bits(g, prefix)
        if fresh.bit_count() != 1:
            raise UsageError("chain step does not expose exactly one new neighbour")
        y = next(bits(fresh))
        edges.append(Edge.of(x, y))
        prefix |= 1 << x
    return Matching(g, tuple(edges))
