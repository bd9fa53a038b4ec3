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
Both ``psi_is_greedoid`` and ``matching_from_chains`` read the facts they
need off one ``Facts(g)``, so each takes the stable-set walk once.

The axiom checks take a ``SetSystem``.  It lives in ``stability``, where
every family the package builds is made as its subclass
``StableSetFamily``, so psi goes to the checks as ``psi_enumerate``
returns it.

The exchange check has two deciders and one witness path.  For each size k
the pair scan records, for every member Y of size k, the mask of vertices v
with Y+{v} a member, found by dropping one vertex at a time from the members
of size k+1; a pair X, Y then passes with a single AND.  Once a level pair
has more than 2^(n-1) pairs (``_LATTICE_CROSSOVER``), on a ground set of at
most ``MAX_VERTICES`` = 16 elements, it is decided instead on 2^n-bit
bitsets over the subset lattice, at a cost of n/4 big-integer ANDs per
member of size k+1.  Only the pair scan finds witnesses: when the lattice
meets the first failing X, the scan runs on that X's row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .graphs import MAX_VERTICES, Edge, Graph, UsageError, VertexSet, bits, closed_neighborhood_bits
from .matching import AlternatingCycle, Matching
from .stability import SetSystem, _psi_member_bits


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


# A level pair (F_k, F_{k+1}) over n <= MAX_VERTICES elements is decided on
# the subset lattice when |F_k| * |F_{k+1}| > 2^n * _LATTICE_CROSSOVER.  On
# random level pairs of n/2- and (n/2+1)-sets that pass (Python 3.11, one
# core of a Xeon), the lattice overtakes the scan between 0.25 and 1 pairs
# per subset at n = 8 and between 0.06 and 0.25 at n = 10..16; at one pair
# per subset it took 21 us against 31 us at n = 8, and 0.65 ms against
# 2.9 ms at n = 16.  At 0.5, exchange over the accessible families of the
# default coronas corpus (its coronas and their parts) fell 0.12 -> 0.08 s,
# and over those of the connected graphs to n = 8 it stayed at 0.04 s.
_LATTICE_CROSSOVER = 0.5


@lru_cache(maxsize=None)
def _holds(n: int) -> tuple[int, ...]:
    """Per element v < n, the 2^n-bit lattice bitset of the subsets holding v.

    Cached per n; with n <= 16 every entry together stays under 0.25 MB.
    """
    out = []
    for v in range(n):
        span = 1 << v
        pattern = ((1 << span) - 1) << span
        span *= 2
        while span < 1 << n:
            pattern |= pattern << span
            span *= 2
        out.append(pattern)
    return tuple(out)


def _lattice(masks: list[int], n: int) -> int:
    """The 2^n-bit integer whose bit m is set exactly for the masks m given."""
    b = bytearray(((1 << n) + 7) >> 3)
    for m in masks:
        b[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(b, "little")


def _first_uncovered(ys: list[int], xs: list[int], n: int) -> int | None:
    """The first X of ``xs``, ascending, that some Y of ``ys`` fails against.

    On lattice bitsets: ``(fx & holds[v]) >> 2^v`` is the set of Y with
    Y+{v} in ``xs`` (v not in Y), so a Y passes X exactly when it lies in
    the union of those sets over v in X.  Per group of four elements, a
    table indexed by X's bits there holds the Y of ``ys`` outside that
    group's union; X passes when the AND of its ceil(n/4) entries is empty.
    """
    fy, fx, holds = _lattice(ys, n), _lattice(xs, n), _holds(n)
    tables = []
    for lo in range(0, n, 4):
        table = [fy]
        for v in range(lo, min(lo + 4, n)):
            stuck = ~((fx & holds[v]) >> (1 << v))
            table += [t & stuck for t in table]
        tables.append((lo, table))
    (_, first), *rest = tables
    for x in xs:
        miss = first[x & 15]
        for lo, table in rest:
            miss &= table[x >> lo & 15]
        if miss:
            return x
    return None


def check_exchange(f: SetSystem) -> tuple[bool, tuple[int, int] | None]:
    """For members X, Y with |X| = |Y|+1 some x in X-Y keeps Y+{x} a member.

    Two deciders, one witness path.  The pair scan: level by level,
    ``ext[y]`` is the mask of vertices v with y+{v} a member, built in one
    pass over the members one larger (each drops one vertex at a time).
    ext[y] never meets y, so a pair passes exactly when ``x & ext[y]`` is
    non-zero; pairs are visited x-outer, y-inner in ascending order.  A
    level pair with more than 2^n * ``_LATTICE_CROSSOVER`` pairs is decided
    instead on the subset lattice (``_first_uncovered``), unless the ground
    set has more than ``MAX_VERTICES`` = 16 elements, which would make its
    bitsets too long.  When the lattice finds a failing X, the pair scan
    runs on that X's row alone, so the first failing pair is returned either
    way.
    """
    by_size: dict[int, list[int]] = {}
    for m in f.members:
        by_size.setdefault(m.bit_count(), []).append(m)
    n = f.ground_size
    for k, ys in sorted(by_size.items()):
        xs = by_size.get(k + 1)
        if not xs:
            continue
        rows = xs
        if n <= MAX_VERTICES and len(ys) * len(xs) > (1 << n) * _LATTICE_CROSSOVER:
            x = _first_uncovered(ys, xs, n)
            if x is None:
                continue
            rows = (x,)
        ext = dict.fromkeys(ys, 0)
        for x in xs:
            rest = x
            while rest:
                low = rest & -rest
                y = x ^ low
                if y in ext:
                    ext[y] |= low
                rest ^= low
        for x in rows:
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
    criterion (mode ``fast``): it reads ``Facts.unique_perfect_matching``
    and carries the unique perfect matching or an alternating cycle (none
    when there is no perfect matching) from the search behind it.  On any
    other graph both axioms are checked on the enumerated family (mode
    ``bruteforce``); a negative verdict carries an inaccessible member or an
    exchange-violating pair.
    """
    from .facts import Facts

    facts = Facts(g)
    if facts.very_well_covered:
        pm, cyc = facts.perfect_matching_search
        unique = facts.unique_perfect_matching
        return GreedoidVerdict(unique, "fast", unique_matching=pm if unique else None,
                               alternating_cycle=cyc)

    ok, bad = facts.accessibility
    if not ok:
        return GreedoidVerdict(False, "bruteforce", inaccessible_member=VertexSet(g, bad))
    ok, pair = facts.exchange
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
    from .facts import Facts

    facts = Facts(g)
    if not facts.very_well_covered:
        raise UsageError("matching_from_chains needs a very well-covered graph")
    if not facts.unique_perfect_matching:
        raise UsageError("matching_from_chains needs a greedoid family")
    s = VertexSet(g, facts.omega.members[0])
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
