"""Stable sets, the stability number, and local maximum stable sets.

A set S is a *local maximum stable set* when S is a maximum stable set of
the subgraph induced by its closed neighbourhood N[S].  The family of all
such sets (written ``psi`` here) always contains the empty set.

Every stable-set family is read off one walk, ``_stable_sets``, which
lists each stable set S together with N[S], in ascending mask order:

* psi (``psi_enumerate``) keeps S with |S| = alpha(G[N[S]]), the
  definition, with alpha read from ``_alpha_on``, a memoised recursion on
  the vertex mask that visits only the masks those N[S] reach;
* the maximum stable sets (``omega_enumerate``) keep |S| = alpha(G);
* the maximal stable sets (``classifiers.maximal_stable_sets``) keep
  N[S] = V.

Each family is a ``StableSetFamily``: a ``SetSystem`` whose ground set is
the graph's vertices.  It is validated once, when it is built, and the
greedoid axiom checks read it as it is.

The counting shortcut |S| = |N(S)| the paper licenses for very
well-covered graphs lives only in ``psi_member_vwc``, the growth test in
``check_chain_growth``; rules lem3 and lem65 read their unchecked forms,
and they and the test suite check both against the definition.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

from .graphs import (
    Graph,
    UsageError,
    VertexSet,
    bits,
    closed_neighborhood_bits,
    neighborhood_bits,
    require_member,
)


def _alpha_on(g: Graph, avail: int, memo: dict[int, int]) -> int:
    """alpha of the subgraph induced by the vertex mask ``avail``.

    For the lowest vertex v of the mask: either v goes in (drop its closed
    neighbourhood) or, only when v has a neighbour inside the mask, v stays
    out (drop v); an isolated v is always in some maximum stable set.
    ``memo`` maps masks to values; it is valid for one graph only, and every
    mask of that graph may share it.
    """
    if not avail:
        return 0
    got = memo.get(avail)
    if got is not None:
        return got
    low = avail & -avail
    nbrs = g.adj[low.bit_length() - 1] & avail
    best = 1 + _alpha_on(g, avail & ~(nbrs | low), memo)
    if nbrs:
        without = _alpha_on(g, avail ^ low, memo)
        if without > best:
            best = without
    memo[avail] = best
    return best


def _stable_sets(g: Graph) -> list[tuple[int, int]]:
    """Every stable set S of g with its closed neighbourhood, as ``(S, N[S])``
    mask pairs in ascending order of S.

    Built by top-vertex doubling: before vertex v the list holds every
    stable set on vertices below v; each of those that misses N(v) gains v.
    A set whose top vertex is v is larger than every set on lower vertices,
    and the appended pairs keep the order of their sources, so the list is
    ascending with no sort.
    """
    walk = [(0, 0)]
    for v, nbrs in enumerate(g.adj):
        bit = 1 << v
        closed = nbrs | bit
        walk += [(s | bit, c | closed) for s, c in walk if not s & nbrs]
    return walk


def is_stable(g: Graph, s: VertexSet) -> bool:
    """True when no edge of g has both endpoints in s."""
    mask = require_member(g, s)
    return is_stable_bits(g, mask)


def is_stable_bits(g: Graph, mask: int) -> bool:
    for v in bits(mask):
        if g.adj[v] & mask:
            return False
    return True


def alpha(g: Graph) -> int:
    """Stability number: maximum cardinality of a stable set (0 for the empty graph)."""
    return _alpha_on(g, g.full_mask, {})


@dataclass(frozen=True)
class SetSystem:
    """An explicit family of subsets of {0..ground_size-1}, ascending mask order."""

    ground_size: int
    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise UsageError("set systems must be non-empty families")
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("members must be distinct and ascending")
        if self.members[-1] >> self.ground_size:
            raise ValueError("member outside the ground set")

    @classmethod
    def from_sets(cls, ground_size: int, sets: Iterable[Iterable[int]]) -> "SetSystem":
        masks = set()
        for s in sets:
            m = 0
            for v in s:
                m |= 1 << v
            masks.add(m)
        return cls(ground_size, tuple(sorted(masks)))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, s: VertexSet | int) -> bool:
        mask = s.bits if isinstance(s, VertexSet) else s
        i = bisect_left(self.members, mask)
        return i < len(self.members) and self.members[i] == mask


@dataclass(frozen=True)
class StableSetFamily(SetSystem):
    """A family of stable sets of one graph, whose vertices are the ground set."""

    graph: Graph

    def __iter__(self) -> Iterator[VertexSet]:
        return (VertexSet(self.graph, m) for m in self.members)


def omega_enumerate(g: Graph) -> StableSetFamily:
    """All maximum stable sets of g."""
    return _omega(g, alpha(g), _stable_sets(g))


def _omega(g: Graph, a: int, walk: list[tuple[int, int]]) -> StableSetFamily:
    """``omega_enumerate`` read off alpha and the stable-set walk of g."""
    return StableSetFamily(g.n, tuple(s for s, _ in walk if s.bit_count() == a), g)


def psi_member_oracle(g: Graph, s: VertexSet) -> bool:
    """Definitional membership test: s is a maximum stable set of g[N[s]]."""
    return _psi_member_bits(g, require_member(g, s))


def _psi_member_bits(g: Graph, mask: int) -> bool:
    if not is_stable_bits(g, mask):
        return False
    return mask.bit_count() == _alpha_on(g, closed_neighborhood_bits(g, mask), {})


def psi_member_vwc(g: Graph, s: VertexSet) -> bool:
    """Fast membership for very well-covered graphs: |S| = |N(S)|.

    Raises when s is not stable or g is not very well-covered.
    """
    mask = require_member(g, s)
    if not is_stable_bits(g, mask):
        raise UsageError("psi_member_vwc needs a stable set")
    from .classifiers import is_very_well_covered

    if not is_very_well_covered(g):
        raise UsageError("psi_member_vwc needs a very well-covered graph")
    return _psi_member_counting(g, mask)


def _psi_member_counting(g: Graph, mask: int) -> bool:
    """``psi_member_vwc`` on a mask, with no check of its preconditions."""
    return mask.bit_count() == neighborhood_bits(g, mask).bit_count()


def psi_enumerate(g: Graph) -> StableSetFamily:
    """The family of all local maximum stable sets, empty set included."""
    return _psi(g, _stable_sets(g))


def _psi(g: Graph, walk: list[tuple[int, int]]) -> StableSetFamily:
    """``psi_enumerate`` read off the stable-set walk of g."""
    memo: dict[int, int] = {}
    return StableSetFamily(
        g.n, tuple(s for s, c in walk if s.bit_count() == _alpha_on(g, c, memo)), g
    )


def extends_to_maximum(g: Graph, s: VertexSet) -> VertexSet | None:
    """Some maximum stable set containing s (first in ascending mask order).

    Only local maximum stable sets are accepted; for those an extension
    always exists.
    """
    mask = require_member(g, s)
    if not _psi_member_bits(g, mask):
        raise UsageError("extends_to_maximum needs a local maximum stable set")
    for m in omega_enumerate(g).members:
        if mask & ~m == 0:
            return VertexSet(g, m)
    return None


def check_chain_growth(g: Graph, b: VertexSet, v: int | str) -> bool:
    """One-vertex growth test for chains in a very well-covered graph.

    With b a local maximum stable set and a = b + {v} stable, a is again a
    local maximum stable set exactly when |N(a)| = |N(b)| + 1.
    """
    bmask = require_member(g, b)
    vi = g.vertex(v)
    if bmask >> vi & 1:
        raise UsageError("vertex already in the base set")
    amask = bmask | 1 << vi
    if not is_stable_bits(g, amask):
        raise UsageError("extended set is not stable")
    if not _psi_member_bits(g, bmask):
        raise UsageError("base set is not a local maximum stable set")
    from .classifiers import is_very_well_covered

    if not is_very_well_covered(g):
        raise UsageError("check_chain_growth needs a very well-covered graph")
    return _chain_grows(g, bmask, amask)


def _chain_grows(g: Graph, bmask: int, amask: int) -> bool:
    """``check_chain_growth`` on masks, with no check of its preconditions."""
    return (
        neighborhood_bits(g, amask).bit_count()
        == neighborhood_bits(g, bmask).bit_count() + 1
    )
