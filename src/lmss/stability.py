"""Stable sets, the stability number, and local maximum stable sets.

A set S is a *local maximum stable set* when S is a maximum stable set of
the subgraph induced by its closed neighbourhood N[S].  The family of all
such sets (written ``psi`` here) always contains the empty set.

Every stable-set family is read off one walk, ``_stable_sets``, which
lists each stable set S together with N[S], in ascending mask order:

* psi keeps S with |S| = alpha(G[N[S]]), the definition, with alpha read
  from ``_alpha_on``, a memoised recursion on the vertex mask that visits
  only the masks those N[S] reach and always takes a pendant or isolated
  lowest vertex;
* the maximum stable sets keep |S| = alpha(G);
* the maximal stable sets (``classifiers.maximal_stable_sets``) keep
  N[S] = V.

``facts.Facts`` takes the one walk per graph, and defines psi and the
maximum stable sets on it and on one alpha memo; ``psi_enumerate``,
``omega_enumerate`` and ``classifiers.maximal_stable_sets`` read them there.
alpha runs on the copy that ``Facts._relabelled`` returns (from
``facts._RELABEL_CROSSOVER`` vertices on, the graph in breadth-first order,
where its memo is smaller; below it, the graph itself) with a table of N[v]
in the copy's labels.  The walk stays on the graph, so every S is a mask of
the graph, but it builds N[S] from that table, in the copy's labels, for
alpha to read.

Each family is a ``StableSetFamily``: a ``SetSystem`` whose ground set is
the graph's vertices.  Its constructors check the members; ``Facts`` builds
psi and omega, ascending and distinct by the walk, unchecked, and the
greedoid axiom checks read a family as it is.

Rules lem3 and lem65 check the paper's two shortcuts for very well-covered
graphs, ``_psi_member_counting`` and ``_chain_grows``, against psi.
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
    neighbourhood) or, only when v has two or more neighbours inside the
    mask, v stays out (drop v).  Some maximum stable set holds an isolated
    v, and one holds a pendant v with neighbour u: a maximum stable set
    without v holds u, else it could gain v, and may swap u for v.
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
    if nbrs & (nbrs - 1):
        without = _alpha_on(g, avail ^ low, memo)
        if without > best:
            best = without
    memo[avail] = best
    return best


def _stable_sets(g: Graph, closed: tuple[int, ...]) -> list[tuple[int, int]]:
    """Every stable set S of g with its closed neighbourhood, as ``(S, N[S])``
    mask pairs in ascending order of S, where ``closed[v]`` is N[v] in the
    labels that N[S] is wanted in.

    Built by top-vertex doubling: before vertex v the list holds every
    stable set on vertices below v; each of those that misses N(v) gains v.
    A set whose top vertex is v is larger than every set on lower vertices,
    and the appended pairs keep the order of their sources, so the list is
    ascending with no sort.
    """
    walk = [(0, 0)]
    for v, (nbrs, cv) in enumerate(zip(g.adj, closed)):
        bit = 1 << v
        walk += [(s | bit, c | cv) for s, c in walk if not s & nbrs]
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


def alpha(g: Graph, memo: dict[int, int] | None = None) -> int:
    """Stability number: maximum cardinality of a stable set (0 for the empty graph).

    ``memo`` is an ``_alpha_on`` memo of g to read and fill; ``Facts``
    shares one between alpha and psi.
    """
    return _alpha_on(g, g.full_mask, {} if memo is None else memo)


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
    from .facts import Facts
    return Facts(g).omega


def psi_member_oracle(g: Graph, s: VertexSet) -> bool:
    """Definitional membership test: s is a maximum stable set of g[N[s]]."""
    return _psi_member_bits(g, require_member(g, s))


def _psi_member_bits(g: Graph, mask: int) -> bool:
    if not is_stable_bits(g, mask):
        return False
    return mask.bit_count() == _alpha_on(g, closed_neighborhood_bits(g, mask), {})


def _psi_member_counting(g: Graph, mask: int) -> bool:
    """In a very well-covered graph, the stable set S = ``mask`` is in psi
    exactly when |S| = |N(S)|.  Rule lem3 checks it against psi."""
    return mask.bit_count() == neighborhood_bits(g, mask).bit_count()


def psi_enumerate(g: Graph) -> StableSetFamily:
    """The family of all local maximum stable sets, empty set included."""
    from .facts import Facts
    return Facts(g).psi


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


def _chain_grows(g: Graph, bmask: int, amask: int) -> bool:
    """In a very well-covered graph, with B = ``bmask`` in psi and the
    stable set A = ``amask`` B plus one vertex, A is in psi exactly when
    |N(A)| = |N(B)| + 1.  Rule lem65 checks it against psi."""
    return (
        neighborhood_bits(g, amask).bit_count()
        == neighborhood_bits(g, bmask).bit_count() + 1
    )
