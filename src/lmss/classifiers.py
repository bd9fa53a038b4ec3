"""Graph-class predicates: well-covered, very well-covered, Koenig-Egervary, etc.

All predicates are exact.  Well-coveredness reads the maximal stable sets
off the stable-set walk of ``stability``; the others test the definition
directly.  The Koenig-Egervary tests read alpha and mu from the memoised
recursions on the vertex mask (``stability._alpha_on``,
``matching._mu_on``), so no 2^n table is built.
"""

from __future__ import annotations

from typing import Callable

from .graphs import (
    Graph,
    VertexSet,
    bits,
    closed_neighborhood_bits,
)
from .matching import _mu_on, mu
from .stability import _alpha_on, _stable_sets, alpha, psi_enumerate


def maximal_stable_sets(g: Graph) -> list[int]:
    """All inclusion-wise maximal stable sets, as masks in ascending order."""
    return _maximal_stable_sets(g, _stable_sets(g))


def _maximal_stable_sets(g: Graph, walk: list[tuple[int, int]]) -> list[int]:
    return [s for s, c in walk if c == g.full_mask]


def is_well_covered(g: Graph) -> bool:
    """Every maximal stable set has maximum cardinality."""
    return _well_covered(g, alpha(g), _stable_sets(g))


def _well_covered(g: Graph, a: int, walk: list[tuple[int, int]]) -> bool:
    """``is_well_covered`` read off alpha and the stable-set walk of g."""
    return all(m.bit_count() == a for m in _maximal_stable_sets(g, walk))


def has_isolated_vertices(g: Graph) -> bool:
    return any(mask == 0 for mask in g.adj)


def is_very_well_covered(g: Graph) -> bool:
    """Well-covered, no isolated vertices, and |V| = 2 alpha."""
    a = alpha(g)
    return _very_well_covered(g, a, lambda: _well_covered(g, a, _stable_sets(g)))


def _very_well_covered(g: Graph, a: int, well_covered: Callable[[], bool]) -> bool:
    """The definition, given alpha; the costly ``well_covered()`` is asked
    only if the rest holds."""
    return not has_isolated_vertices(g) and g.n == 2 * a and well_covered()


def is_koenig_egervary(g: Graph) -> bool:
    return alpha(g) + mu(g) == g.n


def is_triangle_free(g: Graph) -> bool:
    return all(not g.adj[u] & g.adj[v] for u, v in g.edges())


def is_c4_free(g: Graph) -> bool:
    """No chordless 4-cycle (the two diagonals of a square must be absent).

    A chordless square w-x-y-z exists iff some non-adjacent pair w, y has
    two non-adjacent common neighbours x, z.
    """
    adj = g.adj
    for w in range(g.n):
        later = g.full_mask >> w + 1 << w + 1
        for y in bits(later & ~adj[w]):
            common = adj[w] & adj[y]
            for x in bits(common):
                if common & ~adj[x] & ~(1 << x):
                    return False
    return True


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in bits(g.adj[v]):
                if color[u] < 0:
                    color[u] = color[v] ^ 1
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def is_forest(g: Graph) -> bool:
    """Acyclic: a graph with c components is a forest iff it has n - c edges."""
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
    return g.edge_count == g.n - components


def has_pendant_perfect_matching(g: Graph) -> bool:
    """A perfect matching made of pendant edges exists (the H-with-leaves shape)."""
    if g.n % 2:
        return False
    pendant_adj = [0] * g.n
    for u, v in g.edges():
        if g.degree(u) == 1 or g.degree(v) == 1:
            pendant_adj[u] |= 1 << v
            pendant_adj[v] |= 1 << u
    sub = Graph(g.n, tuple(pendant_adj))
    return mu(sub) * 2 == g.n


def psi_neighborhoods_are_ke(g: Graph) -> tuple[bool, VertexSet | None]:
    """Does every local maximum stable set have a Koenig-Egervary neighbourhood?

    Returns the first violating set (ascending mask order) when not.  alpha
    and mu of the neighbourhoods are read through one memo each per call.
    """
    amemo: dict[int, int] = {}
    mmemo: dict[int, int] = {}
    for m in psi_enumerate(g).members:
        closed = closed_neighborhood_bits(g, m)
        if _alpha_on(g, closed, amemo) + _mu_on(g, closed, mmemo) != closed.bit_count():
            return False, VertexSet(g, m)
    return True, None
