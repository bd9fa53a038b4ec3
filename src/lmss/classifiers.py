"""Graph-class predicates: well-covered, very well-covered, Koenig-Egervary, etc.

All predicates are exact.  Well-coveredness reads the maximal stable sets
off the stable-set walk of ``stability``; the others test the definition
directly.  The Koenig-Egervary tests read alpha and mu from the memoised
recursions on the vertex mask (``stability._alpha_on``,
``matching._mu_on``), so no 2^n table is built.
"""

from __future__ import annotations

from itertools import combinations
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
    return [s for s, c in _stable_sets(g) if c == g.full_mask]


def is_well_covered(g: Graph) -> bool:
    """Every maximal stable set has maximum cardinality."""
    a = alpha(g)
    return all(m.bit_count() == a for m in maximal_stable_sets(g))


def has_isolated_vertices(g: Graph) -> bool:
    return any(mask == 0 for mask in g.adj)


def is_very_well_covered(g: Graph) -> bool:
    """Well-covered, no isolated vertices, and |V| = 2 alpha."""
    return _very_well_covered(g, lambda: is_well_covered(g))


def _very_well_covered(g: Graph, well_covered: Callable[[], bool]) -> bool:
    """The definition; the costly ``well_covered()`` is asked only if the rest holds."""
    return not has_isolated_vertices(g) and g.n == 2 * alpha(g) and well_covered()


def is_koenig_egervary(g: Graph) -> bool:
    return alpha(g) + mu(g) == g.n


def is_triangle_free(g: Graph) -> bool:
    return all(not g.adj[u] & g.adj[v] for u, v in g.edges())


def is_c4_free(g: Graph) -> bool:
    """No chordless 4-cycle (the two diagonals of a square must be absent)."""
    for quad in combinations(range(g.n), 4):
        a, b, c, d = quad
        # three ways to pair the quad into a cyclic order
        for w, x, y, z in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
            if (
                g.adjacent(w, x)
                and g.adjacent(x, y)
                and g.adjacent(y, z)
                and g.adjacent(z, w)
                and not g.adjacent(w, y)
                and not g.adjacent(x, z)
            ):
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
