"""Graph-class predicates: well-covered, very well-covered, Koenig-Egervary, etc.

All predicates are exact.  Well-coveredness, very well-coveredness and
Koenig-Egervary read ``Facts(g)``, where each is defined; the others test
the definition directly.  The test of psi members' neighbourhoods reads
mu from the memoised recursion on the vertex mask (``matching._mu_on``)
and alpha as the member's size, so no 2^n table is built.
"""

from __future__ import annotations

from .graphs import (
    Graph,
    VertexSet,
    _derived,
    bits,
    closed_neighborhood_bits,
)
from .matching import _mu_on, mu
from .stability import StableSetFamily, _stable_sets, psi_enumerate


def maximal_stable_sets(g: Graph) -> list[int]:
    """All inclusion-wise maximal stable sets, as masks in ascending order."""
    return [s for s, c in _stable_sets(g) if c == g.full_mask]


def is_well_covered(g: Graph) -> bool:
    """Every maximal stable set has maximum cardinality."""
    from .facts import Facts
    return Facts(g).well_covered


def has_isolated_vertices(g: Graph) -> bool:
    return any(mask == 0 for mask in g.adj)


def is_very_well_covered(g: Graph) -> bool:
    """Well-covered, no isolated vertices, and |V| = 2 alpha."""
    from .facts import Facts
    return Facts(g).very_well_covered


def is_koenig_egervary(g: Graph) -> bool:
    from .facts import Facts
    return Facts(g).koenig_egervary


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
    sub = _derived(Graph, g.n, tuple(pendant_adj), None)
    return mu(sub) * 2 == g.n


def psi_neighborhoods_are_ke(g: Graph) -> tuple[bool, VertexSet | None]:
    """Does every local maximum stable set have a Koenig-Egervary neighbourhood?

    Returns the first violating set (ascending mask order) when not.
    """
    return _psi_neighborhoods_are_ke(g, psi_enumerate(g), {})


def _psi_neighborhoods_are_ke(g: Graph, psi: StableSetFamily,
                              memo: dict[int, int]) -> tuple[bool, VertexSet | None]:
    """``psi_neighborhoods_are_ke`` read off the psi family of g: a member S
    has alpha(G[N[S]]) = |S| by definition, so only mu is computed, on g's memo."""
    for m in psi.members:
        closed = closed_neighborhood_bits(g, m)
        if m.bit_count() + _mu_on(g, closed, memo) != closed.bit_count():
            return False, VertexSet(g, m)
    return True, None
