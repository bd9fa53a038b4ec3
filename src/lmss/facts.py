"""The facts of one graph that two or more readers share, each computed once.

A corpus item is a ``Facts``: every source of ``corpus`` yields one per
graph, the corpus filter and ``verify``'s rules read the same one, and it
is dropped with the item.  ``report.analyze_graph`` builds one for its
graph.  So no cache outlives its graph.  A fact calls its function
through this module's name for it, so a tracer or a test that rebinds the
name reaches the call.  Each derived fact (well-covered, psi, ...) is
defined here, on this graph's one alpha memo and one stable-set walk, and
so are the maximum matchings and the unique-perfect-matching search, on
its one mu memo; the public function of the same fact returns
``Facts(g)``'s value.

alpha, psi's alpha probes and the perfect-matching count run on a copy of
the graph relabelled in breadth-first order (``_relabelled``), whose
memos are smaller, since their recursions branch on the lowest vertex of
a mask.  The stable-set walk stays on the graph, so psi's members are
masks of the graph, but the walk's N[S] is in the copy's labels.  The
matching searches, their certificates and the mu memo stay on the
graph's own labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .classifiers import has_isolated_vertices
from .graphs import Graph, bits
from .greedoid import check_accessibility, check_exchange
from .matching import (AlternatingCycle, Matching, _count_perfect_matchings_on, _matchings,
                       count_perfect_matchings, find_alternating_cycle, mu)
from .stability import StableSetFamily, _alpha_on, _stable_sets, alpha

# From this many vertices on, alpha, psi's alpha probes and the
# perfect-matching count run on the breadth-first copy; below it, on the
# graph itself.  Time with the copy / time without, for alpha + psi +
# perfect_matching_count on 60 seeded G(n, p) at each p = 0.2, 0.3 and
# 0.5, in process (Python 3.11, 2 shared cores; best of 7 alternating
# runs, one row per measurement; the copy built without Graph's checks):
#   n =  6    7    8    9    10   11   12   14   16
#     1.44 1.18 1.06 0.99 0.88 0.99 0.74 0.77 0.64
#     1.27 1.25 1.10 1.00 0.90 0.82 0.83 0.70 0.64
_RELABEL_CROSSOVER = 10


def _breadth_first_order(g: Graph) -> list[int]:
    """The vertices of g in breadth-first order (Cuthill & McKee, 1969):
    each component from its least-degree vertex, and each vertex's unvisited
    neighbours appended least degree first, ties broken by label (the sorts
    are stable, over ascending labels)."""
    degree = [nbrs.bit_count() for nbrs in g.adj]
    order: list[int] = []
    seen = 0
    for root in sorted(range(g.n), key=degree.__getitem__):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        order.append(root)
        i = len(order) - 1
        while i < len(order):
            fresh = g.adj[order[i]] & ~seen
            if fresh:
                seen |= fresh
                order += sorted(bits(fresh), key=degree.__getitem__)
            i += 1
    return order


class _fact(cached_property):
    """``cached_property`` without the lock it takes before Python 3.12."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


@dataclass(eq=False)
class Facts:
    """One graph, its corpus ``name``, the ``Facts`` of a corona's ``parts``, and its facts."""

    graph: Graph
    name: str | None = None
    parts: tuple[Facts, ...] = ()
    _alpha_memo: dict[int, int] = field(default_factory=dict, init=False, repr=False)
    _mu_memo: dict[int, int] = field(default_factory=dict, init=False, repr=False)
    _pm_counts: dict[int, int] = field(default_factory=dict, init=False, repr=False)

    @_fact
    def _relabelled(self) -> tuple[Graph, tuple[int, ...] | None]:
        """The graph relabelled in breadth-first order, and N[v] in its labels
        for each vertex v of the graph; below ``_RELABEL_CROSSOVER`` vertices,
        the graph itself and None, which ``_stable_sets`` reads as N[v]."""
        g = self.graph
        if g.n < _RELABEL_CROSSOVER:
            return g, None
        order = _breadth_first_order(g)
        bit = [0] * g.n
        for i, v in enumerate(order):
            bit[v] = 1 << i
        closed = []
        for v, nbrs in enumerate(g.adj):
            c = bit[v]
            while nbrs:
                low = nbrs & -nbrs
                c |= bit[low.bit_length() - 1]
                nbrs ^= low
            closed.append(c)
        return Graph._derived(g.n, tuple(closed[v] ^ bit[v] for v in order)), tuple(closed)

    @_fact
    def alpha(self) -> int:
        return alpha(self._relabelled[0], self._alpha_memo)

    @_fact
    def mu(self) -> int:
        return mu(self.graph, self._mu_memo)

    @_fact
    def koenig_egervary(self) -> bool:
        return self.alpha + self.mu == self.graph.n

    @_fact
    def perfect_matching_count(self) -> int:
        return count_perfect_matchings(self._relabelled[0])

    @_fact
    def stable_sets(self) -> list[tuple[int, int]]:
        """The stable-set walk: every ``(S, N[S])`` in ascending order of S,
        with N[S] in the labels of the copy that alpha runs on."""
        return _stable_sets(self.graph, self._relabelled[1])

    @_fact
    def well_covered(self) -> bool:
        """Every maximal stable set (N[S] = V on the walk) has size alpha."""
        a, full = self.alpha, self.graph.full_mask
        return all(s.bit_count() == a for s, c in self.stable_sets if c == full)

    @_fact
    def very_well_covered(self) -> bool:
        """No isolated vertex, n = 2 alpha, well-covered: the costliest test last."""
        g = self.graph
        return (not has_isolated_vertices(g) and g.n % 2 == 0 and g.n == 2 * self.alpha
                and self.well_covered)

    @_fact
    def psi(self) -> StableSetFamily:
        """The walk's S with |S| = alpha(G[N[S]]), through the graph's alpha memo."""
        g, copy, memo = self.graph, self._relabelled[0], self._alpha_memo
        return StableSetFamily(g.n, tuple(
            s for s, c in self.stable_sets if s.bit_count() == _alpha_on(copy, c, memo)), g)

    @_fact
    def omega(self) -> StableSetFamily:
        """The maximum stable sets: the walk's S with |S| = alpha."""
        a, g = self.alpha, self.graph
        return StableSetFamily(g.n, tuple(s for s, _ in self.stable_sets if s.bit_count() == a), g)

    @_fact
    def accessibility(self) -> tuple[bool, int | None]:
        return check_accessibility(self.psi)

    @_fact
    def exchange(self) -> tuple[bool, tuple[int, int] | None]:
        return check_exchange(self.psi)

    @_fact
    def greedoid(self) -> bool:
        """The brute-force verdict: psi satisfies both axioms."""
        return self.accessibility[0] and self.exchange[0]

    @_fact
    def perfect_matching_search(self) -> tuple[Matching | None, AlternatingCycle | None]:
        """The first perfect matching (or None) and the first alternating cycle
        with respect to it; it never counts, so th8 can check it by counting."""
        g = self.graph
        pm = None if g.n % 2 else next(_matchings(g, g.n // 2, self._mu_memo), None)
        return pm, None if pm is None else find_alternating_cycle(g, pm)

    @_fact
    def unique_perfect_matching(self) -> bool:
        """A perfect matching is uniquely restricted exactly when it is the
        only one, so the search finds a matching and no cycle."""
        pm, cyc = self.perfect_matching_search
        return pm is not None and cyc is None

    @_fact
    def maximum_matchings(self) -> list[Matching]:
        return list(_matchings(self.graph, self.mu, self._mu_memo))

    def unique_pm_on(self, saturated: int) -> bool:
        """Definitional uniquely-restricted test on a matching's saturated
        mask, through one count memo shared by every matching of the graph."""
        return _count_perfect_matchings_on(self.graph, saturated, self._pm_counts) == 1
