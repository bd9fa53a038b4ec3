"""The facts of one graph that two or more readers share, each computed once.

A corpus item is a ``Facts``: every source of ``corpus`` yields one per
graph, the corpus filter and ``verify``'s rules read the same one, and it
is dropped with the item.  ``report.analyze_graph`` builds one for its
graph.  So no cache outlives its graph.  A fact calls its function
through this module's name for it, so a tracer or a test that rebinds the
name reaches the call.  Each derived fact (well-covered, psi, ...) is
defined here, on this graph's one alpha memo and one stable-set walk, and
so is the unique-perfect-matching search; the public function of the same
fact returns ``Facts(g)``'s value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .classifiers import has_isolated_vertices
from .graphs import Graph
from .greedoid import check_accessibility, check_exchange
from .matching import (AlternatingCycle, Matching, _count_perfect_matchings_on, _matchings,
                       count_perfect_matchings, enumerate_maximum_matchings,
                       find_alternating_cycle, mu)
from .stability import StableSetFamily, _alpha_on, _stable_sets, alpha


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
    _pm_counts: dict[int, int] = field(default_factory=dict, init=False, repr=False)

    @_fact
    def alpha(self) -> int:
        return alpha(self.graph, self._alpha_memo)

    @_fact
    def mu(self) -> int:
        return mu(self.graph)

    @_fact
    def koenig_egervary(self) -> bool:
        return self.alpha + self.mu == self.graph.n

    @_fact
    def perfect_matching_count(self) -> int:
        return count_perfect_matchings(self.graph)

    @_fact
    def stable_sets(self) -> list[tuple[int, int]]:
        """The stable-set walk: every ``(S, N[S])`` in ascending order of S."""
        return _stable_sets(self.graph)

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
        g, memo = self.graph, self._alpha_memo
        return StableSetFamily(g.n, tuple(
            s for s, c in self.stable_sets if s.bit_count() == _alpha_on(g, c, memo)), g)

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
        pm = None if g.n % 2 else next(_matchings(g, g.n // 2), None)
        return pm, None if pm is None else find_alternating_cycle(g, pm)

    @_fact
    def unique_perfect_matching(self) -> bool:
        """A perfect matching is uniquely restricted exactly when it is the
        only one, so the search finds a matching and no cycle."""
        pm, cyc = self.perfect_matching_search
        return pm is not None and cyc is None

    @_fact
    def maximum_matchings(self) -> list[Matching]:
        return enumerate_maximum_matchings(self.graph)

    def unique_pm_on(self, saturated: int) -> bool:
        """Definitional uniquely-restricted test on a matching's saturated
        mask, through one count memo shared by every matching of the graph."""
        return _count_perfect_matchings_on(self.graph, saturated, self._pm_counts) == 1
