"""The facts of one graph that two or more readers share, each computed once.

A corpus item is a ``Facts``: every source of ``corpus`` yields one per
graph, the corpus filter and ``verify``'s rules read the same one, and it
is dropped with the item.  ``report.analyze_graph`` builds one for its
graph.  So no cache outlives its graph.  A fact calls its function
through this module's name for it, so a tracer or a test that rebinds the
name reaches the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .classifiers import _very_well_covered, _well_covered
from .graphs import Graph
from .greedoid import check_accessibility, check_exchange
from .matching import (Matching, _count_perfect_matchings_on, count_perfect_matchings,
                       enumerate_maximum_matchings, mu)
from .stability import StableSetFamily, _omega, _psi, _stable_sets, alpha


class _fact(cached_property):
    """``cached_property`` without the lock it takes before Python 3.12."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


@dataclass(eq=False)
class Facts:
    """One graph, its corpus ``name``, the ``base`` and ``parts`` of a corona, and its facts."""

    graph: Graph
    name: str | None = None
    base: Graph | None = None
    parts: tuple[Graph, ...] = ()
    _pm_counts: dict[int, int] = field(default_factory=dict, init=False, repr=False)

    @_fact
    def alpha(self) -> int:
        return alpha(self.graph)

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
        return _well_covered(self.graph, self.alpha, self.stable_sets)

    @_fact
    def very_well_covered(self) -> bool:
        return _very_well_covered(self.graph, lambda: self.alpha, lambda: self.well_covered)

    @_fact
    def psi(self) -> StableSetFamily:
        return _psi(self.graph, self.stable_sets)

    @_fact
    def omega(self) -> StableSetFamily:
        return _omega(self.graph, self.alpha, self.stable_sets)

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
    def maximum_matchings(self) -> list[Matching]:
        return enumerate_maximum_matchings(self.graph)

    def unique_pm_on(self, saturated: int) -> bool:
        """Definitional uniquely-restricted test on a matching's saturated
        mask, through one count memo shared by every matching of the graph."""
        return _count_perfect_matchings_on(self.graph, saturated, self._pm_counts) == 1
