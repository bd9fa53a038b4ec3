"""The facts of one graph that two or more readers share, each computed once.

``verify`` builds one ``Facts`` per corpus item and drops it with the item;
``report.analyze_graph`` builds one for its graph.  So no cache outlives
its graph.  A fact calls its function through this module's name for it,
so a tracer or a test that rebinds the name reaches the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .classifiers import _very_well_covered, is_well_covered
from .graphs import Graph
from .greedoid import check_accessibility, check_exchange
from .matching import (
    Matching,
    _count_perfect_matchings_on,
    enumerate_maximum_matchings,
)
from .stability import StableSetFamily, omega_enumerate, psi_enumerate


class _fact(cached_property):
    """``cached_property`` without the lock it takes before Python 3.12."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


@dataclass(eq=False)
class Facts:
    """One graph, the ``name``, ``base`` and ``parts`` of its corpus item, and its facts."""

    graph: Graph
    name: str | None = None
    base: Graph | None = None
    parts: tuple[Graph, ...] = ()
    _pm_counts: dict[int, int] = field(default_factory=dict, init=False, repr=False)

    @_fact
    def well_covered(self) -> bool:
        return is_well_covered(self.graph)

    @_fact
    def very_well_covered(self) -> bool:
        return _very_well_covered(self.graph, lambda: self.well_covered)

    @_fact
    def psi(self) -> StableSetFamily:
        return psi_enumerate(self.graph)

    @_fact
    def omega(self) -> StableSetFamily:
        return omega_enumerate(self.graph)

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
