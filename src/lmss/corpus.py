"""Corpus generation: exhaustive small graphs, trees, seeded random graphs, coronas.

A corpus source is one entry of ``SOURCES``: a builder whose parameters
are the ``CorpusSpec`` fields it reads, with their defaults.  Everything
else reads that table and ``FILTERS``, so a new source is one entry there.

A corpus item is a ``Facts``: its graph, its name and, for coronas, the
``Facts`` of its parts, with every per-graph fact computed on first use.  A filter
reads the item, so the fact it decides is the cached one that the rules
of ``verify`` read next.

Exhaustive generation augments the (n-1)-vertex catalogue by one vertex
and rejects isomorphs by a canonical key.  Graphs try every neighbourhood
of the new vertex, trees every single neighbour.  Feasible through n = 9
(``EXHAUSTIVE_LIMIT``); larger sizes are sampled randomly.

Catalogues are kept as keys and corpora stream, so memory is bounded by
the catalogue's keys, not by the corpus.  ``graph_keys`` and ``tree_keys``
cache each level as its ascending canonical keys, one int per class
(274,668 at n = 9), never as ``Graph`` objects; ``graph_from_key``
rebuilds a class in microseconds.  The generator reads its parents, and
the exhaustive source its items, one rebuilt graph at a time.  Every
source does its shared work when it is called (the catalogue levels, the
corona bases and parts), so the cap is met before any item; it then
yields its items one at a time, and ``iter_corpus`` filters them as they
pass.  So a sweep holds the levels' keys, a corona corpus's part
``Facts``, its own tallies and the item it is on; every other item is
freed once the sweep moves past it.

The key is the least row-major upper-triangle adjacency key over the
vertex orders that respect the ordered cells of a leaf of one search tree.
The tree refines the degree partition and individualises one vertex of
the first non-singleton cell at a time, refining again, until the cells
admit at most ``_LEAF_CAP`` orders.  A leaf is searched row by row: the
next position keeps only the candidates with the least row, and the rest
of the cells split into that vertex's non-neighbours, then its neighbours.
Twins, vertices of one cell with equal open or closed neighbourhoods, are
tried once in both searches: swapping them is an automorphism that fixes
everything placed so far, so their subtrees hold the same keys.  Stars and
trees, whose interchangeable leaves are twins, are keyed in milliseconds.
Graphs whose symmetries are not all twin swaps, such as K8 with a pendant
at each vertex or K2,2,2,2,2,2,2,2, still branch on every vertex of a cell
up to twins, taking about a second: no automorphism found at a leaf prunes
the tree.

Canonical forms are the expensive step, so a child is canonicalised only
when its new vertex minimises the isomorphism-invariant vertex function
f(v) = (deg v, sum of the degrees of v's neighbours), the canonical-deletion
test of McKay ("Isomorph-free exhaustive generation", J. Algorithms 26,
1998); masks whose popcount already rules that out are skipped before the
child is built.  No class is lost: every graph G has a vertex u minimising
f, G - u is isomorphic to some parent P in the catalogue, and some mask on
P rebuilds G with the new vertex in u's place, where it minimises f because
f is invariant.  For trees the minimiser is a leaf, so leaf attachment
suffices.

Masks that differ by a permutation of a twin class of the parent are tried
once: a mask must meet each class in its least vertices.  No class is lost
either: permuting a twin class is an automorphism of the parent that fixes
every other vertex, and extended to fix the new vertex it maps the child
built from one mask onto the child built from the other.  The f-minimality
test is isomorphism-invariant, and the popcount filter asks for all parent
vertices of one degree, a union of whole twin classes, so it treats both
masks alike.  The set of canonical keys is therefore unchanged.  Each
catalogue is rebuilt straight from its sorted keys by ``graph_from_key``,
which sets the adjacency bits a key lists, so its representatives and their
order are unchanged too.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from functools import lru_cache
from inspect import Parameter, signature
from itertools import combinations, repeat
from math import factorial
from typing import NamedTuple

from . import classifiers
from .graphs import MAX_VERTICES, CapacityError, Graph, UsageError, _derived, bits, corona, is_connected
from .facts import Facts
from .fixtures import fixture

EXHAUSTIVE_LIMIT = 9

# The individualisation tree ends at a cell partition that admits at most
# this many orders (the product of its cells' factorials).  The key is the
# least row-major key over the orders of the tree's leaves, so this constant
# is part of the key's definition: another value would give other keys and
# change the pinned catalogue bytes.
_LEAF_CAP = 720
_FACTORIALS = tuple(factorial(k) for k in range(MAX_VERTICES + 1))


def _refine(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """Stable colour refinement of ordered cell masks.

    Each round splits every cell by its members' counts of neighbours in
    each cell, in cell order; a member with more neighbours in the first
    cell where counts differ goes first.  Members of a cell share a degree,
    so this is the order of their sorted neighbour-colour tuples.  Stops
    when a round splits no cell.

    Only the counts into ``splitters`` are read, which gives the same parts
    in the same order.  A count into a cell splits nothing when every
    member of each cell already had one count into it the round before.
    Nor does a count into the last part of a split cell: it is the count
    into the cell it came from less the counts into the earlier parts, so
    two members that differ there differ at an earlier part first.  So the
    next round's splitters are this round's new parts but the last of each
    split cell.  The callers pass the first round's: the degree cells but
    the last (every member of a degree cell has its degree as its count
    into the whole vertex set), or the individualised vertex alone (the
    partition it came from was stable).

    A member's counts are packed into one int, four bits per count, the
    first splitter's most significant, and a cell's parts are ordered by
    that int, descending.  A count is at most n - 1 <= 15 under
    ``MAX_VERTICES`` = 16, so no count carries into the next field, and the
    ints order exactly as the count tuples do.
    """
    while splitters:
        new: list[int] = []
        split: list[int] = []
        for c in cells:
            if not c & (c - 1):
                new.append(c)
                continue
            groups: dict[int, int] = {}
            rest = c
            while rest:
                low = rest & -rest
                rest ^= low
                a = adj[low.bit_length() - 1]
                sig = 0
                for d in splitters:
                    sig = sig << 4 | (a & d).bit_count()
                groups[sig] = groups.get(sig, 0) | low
            if len(groups) == 1:
                new.append(c)
            else:
                parts = [groups[sig] for sig in sorted(groups, reverse=True)]
                new += parts
                split += parts[:-1]
        cells, splitters = new, split
    return cells


def _twin_classes(adj: Sequence[int], mask: int) -> list[int]:
    """The twin classes of the vertices in ``mask``, as masks by least vertex.

    Twins have equal open or equal closed neighbourhoods.  No vertex has
    both an open and a closed twin: if N(u) = N(v) and N[v] = N[w], then w
    is adjacent to v, hence to u, so u lies in N[w] = N[v], yet open twins
    are not adjacent.  So the classes partition ``mask``, and any
    permutation of one class that fixes every other vertex is an
    automorphism.
    """
    index: dict[int, int] = {}  # open neighbourhood a, or ~N[v] for closed ones
    classes: list[int] = []
    while mask:
        low = mask & -mask
        mask ^= low
        a = adj[low.bit_length() - 1]
        closed = ~(a | low)
        i = index.get(a, index.get(closed))
        if i is None:
            index[a] = index[closed] = len(classes)
            classes.append(low)
        else:
            classes[i] |= low
    return classes


def canonical_key(g: Graph) -> int:
    """Isomorphism-invariant upper-triangle adjacency key.

    The key is the least row-major upper-triangle key over the vertex orders
    that respect the ordered cells of some leaf of a fixed search tree.  The
    root is the stable refinement of the degree partition.  A node whose
    cells admit more than ``_LEAF_CAP`` orders has one child per vertex v of
    its first non-singleton cell: v is placed before the rest of that cell
    and the cells are refined again.  Other nodes are leaves.

    A leaf is searched row by row.  Position i takes a vertex of the first
    cell; its row lists, across the later cells in order, its
    non-neighbours and then its neighbours, so only the candidates with the
    least row are kept, and every cell then splits into that vertex's
    non-neighbours followed by its neighbours.  A branch whose rows so far
    exceed the best key found is dropped.

    Twins are tried once, both in the tree and in the row search.  If u and
    w lie in the same cell and have equal open or equal closed
    neighbourhoods, the transposition (u w) is an automorphism.  It fixes
    every vertex already placed or individualised, and refinement commutes
    with automorphisms, so it maps every ordered cell to itself.  It
    therefore maps the orders below u onto those below w with equal keys,
    and only one of the two subtrees is searched.
    """
    n, adj = g.n, g.adj
    if n <= 1:
        return 0
    m2 = sum(a.bit_count() for a in adj)
    if m2 == 0:
        return 0
    if m2 == n * (n - 1):
        return (1 << (n * (n - 1) // 2)) - 1
    best = 1 << (n * (n - 1) // 2)

    def untried(cell: int) -> list[int]:
        """The vertices of ``cell`` that are not a twin of an earlier one."""
        if not cell & (cell - 1):
            return [cell.bit_length() - 1]
        return [(c & -c).bit_length() - 1 for c in _twin_classes(adj, cell)]

    def search_rows(cells: list[int], key: int, width: int):
        # ``cells`` holds the unplaced vertices and ``width`` is the length of
        # the next row, one less than their number; the last candidate with
        # the least row is followed in the loop, the others recursively
        nonlocal best
        while cells:
            if len(cells) > width:
                # every cell is a singleton: the order is fixed
                for i, c in enumerate(cells):
                    a = adj[c.bit_length() - 1]
                    for d in cells[i + 1:]:
                        key = key << 1 | (a & d != 0)
                break
            first = cells[0]
            rest = cells[1:]
            least = -1
            for v in untried(first):
                a = adj[v]
                row = (1 << (a & first).bit_count()) - 1
                for c in rest:
                    row = row << c.bit_count() | (1 << (a & c).bit_count()) - 1
                if least < 0 or row < least:
                    least = row
                    chosen = [v]
                elif row == least:
                    chosen.append(v)
            key = key << width | least
            width -= 1
            if key > best >> (width * (width + 1) // 2):
                return
            for v in chosen:
                a = adj[v]
                cells = []
                for c in (first ^ 1 << v, *rest):
                    if c & ~a:
                        cells.append(c & ~a)
                    if c & a:
                        cells.append(c & a)
                if v != chosen[-1]:
                    search_rows(cells, key, width)
        if key < best:
            best = key

    def descend(cells: list[int]):
        orders = 1
        for c in cells:
            orders *= _FACTORIALS[c.bit_count()]
            if orders > _LEAF_CAP:
                break
        else:
            search_rows(cells, 0, n - 1)
            return
        i = next(idx for idx, c in enumerate(cells) if c & (c - 1))
        cell = cells[i]
        for v in untried(cell):
            descend(_refine(adj, [*cells[:i], 1 << v, cell ^ 1 << v, *cells[i + 1:]], [1 << v]))

    by_degree: dict[int, int] = {}
    for v, a in enumerate(adj):
        d = a.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    degree_cells = [by_degree[d] for d in sorted(by_degree)]
    descend(_refine(adj, degree_cells, degree_cells[:-1]))
    return best


def graph_from_key(n: int, key: int) -> Graph:
    """The graph whose row-major upper-triangle adjacency key is ``key``.

    Row i holds the pairs (i, i+1), ..., (i, n-1), most significant first.
    """
    width = n * (n - 1) // 2
    if key < 0 or key >> width:
        raise ValueError(f"key {key} does not fit the {width} vertex pairs of n = {n}")
    if not 0 <= n <= MAX_VERTICES:
        raise CapacityError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    adj = [0] * n
    for i in range(n - 1):
        width -= n - 1 - i
        row = key >> width
        key ^= row << width
        # bit b of the row is the pair (i, n-1-b)
        while row:
            low = row & -row
            row ^= low
            j = n - low.bit_length()
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return _derived(Graph, n, tuple(adj), None)


def canonical_graph(g: Graph) -> Graph:
    return graph_from_key(g.n, canonical_key(g))


def _new_vertex_minimises(adj: list[int]) -> bool:
    """Whether the last vertex minimises f(v) = (deg v, sum of v's neighbours' degrees)."""
    deg = [a.bit_count() for a in adj]
    k = deg[-1]
    if min(deg) < k:
        return False
    if deg.count(k) == 1:
        return True
    own = sum(deg[u] for u in bits(adj[-1]))
    return not any(d == k and sum(deg[u] for u in bits(adj[v])) < own for v, d in enumerate(deg))


def _augment(parents: tuple[int, ...], n: int, masks: range | list[int]) -> tuple[int, ...]:
    """Ascending keys of the isomorph-free n-vertex graphs grown from the
    (n-1)-vertex graphs whose keys are ``parents``.

    Each parent gains a vertex n-1 adjacent to ``mask`` for every mask in
    ``masks`` that meets each twin class of the parent in its least members;
    a child is canonicalised only when its new vertex minimises f.
    """
    new = 1 << (n - 1)
    seen: set[int] = set()
    for key in parents:
        p = graph_from_key(n - 1, key)
        pdeg = [a.bit_count() for a in p.adj]
        low = min(pdeg, default=n)
        # the new vertex's degree k is minimal only if every parent vertex of
        # degree k - 1 joins it and none has a smaller degree
        need = [sum(1 << v for v, d in enumerate(pdeg) if d == k - 1) for k in range(n)]
        twins = [c for c in _twin_classes(p.adj, new - 1) if c & (c - 1)]
        for mask in masks:
            k = mask.bit_count()
            if k > low + 1 or mask & need[k] != need[k]:
                continue
            if twins and any(c & ((1 << (mask & c).bit_length()) - 1) != mask & c for c in twins):
                continue
            adj = [a | new if mask >> v & 1 else a for v, a in enumerate(p.adj)]
            adj.append(mask)
            if _new_vertex_minimises(adj):
                seen.add(canonical_key(_derived(Graph, n, tuple(adj), None)))
    return tuple(sorted(seen))


@lru_cache(maxsize=None)
def graph_keys(n: int) -> tuple[int, ...]:
    """The canonical keys of all graphs on n vertices up to isomorphism, ascending."""
    if n < 0:
        raise UsageError(f"n must be at least 0, got {n}")
    if n > EXHAUSTIVE_LIMIT:
        raise UsageError(f"exhaustive generation is capped at n = {EXHAUSTIVE_LIMIT}")
    if n == 0:
        return (0,)
    return _augment(graph_keys(n - 1), n, range(1 << (n - 1)))


@lru_cache(maxsize=None)
def tree_keys(n: int) -> tuple[int, ...]:
    """The canonical keys of all trees on n vertices up to isomorphism, ascending,
    grown by leaf attachment."""
    if n < 0:
        raise UsageError(f"n must be at least 0, got {n}")
    if n > MAX_VERTICES:
        raise CapacityError(f"tree would have {n} > {MAX_VERTICES} vertices")
    if n == 0:
        return ()
    if n == 1:
        return (0,)
    return _augment(tree_keys(n - 1), n, [1 << v for v in range(n - 1)])


def nonisomorphic_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism, canonical and key-sorted."""
    return tuple(graph_from_key(n, k) for k in graph_keys(n))


def connected_graphs(n: int) -> tuple[Graph, ...]:
    return tuple(g for g in nonisomorphic_graphs(n) if is_connected(g))


def nonisomorphic_trees(n: int) -> tuple[Graph, ...]:
    """All trees on n vertices up to isomorphism, canonical and key-sorted."""
    return tuple(graph_from_key(n, k) for k in tree_keys(n))


def _draws(count: int, n: int, edge_probability: float, seed: int) -> Iterator[Graph]:
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    for _ in range(count):
        yield Graph.from_edges(n, [e for e in pairs if rng.random() < edge_probability])


def random_graphs(count: int, n: int, edge_probability: float, seed: int) -> list[Graph]:
    """``count`` graphs G(n, p) from one seeded generator, pairs in lexicographic order."""
    return list(_draws(count, n, edge_probability, seed))


def corona_family(max_x: int = 3, max_h: int = 3, max_total: int = 12) -> Iterator[Facts]:
    """Every corona with base size <= max_x, part sizes <= max_h, total <= max_total,
    one at a time.  Each part graph is one ``Facts``, shared by every corona
    that attaches it, so a part's facts are computed once per corpus."""
    # a base of x vertices takes x parts, so larger bases and parts build no corona
    top_x, top_h = min(max_x, max_total // 2), min(max_h, max_total - 1)
    graph_keys(top_h)  # past the cap this raises at once
    bases = [g for n in range(1, top_x + 1) for g in nonisomorphic_graphs(n)]
    parts = [Facts(g) for n in range(1, top_h + 1) for g in nonisomorphic_graphs(n)]
    shapes = ((x, hs) for x in bases for hs in _part_tuples(parts, x.n, max_total - x.n))
    return (
        Facts(corona(x, [h.graph for h in hs]), f"corona_{i:04d}", parts=hs)
        for i, (x, hs) in enumerate(shapes)
    )


def _part_tuples(parts: list[Facts], slots: int, budget: int) -> Iterator[tuple[Facts, ...]]:
    """The tuples of ``product(parts, repeat=slots)`` whose sizes total at
    most ``budget``, in the product's order, walked depth first.  Parts
    ascend in size, so a slot stops at the first part that leaves fewer
    vertices than the slots after it need."""
    if not slots:
        yield ()
        return
    for h in parts:
        n = h.graph.n
        if budget - n < slots - 1:
            break
        for rest in _part_tuples(parts, slots - 1, budget - n):
            yield (h, *rest)


def _exhaustive(max_n: int) -> Iterator[Facts]:
    graph_keys(max_n)  # past the cap this raises at once; else it generates every level
    return (
        Facts(g, f"g{n}_{i:05d}")
        for n in range(1, max_n + 1)
        for i, g in enumerate(filter(is_connected, map(graph_from_key, repeat(n), graph_keys(n))))
    )


def _random(count: int, n: int, edge_probability: float, seed: int) -> Iterator[Facts]:
    return (
        Facts(g, f"r{n}_{i:05d}")
        for i, g in enumerate(_draws(count, n, edge_probability, seed))
    )


def _fixtures(fixtures: tuple[str, ...]) -> list[Facts]:
    return [Facts(fixture(name), name) for name in fixtures]


class Source(NamedTuple):
    """A corpus source's builder, and whether its items carry corona parts."""

    build: Callable[..., Iterable[Facts]]
    carries_parts: bool = False

    @property
    def reads(self) -> Mapping[str, Parameter]:
        return signature(self.build).parameters


SOURCES: dict[str, Source] = {
    "exhaustive": Source(_exhaustive),
    "random": Source(_random),
    "coronas": Source(corona_family, carries_parts=True),
    "fixtures": Source(_fixtures),
}

FILTERS: dict[str, Callable[[Facts], bool]] = {
    "none": lambda item: True,
    "vwc": lambda item: item.very_well_covered,
    "bipartite": lambda item: classifiers.is_bipartite(item.graph),
    "forest": lambda item: classifiers.is_forest(item.graph),
    "connected": lambda item: is_connected(item.graph),
}

_COUNTS = ("max_n", "count", "n", "max_x", "max_h", "max_total")  # a seed may be any integer


@dataclass(frozen=True)
class CorpusSpec:
    """A source of ``SOURCES``, the fields it reads, and a filter of ``FILTERS``."""

    source: str = "exhaustive"
    max_n: int | None = None
    count: int | None = None
    n: int | None = None
    edge_probability: float | None = None
    seed: int | None = None
    fixtures: tuple[str, ...] | None = None
    max_x: int | None = None
    max_h: int | None = None
    max_total: int | None = None
    filter: str = "none"

    def __post_init__(self):
        if self.source not in SOURCES:
            raise UsageError(f"unknown corpus source {self.source!r}")
        if self.filter not in FILTERS:
            raise UsageError(f"unknown corpus filter {self.filter!r}")
        reads = SOURCES[self.source].reads
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in reads:
                if value is None:
                    if reads[f.name].default is Parameter.empty:
                        raise UsageError(f"{self.source} corpora need {f.name}")
                    object.__setattr__(self, f.name, reads[f.name].default)
            elif value is not None and f.name not in ("source", "filter"):
                raise UsageError(f"{self.source} corpora do not read {f.name}")
            if f.name in _COUNTS and value is not None and value < 1:
                raise UsageError(f"{f.name} must be at least 1, got {value}")
        # checked here, not at the first draw, so that no output is begun
        if self.n is not None and self.n > MAX_VERTICES:
            raise UsageError(f"n must be at most {MAX_VERTICES}, got {self.n}")
        if self.max_total is not None and self.max_total > MAX_VERTICES:
            raise UsageError(f"max_total must be at most {MAX_VERTICES}, got {self.max_total}")
        # corona_family builds parts up to min(max_h, max_total - 1) vertices
        if self.max_h is not None and min(self.max_h, self.max_total - 1) > EXHAUSTIVE_LIMIT:
            raise UsageError(f"max_h above {EXHAUSTIVE_LIMIT} needs max_total at most "
                             f"{EXHAUSTIVE_LIMIT + 1}, got max_h = {self.max_h}, "
                             f"max_total = {self.max_total}")
        if self.edge_probability is not None and not 0 <= self.edge_probability <= 1:
            raise UsageError(f"edge_probability must lie in [0, 1], got {self.edge_probability}")
        if self.fixtures is not None and not self.fixtures:
            raise UsageError("fixture corpora need at least one fixture name")

    @property
    def carries_parts(self) -> bool:
        """Whether every item carries the parts of its corona."""
        return SOURCES[self.source].carries_parts

    def to_dict(self) -> dict:
        reads = {name: getattr(self, name) for name in SOURCES[self.source].reads}
        return {"source": self.source, "filter": self.filter, **reads}


def iter_corpus(spec: CorpusSpec) -> Iterator[Facts]:
    """The corpus a spec describes, deterministically, one item at a time.

    The source's shared work is done, and the exhaustive cap met, before
    this returns; each item is built and filtered only when it is asked for.
    """
    source = SOURCES[spec.source]
    items = source.build(**{name: getattr(spec, name) for name in source.reads})
    keep = FILTERS[spec.filter]
    return (it for it in items if keep(it))
