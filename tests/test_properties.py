"""Property tests: structural laws on random graphs, plus corpus sweeps for
the girth-based structure statements that only make sense over a corpus."""

import ast
import random
from pathlib import Path

from hypothesis import assume, example, given, settings, strategies as st

import oracles
from lmss import (
    CapacityError,
    Graph,
    ParseError,
    SetSystem,
    VertexSet,
    alpha,
    canonical_key,
    check_accessibility,
    check_exchange,
    check_property_p,
    closed_neighborhood,
    complete,
    corona,
    cycle,
    enumerate_matchings,
    enumerate_perfect_matchings,
    find_alternating_cycle,
    girth,
    has_pendant_perfect_matching,
    is_c4_free,
    is_uniquely_restricted,
    is_very_well_covered,
    is_well_covered,
    maximal_stable_sets,
    mu,
    neighborhood,
    omega_enumerate,
    parse_edge_list,
    path,
    psi_enumerate,
    serialize,
)
from lmss.corpus import nonisomorphic_graphs
from lmss.facts import Facts
from lmss.greedoid import _LATTICE_CROSSOVER
from lmss.matching import _mu_on
from lmss.stability import _alpha_on, _stable_sets
from lmss.theorems import RULES


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph.from_edges(n, chosen)


@given(graphs())
def test_neighborhood_laws(g):
    for mask in range(0, 1 << g.n, 7):
        s = VertexSet(g, mask & g.full_mask)
        nb = neighborhood(g, s)
        assert nb.bits & s.bits == 0
        assert closed_neighborhood(g, s).bits == s.bits | nb.bits


@st.composite
def set_systems(draw, max_n=7):
    """Any non-empty family on a ground set of at most max_n elements: the
    empty set may be absent and whole sizes may be missing."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    members = draw(st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1))
    return SetSystem(n, tuple(sorted(members)))


def _exchange_by_pairs(f):
    """Exchange from its definition: every pair X, Y with |X| = |Y|+1, by
    ascending |Y|, then X, then Y; the first pair where no element of X-Y
    extends Y to a member fails."""
    family = set(f.members)
    pairs = sorted(
        ((x, y) for x in f.members for y in f.members if x.bit_count() == y.bit_count() + 1),
        key=lambda p: (p[1].bit_count(), p[0], p[1]),
    )
    for x, y in pairs:
        donors = [v for v in range(f.ground_size) if x >> v & 1 and not y >> v & 1]
        if not any(y | 1 << v in family for v in donors):
            return False, (x, y)
    return True, None


@given(set_systems())
@settings(max_examples=300)
def test_check_exchange_matches_pairwise_definition(f):
    assert check_exchange(f) == _exchange_by_pairs(f)


@st.composite
def dense_set_systems(draw, max_n=7):
    """A family of all subsets of at most max_n elements but a few holes, so
    that some level pair has more pairs than 2^n * ``_LATTICE_CROSSOVER``
    and check_exchange decides it on the subset lattice; and the same
    family with one member dropped from its largest level."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    holes = draw(st.sets(st.integers(min_value=0, max_value=(1 << n) - 1),
                         max_size=1 << n >> 3))
    members = [m for m in range(1 << n) if m not in holes]
    levels: dict[int, list[int]] = {}
    for m in members:
        levels.setdefault(m.bit_count(), []).append(m)
    assume(any(len(ys) * len(levels.get(k + 1, ())) > (1 << n) * _LATTICE_CROSSOVER
               for k, ys in levels.items()))
    largest = max(levels.values(), key=len)
    dropped = draw(st.sampled_from(largest))
    return (SetSystem(n, tuple(members)),
            SetSystem(n, tuple(m for m in members if m != dropped)))


@given(dense_set_systems())
@settings(max_examples=150)
def test_check_exchange_matches_pairwise_definition_on_dense_families(systems):
    for f in systems:
        assert check_exchange(f) == _exchange_by_pairs(f)


def _accessibility_by_sets(f):
    """Accessibility from its definition on frozensets, the empty set
    implicit: the first member, in ascending order, that loses no element
    into the family fails."""
    sets = [(m, frozenset(v for v in range(f.ground_size) if m >> v & 1)) for m in f.members]
    family = {s for _, s in sets} | {frozenset()}
    for m, s in sets:
        if s and not any(s - {v} in family for v in s):
            return False, m
    return True, None


@given(set_systems(max_n=8))
@settings(max_examples=300)
def test_check_accessibility_matches_set_definition(f):
    assert check_accessibility(f) == _accessibility_by_sets(f)


def test_check_accessibility_matches_set_definition_on_psi(connected_upto_6):
    verdicts = [check_accessibility(psi_enumerate(g)) for g in connected_upto_6]
    assert verdicts == [_accessibility_by_sets(psi_enumerate(g)) for g in connected_upto_6]
    assert {ok for ok, _ in verdicts} == {True, False}


@given(graphs(max_n=6))
def test_serialize_roundtrip(g):
    assert parse_edge_list(serialize(g)) == g


@given(st.one_of(st.text(), st.text(alphabet="0123456789-+\u00b2 \n#")))
def test_parse_edge_list_raises_only_parse_or_capacity_errors(text):
    try:
        parse_edge_list(text)
    except (ParseError, CapacityError):
        pass


@given(graphs(max_n=5), st.integers(min_value=0, max_value=2**30))
def test_canonical_key_invariant_under_relabeling(g, seed):
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabeled = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert canonical_key(relabeled) == canonical_key(g)


@given(graphs(max_n=12))
def test_c4_free_matches_brute_force(g):
    assert is_c4_free(g) == (not oracles.has_chordless_square(g.n, oracles.edges_of(g)))


@st.composite
def twin_rich_graphs(draw):
    """Stars K1,k (k <= 15), complete multipartite graphs (n <= 16) and
    coronas with K1 parts over bases of at most 7 vertices."""
    kind = draw(st.sampled_from(["star", "multipartite", "corona"]))
    if kind == "star":
        k = draw(st.integers(min_value=1, max_value=15))
        return Graph.from_edges(k + 1, [(0, leaf) for leaf in range(1, k + 1)])
    if kind == "multipartite":
        n = draw(st.integers(min_value=1, max_value=16))
        # a new part starts after vertex i when cuts[i] is set
        cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
        part = [0]
        for cut in cuts:
            part.append(part[-1] + cut)
        return Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
        )
    base = draw(graphs(max_n=7))
    return corona(base, [complete(1)] * base.n)


@given(twin_rich_graphs(), st.integers(min_value=0, max_value=2**30))
@settings(deadline=None)
def test_canonical_key_invariant_under_relabeling_with_twins(g, seed):
    # K_{2,2,2,2,2,2,2,2} takes seconds: its parts are twins, but the
    # symmetry that swaps two parts is no transposition
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabeled = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert canonical_key(relabeled) == canonical_key(g)


def _mask(s):
    return sum(1 << v for v in s)


def _ascending_masks(family):
    return sorted(_mask(s) for s in family)


@given(graphs(max_n=7))
@example(Graph.from_edges(0, []))
@example(Graph.from_edges(6, []))
@example(Graph.from_edges(7, [(0, 3), (3, 5), (1, 6), (2, 4)]))
@settings(max_examples=60)
def test_stable_set_walk_against_definition(g):
    adj = oracles.adj_sets(g.n, oracles.edges_of(g))
    expected = sorted(
        (_mask(s), _mask(oracles.closed(adj, s)))
        for s in oracles.all_subsets(range(g.n))
        if oracles.is_stable(adj, s)
    )
    closed = tuple(_mask(oracles.closed(adj, {v})) for v in range(g.n))
    assert _stable_sets(g, closed) == expected


@given(graphs(max_n=7))
@settings(max_examples=60)
def test_psi_enumerate_against_oracle(g):
    e = oracles.edges_of(g)
    family = {frozenset(s.vertices()) for s in psi_enumerate(g)}
    assert family == oracles.psi(g.n, e)
    assert list(omega_enumerate(g).members) == _ascending_masks(
        oracles.maximum_stable_sets(g.n, e)
    )
    assert maximal_stable_sets(g) == _ascending_masks(oracles.maximal_stable_sets(g.n, e))


@given(graphs(max_n=7))
@example(complete(7))
@example(Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)]))
@settings(max_examples=40)
def test_uniquely_restricted_routes_agree(g):
    # the boolean helper, the first-cycle search and the definition, on
    # every matching, disconnected graphs included
    e = oracles.edges_of(g)
    for m in enumerate_matchings(g):
        pairs = [tuple(x) for x in m.edges]
        assert is_uniquely_restricted(g, m) == (find_alternating_cycle(g, m) is None) == (
            oracles.is_uniquely_restricted(g.n, e, pairs)
        ), m


@given(graphs(max_n=10))
@example(corona(cycle(5), [complete(1)] * 5))
@example(cycle(10))
@example(Graph.from_edges(10, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (1, 2), (3, 4), (0, 9)]))
@settings(max_examples=60, deadline=None)
def test_th11_property_side_and_property_p_against_oracle(g):
    # th11, seeded with the oracle's verdict on every perfect matching,
    # reports nothing exactly when its mu-per-edge side agrees; and
    # check_property_p agrees with the oracle on each of those matchings
    e = oracles.edges_of(g)
    item = Facts(g)
    item.__dict__["very_well_covered"] = oracles.every_perfect_matching_has_p(g.n, e)
    assert RULES["th11"].check(item) == []
    for m in enumerate_perfect_matchings(g):
        pairs = [tuple(x) for x in m.edges]
        assert check_property_p(g, m)[0] == oracles.property_p(g.n, e, pairs), m


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert not [m for m in imported if m == "lmss" or m.startswith("lmss.")], imported


@given(graphs(max_n=7))
@settings(max_examples=60)
def test_alpha_mu_against_oracle(g):
    e = oracles.edges_of(g)
    assert alpha(g) == (oracles.alpha(g.n, e) if g.n else 0)
    assert mu(g) == (oracles.mu(g.n, e) if g.n else 0)
    # every sub-mask against the oracle on its induced edges, one shared memo
    # per recursion
    amemo, mmemo = {}, {}
    for mask in range(1 << g.n):
        inside = [(u, v) for u, v in e if mask >> u & 1 and mask >> v & 1]
        verts = [v for v in range(g.n) if mask >> v & 1]
        assert _alpha_on(g, mask, amemo) == oracles.alpha_of(
            oracles.adj_sets(g.n, inside), verts
        ), mask
        assert _mu_on(g, mask, mmemo) == oracles.mu(g.n, inside), mask


@given(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=4))
def test_corona_counts(sizes):
    base = path(len(sizes))
    hs = [complete(k) for k in sizes]
    if base.n + sum(sizes) > 16:
        return
    c = corona(base, hs)
    assert c.n == base.n + sum(h.n for h in hs)
    assert c.edge_count == base.edge_count + sum(h.edge_count + h.n for h in hs)


def test_corona_with_single_vertices_is_vwc():
    # the whole one-vertex-per-slot path family, then assorted other bases
    for k in range(1, 7):
        c = corona(path(k), [complete(1)] * k)
        assert is_very_well_covered(c)
    for base in (cycle(5), complete(3), nonisomorphic_graphs(4)[7]):
        c = corona(base, [complete(1)] * base.n)
        assert is_very_well_covered(c)
        assert has_pendant_perfect_matching(c)


def test_girth_structure_of_well_covered_graphs(connected_upto_8):
    """Corpus sweeps for the two girth-based structure statements.

    Girth >= 6, connected, not a 7-cycle, not a single vertex:
    well-covered exactly when a pendant perfect matching exists.
    Girth >= 5: very well-covered exactly when a pendant perfect
    matching exists.  Forests count as infinite girth.
    """
    for g in connected_upto_8:
        gi = girth(g)
        high_girth = gi is None or gi >= 6
        med_girth = gi is None or gi >= 5
        if med_girth:
            assert is_very_well_covered(g) == has_pendant_perfect_matching(g), g
        is_c7 = g.n == 7 and gi == 7 and all(g.degree(v) == 2 for v in range(g.n))
        if high_girth and not is_c7 and g.n > 1:
            assert is_well_covered(g) == has_pendant_perfect_matching(g), g


def test_very_well_covered_graphs_have_perfect_matchings(connected_upto_8):
    for g in connected_upto_8:
        if g.n <= 7 and is_very_well_covered(g):
            assert mu(g) * 2 == g.n
