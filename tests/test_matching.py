import pytest

import oracles
from lmss import (
    RULES,
    AlternatingCycle,
    Edge,
    Matching,
    MismatchError,
    UsageError,
    check_property_p,
    complete,
    corona,
    count_perfect_matchings,
    cycle,
    enumerate_alternating_cycles,
    enumerate_matchings,
    enumerate_maximum_matchings,
    enumerate_perfect_matchings,
    find_alternating_c4,
    find_alternating_cycle,
    has_unique_perfect_matching,
    is_uniquely_restricted,
    mu,
    path,
    random_graphs,
    serialize,
)
from lmss.corpus import connected_graphs, nonisomorphic_graphs
from lmss.facts import Facts
from lmss.fixtures import fixture, fixture_names, named_edges
from lmss.graphs import induced_subgraph
from lmss.matching import (_alternating_cycles, _chordless_cycle_through,
                           _count_perfect_matchings_on, _cycle_free, _mu_on)


def matching_by_names(name, *pairs):
    return Matching.of(fixture(name), *pairs)


def matching_by_edge_labels(name, *keys):
    ne = named_edges(name)
    return Matching(fixture(name), tuple(ne[k] for k in keys))


def test_matching_validation():
    g = fixture("fig1_H")
    with pytest.raises(MismatchError):
        Matching.of(g, ("u", "t"))  # not an edge
    with pytest.raises(UsageError):
        Matching.of(g, ("u", "v"), ("v", "t"))  # shared vertex
    with pytest.raises(UsageError):
        Matching(g, ((0, 1),))  # plain tuples, not Edge values
    m = Matching.of(g, ("u", "v"), ("x", "w"))
    assert len(m) == 2 and m.saturates("u") and not m.saturates("t")
    assert not m.is_perfect()

    c4 = cycle(4)
    AlternatingCycle(c4, (0, 1, 2, 3), (True, False, True, False))
    for vertices, flags, message in [
        ((0, 1, 2), (True, False, True), "even length"),
        ((0, 1, 0, 1), (True, False, True, False), "malformed"),
        ((0, 2, 1, 3), (True, False, True, False), "not an edge"),
        ((0, 1, 2, 3), (True, True, False, False), "do not alternate"),
    ]:
        with pytest.raises(ValueError, match=message):
            AlternatingCycle(c4, vertices, flags)


def test_mu_examples():
    assert mu(path(4)) == 2
    assert mu(fixture("fig3_H")) == 2
    assert mu(fixture("fig10_G")) == 5


def test_mu_against_oracle(connected_upto_6):
    for g in connected_upto_6:
        assert mu(g) == oracles.mu(g.n, oracles.edges_of(g))


def test_enumerate_maximum_matchings():
    k2 = complete(2)
    assert enumerate_maximum_matchings(k2) == [Matching(k2, (Edge(0, 1),))]

    h = fixture("fig1_H")
    mm = enumerate_maximum_matchings(h)
    assert Matching.of(h, ("u", "v"), ("x", "w")) in mm
    assert Matching.of(h, ("x", "y"), ("t", "v")) in mm

    c4 = cycle(4)
    assert len(enumerate_perfect_matchings(c4)) == 2
    assert len(enumerate_maximum_matchings(c4)) == 2


def test_enumerations_against_oracle(connected_upto_6):
    for g in connected_upto_6:
        e = oracles.edges_of(g)
        want_all = {frozenset(m) for m in oracles.all_matchings(e)}
        got_all = [tuple(tuple(x) for x in m.edges) for m in enumerate_matchings(g)]
        assert {frozenset(m) for m in got_all} == want_all
        # no duplicates, and listed by size, then lexicographically
        assert len(got_all) == len(want_all)
        assert got_all == sorted(got_all, key=lambda m: (len(m), m))
        # the walk's own order, no sort behind it, must be lexicographic
        want_max = sorted(tuple(sorted(m)) for m in oracles.maximum_matchings(g.n, e))
        got_max = [tuple(tuple(x) for x in m.edges) for m in enumerate_maximum_matchings(g)]
        assert got_max == want_max
        assert count_perfect_matchings(g) == len(oracles.perfect_matchings(g.n, e))


def test_mu_after_the_matching_searches_is_one_lookup_in_the_graph_memo(connected_upto_6,
                                                                       patch_lmss):
    # the perfect-matching search and the maximum matchings ask mu in the
    # graph's one memo, so no mask's mu is computed twice, and mu, read
    # after the search on a graph with an even order, recurses no further
    graphs = connected_upto_6 + random_graphs(2, 12, 0.3, seed=12)
    want = [mu(g) for g in graphs]
    computed, calls = [], []

    def counting(g, avail, memo):
        calls.append(avail)
        if avail.bit_count() >= 2 and avail not in memo:
            computed.append(avail)
        return _mu_on(g, avail, memo)

    patch_lmss(_mu_on, counting)
    for g, m in zip(graphs, want):
        item = Facts(g)
        computed.clear()
        item.perfect_matching_search
        if g.n % 2 == 0:
            calls.clear()
            assert item.mu == m
            assert calls == [g.full_mask]
        assert len(item.maximum_matchings[0]) == m
        assert len(computed) == len(set(computed)), serialize(g)


def test_find_alternating_cycle_examples():
    g = fixture("fig1_G")
    assert find_alternating_cycle(g, matching_by_names("fig1_G", ("a", "b"), ("c", "d"), ("e", "f"))) is None

    h = fixture("fig1_H")
    cyc = find_alternating_cycle(h, matching_by_names("fig1_H", ("y", "v"), ("t", "x")))
    assert cyc is not None and cyc.length == 4
    assert {h.label_of(v) for v in cyc.vertices} == {"v", "y", "x", "t"}

    g3 = fixture("fig9_G3")
    cyc = find_alternating_cycle(g3, matching_by_edge_labels("fig9_G3", "e1", "e2", "e3", "e4"))
    assert cyc is not None and cyc.length == 4 and cyc.chords()


def _cycle_edge_set(vertices):
    k = len(vertices)
    return frozenset(tuple(sorted((vertices[i], vertices[(i + 1) % k]))) for i in range(k))


def test_find_alternating_cycle_agrees_with_oracle(connected_upto_6):
    # both public views of the one alternating walk, on every maximum matching
    for g in connected_upto_6:
        e = oracles.edges_of(g)
        for m in enumerate_maximum_matchings(g):
            pairs = [tuple(x) for x in m.edges]
            want = {_cycle_edge_set(c) for c, _ in oracles.alternating_cycles(g.n, e, pairs)}
            got = [_cycle_edge_set(c.vertices) for c in enumerate_alternating_cycles(g, m)]
            assert len(got) == len(set(got)) and set(got) == want, (g, m)
            first = find_alternating_cycle(g, m)
            if want:
                assert first is not None and _cycle_edge_set(first.vertices) in want
            else:
                assert first is None


def test_perfect_matching_walk_against_oracle(connected_upto_6):
    for g in connected_upto_6:
        want = sorted(
            tuple(sorted(m)) for m in oracles.perfect_matchings(g.n, oracles.edges_of(g))
        )
        pms = enumerate_perfect_matchings(g)
        assert [tuple(tuple(x) for x in m.edges) for m in pms] == want
        unique, witness = has_unique_perfect_matching(g)
        assert unique == (len(pms) == 1)
        if unique:
            assert witness == pms[0]


def test_enumerate_alternating_cycles_unique_on_fig9_G2():
    g = fixture("fig9_G2")
    m = matching_by_edge_labels("fig9_G2", "e1", "e2", "e3")
    cycles = enumerate_alternating_cycles(g, m)
    assert len(cycles) == 1 and cycles[0].length == 6
    assert find_alternating_c4(g, m) is None


def test_is_uniquely_restricted():
    h = fixture("fig1_H")
    assert is_uniquely_restricted(h, matching_by_names("fig1_H", ("u", "v"), ("x", "w")))
    assert not is_uniquely_restricted(h, matching_by_names("fig1_H", ("x", "y"), ("t", "v")))
    g = fixture("fig9_G2")
    assert not is_uniquely_restricted(g, matching_by_edge_labels("fig9_G2", "e1", "e2", "e3"))
    # single-edge matchings and the empty matching are vacuously restricted
    p = path(6)
    assert is_uniquely_restricted(p, Matching.of(p, (2, 3)))
    assert is_uniquely_restricted(p, Matching(p, ()))


def test_ur_equivalence_every_matching(connected_upto_6):
    for g in connected_upto_6:
        e = oracles.edges_of(g)
        for m in enumerate_matchings(g):
            pairs = [tuple(x) for x in m.edges]
            assert is_uniquely_restricted(g, m) == oracles.is_uniquely_restricted(g.n, e, pairs)


def test_cycle_decision_agrees_with_the_cycle_listing_and_the_oracle():
    # the decision DFS and the listing walk share no code; on every matching
    # of every connected graph with n <= 7 they agree seeded at all matched
    # edges, where the oracle's definition decides too, and at each one alone
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
    matchings = seeded_singly = 0  # seeded_singly: single seeds on a cycle
    for g in graphs:
        edges = oracles.edges_of(g)
        by_mask = {}  # the definition reads only the saturated vertices
        for m in oracles.all_matchings(edges):
            pairs = tuple(sorted(m))
            mate = [-1] * g.n
            saturated = 0
            for u, v in pairs:
                mate[u], mate[v] = v, u
                saturated |= (1 << u) | (1 << v)
            free = _cycle_free(g.adj, pairs, mate, saturated)
            assert free == (next(_alternating_cycles(g.adj, pairs, mate), None) is None)
            if saturated not in by_mask:
                by_mask[saturated] = oracles.is_uniquely_restricted(g.n, edges, pairs)
            assert free == by_mask[saturated], (serialize(g), pairs)
            singly = [_cycle_free(g.adj, (e,), mate, saturated) for e in pairs]
            assert singly == [next(_alternating_cycles(g.adj, (e,), mate), None) is None
                              for e in pairs]
            # every alternating cycle runs through a matched edge
            assert free == all(singly)
            seeded_singly += singly.count(False)
            matchings += 1
    assert (len(graphs), matchings, seeded_singly) == (996, 53_094, 63_406)


def test_has_unique_perfect_matching():
    ok, witness = has_unique_perfect_matching(fixture("fig8_G1"))
    assert ok and witness is not None
    g = fixture("fig8_G1")
    want = Matching.of(g, ("r1", "r2"), ("p1", "p2"), ("q1", "q2"), ("p3", "q3"))
    assert witness == want

    assert has_unique_perfect_matching(cycle(4)) == (False, None)

    ok, witness = has_unique_perfect_matching(fixture("fig10_G"))
    ne = named_edges("fig10_G")
    assert ok and witness == Matching(fixture("fig10_G"), tuple(ne.values()))

    assert has_unique_perfect_matching(path(3)) == (False, None)  # odd order


def test_unique_pm_agrees_with_count(connected_upto_6):
    for g in connected_upto_6:
        assert has_unique_perfect_matching(g)[0] == (count_perfect_matchings(g) == 1)


def test_unique_perfect_matching_search_never_counts(patch_lmss):
    # th8 checks the search against count_perfect_matchings, so the search
    # must not lean on the counter
    calls = []

    def counting(g, avail, memo):
        calls.append(avail)
        return _count_perfect_matchings_on(g, avail, memo)

    patch_lmss(_count_perfect_matchings_on, counting)
    for name in fixture_names():
        has_unique_perfect_matching(fixture(name))
    assert calls == []


def test_saturated_mask_count_agrees_with_induced_subgraph(connected_upto_6):
    # one memo per graph, shared by all its matchings, as the rules use it
    for g in connected_upto_6:
        memo = {}
        for m in enumerate_matchings(g):
            sub, _ = induced_subgraph(g, m.saturated())
            assert _count_perfect_matchings_on(g, m.saturated_bits, memo) == (
                count_perfect_matchings(sub)
            ), (g, m)


def test_find_alternating_c4():
    g = fixture("fig7_G3")
    m = matching_by_edge_labels("fig7_G3", "e1", "e3", "e5")
    got = find_alternating_c4(g, m)
    assert got is not None and got.length == 4 and got.is_chordless()

    g1 = fixture("fig1_G")
    assert find_alternating_c4(g1, matching_by_names("fig1_G", ("a", "b"), ("c", "d"), ("e", "f"))) is None

    g2 = fixture("fig9_G2")
    assert find_alternating_c4(g2, matching_by_edge_labels("fig9_G2", "e1", "e2", "e3")) is None

    with pytest.raises(UsageError):
        find_alternating_c4(g2, Matching(g2, ()))  # not maximum


def test_check_property_p():
    k2 = complete(2)
    assert check_property_p(k2, Matching.of(k2, (0, 1))) == (True, None)

    g = fixture("fig8_G1")
    assert check_property_p(g, has_unique_perfect_matching(g)[1]) == (True, None)

    f10 = fixture("fig10_G")
    ok, bad = check_property_p(f10, has_unique_perfect_matching(f10)[1])
    assert not ok and bad in has_unique_perfect_matching(f10)[1].edges

    with pytest.raises(UsageError):
        check_property_p(g, Matching(g, ()))  # not perfect


def test_property_p_against_oracle():
    # disconnected graphs included: P is read edge by edge, and a perfect
    # matching fails it exactly where the oracle's whole-matching test does
    checked = 0
    for n in range(8):
        for g in nonisomorphic_graphs(n):
            e = oracles.edges_of(g)
            for m in enumerate_perfect_matchings(g):
                pairs = [tuple(x) for x in m.edges]
                first_bad = next((x for x in m.edges if not oracles.property_p(g.n, e, [tuple(x)])),
                                 None)
                assert (first_bad is None) == oracles.property_p(g.n, e, pairs), m
                assert check_property_p(g, m) == (first_bad is None, first_bad), m
                checked += 1
    # the empty matching of n = 0 included
    assert checked == 339


def test_pm_edge_cycle_exclusion():
    # lemma 1 on very well-covered graphs, through the rule that checks it
    for g in (fixture("fig8_G1"), complete(2), corona(path(4), [complete(1)] * 4)):
        item = Facts(g)
        assert item.very_well_covered and item.maximum_matchings[0].is_perfect()
        assert RULES["lem1"].check(item) == []


def _exclusion_agrees_with_oracle(g, m):
    """Lemma 1's search on one perfect matching against the subset oracle; a
    returned cycle runs through the first matched edge the oracle flags, is
    chordless and is not a square.  Returns the cycle's length, or 0."""
    edges = oracles.edges_of(g)
    cycles = (_chordless_cycle_through(g, *e) for e in m.edges)
    cyc = next((c for c in cycles if c is not None), None)
    flagged = [e for e in m.edges if oracles.on_chordless_cycle_not_square(g.n, edges, *e)]
    assert (cyc is None) == (not flagged), (serialize(g), m)
    if cyc is None:
        return 0
    adj = oracles.adj_sets(g.n, edges)
    assert len(set(cyc)) == len(cyc) != 4 and oracles.induces_cycle(adj, set(cyc))
    assert all(cyc[i - 1] in adj[cyc[i]] for i in range(len(cyc)))
    assert any({cyc[i - 1], cyc[i]} == set(flagged[0]) for i in range(len(cyc)))
    return len(cyc)


def test_pm_edge_cycle_exclusion_search_agrees_with_the_subset_oracle(connected_upto_6):
    # lemma 1 only ever sees very well-covered graphs, where it holds; on all
    # graphs the search has cycles to find, triangles and longer ones
    small = [_exclusion_agrees_with_oracle(g, m)
             for g in connected_upto_6 for m in enumerate_perfect_matchings(g)]
    sampled = [_exclusion_agrees_with_oracle(g, m)
               for g in random_graphs(300, 8, 0.3, seed=7) for m in enumerate_perfect_matchings(g)]
    for found in (small, sampled):
        assert found.count(3) and any(k >= 5 for k in found) and found.count(0)
    assert [(len(found), sum(map(bool, found))) for found in (small, sampled)] == [
        (327, 300), (272, 251)]
