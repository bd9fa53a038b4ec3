import random
import subprocess
import sys

import pytest

import oracles
from lmss import (
    Graph,
    SetSystem,
    UsageError,
    VertexSet,
    alpha,
    complete,
    cycle,
    empty_graph,
    extends_to_maximum,
    is_stable,
    maximal_stable_sets,
    omega_enumerate,
    path,
    psi_enumerate,
    psi_member_oracle,
)
from lmss.corpus import random_graphs
from lmss.facts import _RELABEL_CROSSOVER, Facts, _breadth_first_order
from lmss.fixtures import fixture
from lmss.stability import _alpha_on, _chain_grows, _psi_member_counting


def fam_as_sets(family):
    return {frozenset(s.vertices()) for s in family}


def test_is_stable():
    c4 = cycle(4)
    assert is_stable(c4, c4.set_of())
    assert is_stable(c4, c4.set_of(0, 2))
    assert not is_stable(complete(3), complete(3).set_of(0, 1))


def test_alpha_after_psi_is_one_lookup_in_the_graph_memo(connected_upto_6, patch_lmss):
    # psi asks alpha of every N[S], N[S] = V for a maximal S included, in the
    # graph's one memo; so alpha, read after psi, recurses no further.  The
    # last graph is past the relabelling crossover, where the memo is the
    # copy's and N[S] is in its labels
    graphs = connected_upto_6 + random_graphs(1, 12, 0.3, seed=12)
    assert graphs[-1].n >= _RELABEL_CROSSOVER
    want = [alpha(g) for g in graphs]
    calls = []
    patch_lmss(_alpha_on, lambda g, avail, memo: calls.append(avail) or _alpha_on(g, avail, memo))
    for g, a in zip(graphs, want):
        item = Facts(g)
        item.psi
        calls.clear()
        assert item.alpha == a
        assert calls == [g.full_mask]


def _relabel(g, perm):
    """g with each vertex v renamed perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _relabel_mask(mask, perm):
    return sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1)


def test_the_copy_is_the_graph_below_the_crossover_and_breadth_first_from_it():
    assert _RELABEL_CROSSOVER == 10
    nine = path(9)
    assert Facts(nine)._relabelled == (nine, tuple(m | 1 << v for v, m in enumerate(nine.adj)))
    # a path under shuffled labels comes out as the path from its end of
    # least label, and closed[v] is N[v] in the copy's labels
    perm = random.Random(16).sample(range(16), 16)
    shuffled = _relabel(path(16), perm)
    copy, closed = Facts(shuffled)._relabelled
    assert copy.adj == path(16).adj
    start = min(perm[0], perm[15])
    assert closed[start] == 0b11
    assert sorted(closed) == sorted(m | 1 << v for v, m in enumerate(copy.adj))
    # each component starts from its least-degree vertex (3, then 6), and
    # neighbours come least degree first (5 after 7 and 8), ties by label
    g = Graph.from_edges(10, [(0, 1), (0, 2), (1, 2), (2, 3),
                              (4, 5), (4, 6), (4, 7), (4, 8), (5, 9)])
    assert _breadth_first_order(g) == [3, 2, 0, 1, 6, 4, 7, 8, 5, 9]


def test_facts_above_the_crossover_against_the_oracles():
    # alpha, psi and the perfect-matching count run on the copy, so every
    # fact they feed is compared with the definitions past the crossover
    for n in (10, 11, 12):
        for p in (0.3, 0.5, 0.7):
            g = random_graphs(1, n, p, seed=n)[0]
            item, e = Facts(g), oracles.edges_of(g)
            assert item._relabelled[0] is not g
            assert fam_as_sets(item.psi) == oracles.psi(n, e)
            assert fam_as_sets(item.omega) == oracles.maximum_stable_sets(n, e)
            assert maximal_stable_sets(g) == sorted(
                sum(1 << v for v in s) for s in oracles.maximal_stable_sets(n, e))
            assert item.alpha == oracles.alpha(n, e)
            assert item.well_covered == oracles.is_well_covered(n, e)
            assert item.perfect_matching_count == len(oracles.perfect_matchings(n, e))


def test_psi_of_a_relabelled_graph_is_the_relabelled_psi():
    rng = random.Random(9)
    for n in range(9, 17):
        for p in (0.2, 0.35, 0.5):
            g = random_graphs(1, n, p, seed=100 * n + int(100 * p))[0]
            perm = rng.sample(range(n), n)
            item, moved = Facts(g), Facts(_relabel(g, perm))
            assert moved.psi.members == tuple(
                sorted(_relabel_mask(s, perm) for s in item.psi.members))
            assert moved.perfect_matching_count == item.perfect_matching_count
            assert moved.alpha == item.alpha


@pytest.mark.slow
def test_psi_and_perfect_matching_count_against_the_oracles_at_13_and_14():
    for n in (13, 14):
        for g in random_graphs(2, n, 0.3, seed=n) + random_graphs(2, n, 0.5, seed=n):
            item, e = Facts(g), oracles.edges_of(g)
            assert fam_as_sets(item.psi) == oracles.psi(n, e)
            assert item.perfect_matching_count == len(oracles.perfect_matchings(n, e))


def test_alpha_examples():
    for n in range(1, 6):
        assert alpha(complete(n)) == 1
    assert alpha(fixture("fig10_G")) == 4
    assert alpha(fixture("fig3_G")) == 3
    assert alpha(complete(0)) == 0


def test_alpha_against_oracle(connected_upto_6):
    for g in connected_upto_6:
        assert alpha(g) == oracles.alpha(g.n, oracles.edges_of(g))


def test_omega_enumerate():
    k2 = complete(2)
    assert fam_as_sets(omega_enumerate(k2)) == {frozenset({0}), frozenset({1})}
    c4 = cycle(4)
    assert fam_as_sets(omega_enumerate(c4)) == {frozenset({0, 2}), frozenset({1, 3})}
    g = fixture("fig2_G")
    omega = fam_as_sets(omega_enumerate(g))
    assert frozenset(g.set_of("a", "d", "f").vertices()) in omega
    assert frozenset(g.set_of("b", "e", "g").vertices()) in omega


def test_alpha_recursion_takes_a_pendant_lowest_vertex():
    # the lowest vertex of every mask the path reaches is pendant, so the
    # recursion never branches: one memo entry per taken vertex
    g = path(16)
    memo = {}
    assert _alpha_on(g, g.full_mask, memo) == 8
    assert len(memo) == 8


def test_omega_against_oracle(connected_upto_6):
    for g in connected_upto_6[:80]:
        assert fam_as_sets(omega_enumerate(g)) == oracles.maximum_stable_sets(
            g.n, oracles.edges_of(g)
        )


def test_psi_member_oracle_fig2():
    g = fixture("fig2_G")
    for members, want in [
        (("a",), True), (("b",), False), (("e", "d"), True),
        (("a", "e"), False), (("a", "d", "f"), True), (("c", "f"), False),
    ]:
        assert psi_member_oracle(g, g.set_of(*members)) == want
    assert psi_member_oracle(g, g.set_of())


def test_psi_member_oracle_fig3_H():
    h = fixture("fig3_H")
    assert psi_member_oracle(h, h.set_of("y", "t"))
    assert not psi_member_oracle(h, h.set_of("y"))
    assert not psi_member_oracle(h, h.set_of("t"))


def test_psi_member_vwc():
    # the counting shortcut |S| = |N(S)|
    g = fixture("fig6_G1")
    assert _psi_member_counting(g, g.set_of("b", "e").bits)
    assert not _psi_member_counting(g, g.set_of("b", "d").bits)
    f8 = fixture("fig8_G1")
    assert _psi_member_counting(f8, f8.set_of("p1").bits)  # pendant
    c4 = cycle(4)
    assert not _psi_member_counting(c4, c4.set_of(0).bits)


def test_psi_member_vwc_matches_oracle_on_vwc_fixtures():
    for name in ("fig6_G1", "fig7_G1", "fig7_G2", "fig7_G3", "fig8_G1", "fig3_G"):
        g = fixture(name)
        for mask in range(1 << g.n):
            s = VertexSet(g, mask)
            if not is_stable(g, s):
                continue
            assert _psi_member_counting(g, mask) == psi_member_oracle(g, s), (name, mask)


def test_psi_enumerate_examples():
    p4 = path(4).with_labels(("a", "b", "c", "d"))
    fam = fam_as_sets(psi_enumerate(p4))
    assert fam == {
        frozenset(), frozenset({0}), frozenset({3}), frozenset({0, 2}),
        frozenset({1, 3}), frozenset({0, 3}),
    }
    c4 = cycle(4)
    assert fam_as_sets(psi_enumerate(c4)) == {
        frozenset(), frozenset({0, 2}), frozenset({1, 3})
    }
    k1 = complete(1)
    assert fam_as_sets(psi_enumerate(k1)) == {frozenset(), frozenset({0})}


def test_psi_enumerate_matches_oracle(connected_upto_6):
    for g in connected_upto_6:
        assert fam_as_sets(psi_enumerate(g)) == oracles.psi(g.n, oracles.edges_of(g))


def test_psi_of_eight_disjoint_edges():
    # at the 16-vertex cap: N[S] of a stable S is |S| whole edges, whose alpha
    # is |S|, so every one of the 3^8 stable sets is locally maximum
    g = Graph.from_edges(16, [(2 * i, 2 * i + 1) for i in range(8)])
    assert alpha(g) == 8
    fam = psi_enumerate(g)
    assert len(fam) == 3 ** 8
    assert all(is_stable(g, s) for s in fam)


def test_psi_of_edgeless_graph_on_sixteen_vertices():
    # N[S] = S for every S, so all 2^16 sets are locally maximum
    g = empty_graph(16)
    assert alpha(g) == 16
    assert psi_enumerate(g).members == tuple(range(1 << 16))


def test_psi_members_ascending_and_distinct():
    g = fixture("fig8_G1")
    fam = psi_enumerate(g)
    assert list(fam.members) == sorted(set(fam.members))
    # the family is the set system over V(G) that the greedoid checks read
    assert isinstance(fam, SetSystem) and fam.ground_size == g.n
    assert all(s in fam and s.bits in fam for s in fam)
    assert VertexSet(g, g.full_mask) not in fam and g.full_mask not in fam


def test_extends_to_maximum():
    g = fixture("fig2_G")
    got = extends_to_maximum(g, g.set_of("e", "g"))
    assert g.set_of("e", "g") <= got
    assert frozenset(got.vertices()) in oracles.maximum_stable_sets(
        g.n, oracles.edges_of(g)
    )

    h = fixture("fig3_H")
    got = extends_to_maximum(h, h.set_of("y", "t"))
    assert set(got.names()) == {"u", "y", "t", "w"}

    empty = extends_to_maximum(g, g.set_of())
    assert len(empty) == alpha(g)

    with pytest.raises(UsageError):
        extends_to_maximum(g, g.set_of("b"))  # not locally maximum


def test_extends_always_succeeds_for_members(connected_upto_6):
    for g in connected_upto_6:
        for s in psi_enumerate(g):
            got = extends_to_maximum(g, s)
            assert got is not None and s <= got and len(got) == alpha(g)


def test_check_chain_growth():
    # the growth shortcut |N(A)| = |N(B)| + 1
    g = fixture("fig6_G1")
    assert _chain_grows(g, g.set_of("b").bits, g.set_of("b", "a").bits)
    f8 = fixture("fig8_G1")
    assert _chain_grows(f8, f8.set_of("p1").bits, f8.set_of("p1", "q1").bits)


def test_vwc_preconditions_hold_under_python_O():
    # the precondition checks are not assertions: -O keeps them
    script = """
from lmss import Matching, UsageError, check_property_p, find_alternating_c4, fixture
from lmss import matching_from_chains
g = fixture("fig10_G")
calls = [
    lambda: matching_from_chains(g),  # not very well-covered
    lambda: find_alternating_c4(g, Matching(g, ())),  # not maximum
    lambda: check_property_p(g, Matching(g, ())),  # not perfect
]
for call in calls:
    try:
        call()
    except UsageError:
        continue
    raise SystemExit("returned instead of raising")
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_chain_growth_agrees_with_oracle_on_vwc_fixtures():
    for name in ("fig6_G1", "fig7_G2", "fig8_G1", "fig3_G"):
        g = fixture(name)
        for b in psi_enumerate(g):
            for v in range(g.n):
                if v in b:
                    continue
                a = b.with_vertex(v)
                if not is_stable(g, a):
                    continue
                assert _chain_grows(g, b.bits, a.bits) == psi_member_oracle(g, a)
