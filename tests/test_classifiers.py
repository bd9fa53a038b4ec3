import oracles
from lmss import (
    complete,
    cycle,
    has_pendant_perfect_matching,
    induced_subgraph,
    is_bipartite,
    is_c4_free,
    is_forest,
    is_koenig_egervary,
    is_triangle_free,
    is_very_well_covered,
    is_well_covered,
    path,
    psi_neighborhoods_are_ke,
)
from lmss.corpus import connected_graphs
from lmss.fixtures import fixture


def test_well_covered_examples():
    assert is_well_covered(complete(3))
    # every maximal stable set of the 4-path ({a,c},{a,d},{b,d}) has size 2
    assert is_well_covered(path(4))
    assert not is_well_covered(path(5))
    assert not is_well_covered(fixture("fig9_G1"))
    assert is_well_covered(fixture("fig10_G"))


def test_well_covered_against_oracle(connected_upto_6):
    for g in connected_upto_6:
        assert is_well_covered(g) == oracles.is_well_covered(g.n, oracles.edges_of(g))


def test_very_well_covered_examples():
    assert is_very_well_covered(cycle(4))
    assert not is_very_well_covered(complete(3))
    assert not is_very_well_covered(fixture("fig10_G"))
    assert is_very_well_covered(fixture("fig6_G1"))
    from lmss import empty_graph
    assert not is_very_well_covered(empty_graph(2))  # isolated vertices


def test_very_well_covered_skips_alpha_on_odd_n_or_an_isolated_vertex(patch_lmss):
    import lmss.stability
    from lmss import empty_graph
    from lmss.facts import Facts

    original = lmss.stability.alpha
    calls = []
    patch_lmss(original, lambda g, *memo: calls.append(g) or original(g, *memo))
    for g in (path(5), complete(3), empty_graph(2)):
        assert not is_very_well_covered(g) and not Facts(g).very_well_covered
    assert calls == []
    assert is_very_well_covered(cycle(4)) and len(calls) == 1


def test_very_well_covered_against_oracle(connected_upto_6):
    for g in connected_upto_6:
        assert is_very_well_covered(g) == oracles.is_very_well_covered(
            g.n, oracles.edges_of(g)
        )


def test_koenig_egervary():
    assert is_koenig_egervary(path(5))  # bipartite
    assert not is_koenig_egervary(complete(3))
    g = fixture("fig4_G")
    sub, _ = induced_subgraph(g, g.set_of("b", "c", "a", "d", "e"))
    assert not is_koenig_egervary(sub)
    for g in (fixture("fig4_G"), fixture("fig4_H")):
        assert is_koenig_egervary(g)


def test_bipartite_graphs_are_ke(connected_upto_6):
    for g in connected_upto_6:
        if is_bipartite(g):
            assert is_koenig_egervary(g)


def test_triangle_and_square_freeness():
    t = path(7)
    assert is_triangle_free(t) and is_c4_free(t)
    assert is_triangle_free(cycle(4)) and not is_c4_free(cycle(4))
    g = fixture("fig8_G1")
    assert not is_triangle_free(g) and not is_c4_free(g)
    # a square with one chord has triangles but no chordless square
    from lmss import Graph
    diamond = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert not is_triangle_free(diamond) and is_c4_free(diamond)


def test_freeness_against_oracle(connected_upto_6):
    for g in connected_upto_6:
        cycles = oracles.simple_cycles(g.n, oracles.edges_of(g))
        assert is_triangle_free(g) == all(len(c) != 3 for c in cycles)
        chordless_squares = [
            c for c in cycles
            if len(c) == 4 and not oracles.cycle_has_chord(g.n, oracles.edges_of(g), c)
        ]
        assert is_c4_free(g) == (not chordless_squares)


def test_c4_freeness_against_brute_force():
    for n in range(1, 8):
        for g in connected_graphs(n):
            assert is_c4_free(g) == (not oracles.has_chordless_square(g.n, oracles.edges_of(g)))


def test_psi_neighborhoods_are_ke():
    ok, witness = psi_neighborhoods_are_ke(fixture("fig4_G"))
    g = fixture("fig4_G")
    assert not ok
    assert witness == g.set_of("b", "c")
    assert psi_neighborhoods_are_ke(complete(1)) == (True, None)
    for name in ("fig6_G1", "fig7_G1", "fig7_G2", "fig7_G3", "fig8_G1", "fig3_G"):
        assert psi_neighborhoods_are_ke(fixture(name)) == (True, None)


def test_psi_neighborhoods_are_ke_against_oracle_on_connected_graphs_to_seven():
    # verdict and first witness (ascending mask order) from the definition:
    # psi from the oracle, and Koenig-Egervary tested on G[N[S]] itself
    for n in range(1, 8):
        for g in connected_graphs(n):
            e = oracles.edges_of(g)
            adj = oracles.adj_sets(n, e)
            bad = [s for s in oracles.psi(n, e)
                   if not oracles.is_koenig_egervary(*oracles.induced(n, e, oracles.closed(adj, s)))]
            first = min(bad, key=lambda s: sum(1 << v for v in s), default=None)
            ok, witness = psi_neighborhoods_are_ke(g)
            assert ok == (first is None), g
            assert (None if witness is None else set(witness)) == (
                None if first is None else set(first)), g


def test_forest_and_bipartite():
    assert is_forest(path(6)) and not is_forest(cycle(3))
    assert is_bipartite(cycle(6)) and not is_bipartite(cycle(5))
    assert not is_bipartite(fixture("fig4_H"))
    assert is_bipartite(fixture("fig3_G"))


def test_well_covered_monotone_sanity(connected_upto_6):
    # in a well-covered graph the maximum stable sets are exactly the
    # maximal ones, and they all have maximum size
    from lmss import alpha, maximal_stable_sets, omega_enumerate

    for g in connected_upto_6:
        if not is_well_covered(g):
            continue
        maximal = maximal_stable_sets(g)
        assert all(m.bit_count() == alpha(g) for m in maximal)
        assert list(omega_enumerate(g).members) == maximal


def test_pendant_perfect_matching():
    from lmss import corona, complete as K
    c = corona(cycle(5), [K(1)] * 5)
    assert has_pendant_perfect_matching(c)
    assert not has_pendant_perfect_matching(cycle(4))  # no pendants at all
    assert not has_pendant_perfect_matching(path(3))  # odd order
    # two pendants sharing a support vertex block each other
    from lmss import Graph
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert not has_pendant_perfect_matching(star)
