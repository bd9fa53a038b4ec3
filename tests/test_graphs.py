import pytest

import oracles
from lmss import (
    CapacityError,
    DuplicateEdgeError,
    Edge,
    Graph,
    MalformedLineError,
    MismatchError,
    SelfLoopError,
    UsageError,
    VertexRangeError,
    VertexSet,
    closed_neighborhood,
    complete,
    corona,
    cycle,
    empty_graph,
    girth,
    induced_subgraph,
    is_connected,
    is_forest,
    neighborhood,
    parse_edge_list,
    parse_edge_lists,
    path,
    serialize,
    serialize_many,
)
from lmss.corpus import (_augment, graph_from_key, graph_keys, nonisomorphic_graphs,
                         random_graphs, tree_keys)
from lmss.facts import Facts
from lmss.fixtures import fixture, fixture_names


def test_graph_invariants_enforced():
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, (2, 0))
    with pytest.raises(ValueError, match="adjacency masks"):
        Graph(2, (2,))
    with pytest.raises(ValueError):
        Graph(1, (1,))  # self-loop
    with pytest.raises(ValueError):
        Graph(1, (2,))  # mask outside universe
    # the same checks on the highest vertex of a full-size graph
    high = [0] * 16
    high[15] = 1 << 14
    with pytest.raises(ValueError, match="^asymmetric adjacency between 14 and 15$"):
        Graph(16, tuple(high))
    high[15] = 1 << 15
    with pytest.raises(ValueError, match="^self-loop at vertex 15$"):
        Graph(16, tuple(high))
    high[15] = 1 << 16
    with pytest.raises(ValueError, match="^adjacency mask of vertex 15 leaves the vertex universe$"):
        Graph(16, tuple(high))
    with pytest.raises(CapacityError):
        Graph(17, (0,) * 17)
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])  # duplicate edge
    with pytest.raises(ValueError, match="distinct"):
        Graph(2, (2, 1), labels=("a", "a"))
    with pytest.raises(ValueError, match="cover every vertex"):
        Graph(2, (2, 1), labels=("a",))


def test_malformed_input_raises_the_same_error_through_every_public_constructor():
    # class and message exactly, whichever way the input enters
    cases = [
        (lambda: Graph(17, (0,) * 17), CapacityError, "vertex count 17 outside 0..16"),
        (lambda: Graph(-1, ()), CapacityError, "vertex count -1 outside 0..16"),
        (lambda: Graph(2, (2,)), ValueError, "expected 2 adjacency masks, got 1"),
        (lambda: Graph(1, (2,)), ValueError, "adjacency mask of vertex 0 leaves the vertex universe"),
        (lambda: Graph(1, (1,)), ValueError, "self-loop at vertex 0"),
        (lambda: Graph(3, (2, 0, 0)), ValueError, "asymmetric adjacency between 1 and 0"),
        (lambda: Graph(2, (2, 1), ("a", "a")), ValueError, "labels must be distinct"),
        (lambda: Graph(2, (2, 1), ("a",)), ValueError, "labels must cover every vertex"),
        (lambda: Graph.from_edges(17, []), CapacityError, "vertex count 17 outside 0..16"),
        (lambda: Graph.from_edges(3, [(0, 3)]), ValueError, "edge (0,3) outside 0..2"),
        (lambda: Graph.from_edges(3, [(0, 1), (1, 0)]), ValueError, "duplicate edge (1,0)"),
        (lambda: Graph.from_edges(2, [(1, 1)]), UsageError, "self-loop at vertex 1"),
        (lambda: Graph.from_edges(2, [], ("a", "a")), ValueError, "labels must be distinct"),
        (lambda: parse_edge_list(""), MalformedLineError, "empty input: missing vertex count"),
        (lambda: parse_edge_list("-1\n"), MalformedLineError, "line 1: negative vertex count -1"),
        (lambda: parse_edge_list("17\n"), CapacityError, "line 1: vertex count 17 exceeds 16"),
        (lambda: parse_edge_list("2\n0 1 2\n"), MalformedLineError,
         "line 2: expected 'u v', got '0 1 2'"),
        (lambda: parse_edge_list("2\n0 5\n"), VertexRangeError, "line 2: edge (0,5) outside 0..1"),
        (lambda: parse_edge_list("2\n0 0\n"), SelfLoopError, "line 2: self-loop at vertex 0"),
        (lambda: parse_edge_list("3\n0 1\n1 0\n"), DuplicateEdgeError,
         "line 3: duplicate edge (1,0)"),
        (lambda: path(3).with_labels(("a", "b")), ValueError, "labels must cover every vertex"),
        (lambda: path(2).with_labels(("a", "a")), ValueError, "labels must be distinct"),
        (lambda: graph_from_key(-1, 0), CapacityError, "vertex count -1 outside 0..16"),
        (lambda: graph_from_key(17, 0), CapacityError, "vertex count 17 outside 0..16"),
        (lambda: graph_from_key(3, 1 << 3), ValueError,
         "key 8 does not fit the 3 vertex pairs of n = 3"),
    ]
    for build, cls, message in cases:
        with pytest.raises(ValueError) as err:
            build()
        assert (type(err.value), str(err.value)) == (cls, message)


def _checked(g):
    """``g`` rebuilt through every check of ``Graph``."""
    return Graph(g.n, g.adj, g.labels)


def test_every_derived_graph_passes_the_checks(patch_lmss):
    # graphs built without the checks, from a graph or text already checked
    for n in range(8):
        for g in nonisomorphic_graphs(n):
            assert _checked(g) == g
    for seed, n in enumerate((10, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15, 16, 16, 16), 1):
        for g in random_graphs(2, n, (0.2, 0.3, 0.5)[seed % 3], seed):
            copy = Facts(g)._relabelled[0]
            assert copy is not g and _checked(copy) == copy
    for name in fixture_names():
        g = fixture(name)
        assert parse_edge_list(serialize(g)) == _checked(g).with_labels(None)
        for mask in range(0, 1 << g.n, 37):
            sub, _ = induced_subgraph(g, VertexSet(g, mask))
            assert _checked(sub) == sub
    # the children the generators key, and the graph of pendant edges
    import lmss.corpus
    import lmss.matching
    from lmss import has_pendant_perfect_matching

    seen = []
    key, mu = lmss.corpus.canonical_key, lmss.matching.mu
    patch_lmss(key, lambda g: seen.append(g) or key(g))
    patch_lmss(mu, lambda g, *memo: seen.append(g) or mu(g, *memo))
    for n in range(1, 8):
        assert _augment(graph_keys(n - 1), n, range(1 << (n - 1))) == graph_keys(n)
        if n > 1:
            assert _augment(tree_keys(n - 1), n, [1 << v for v in range(n - 1)]) == tree_keys(n)
        for g in nonisomorphic_graphs(n):
            has_pendant_perfect_matching(g)
    assert len(seen) > 1_000
    assert all(_checked(g) == g for g in seen)


def test_vertex_lookup_and_sets():
    g = fixture("fig2_G")
    assert g.vertex("a") == 0 and g.vertex(3) == 3
    with pytest.raises(UsageError):
        g.vertex("nope")
    s = g.set_of("b", "d")
    assert s.names() == ("b", "d") and len(s) == 2 and "b" in s
    other = path(4).set_of(0)
    with pytest.raises(MismatchError):
        _ = s | other


def test_neighborhood_examples():
    p4 = path(4).with_labels(("a", "b", "c", "d"))
    assert neighborhood(p4, p4.set_of("a")).names() == ("b",)
    g = fixture("fig2_G")
    assert neighborhood(g, g.set_of("b", "d")).names() == ("a", "c", "g")
    assert neighborhood(g, g.set_of()).vertices() == ()


def test_closed_neighborhood_examples():
    p4 = path(4).with_labels(("a", "b", "c", "d"))
    assert closed_neighborhood(p4, p4.set_of("a")).names() == ("a", "b")
    h = fixture("fig3_H")
    got = closed_neighborhood(h, h.set_of("y", "t"))
    assert set(got.names()) == {"y", "t", "v", "x"}
    assert closed_neighborhood(p4, p4.set_of()).vertices() == ()


def test_neighborhood_laws_exhaustive_small(connected_upto_6):
    for g in connected_upto_6[:60]:
        for mask in range(1 << g.n):
            s = VertexSet(g, mask)
            nb = neighborhood(g, s)
            assert nb.bits & s.bits == 0
            assert closed_neighborhood(g, s).bits == s.bits | nb.bits


def test_induced_subgraph():
    c4 = cycle(4)
    sub, mapping = induced_subgraph(c4, VertexSet(c4, c4.full_mask))
    assert sub.adj == c4.adj and mapping == (0, 1, 2, 3)

    h = fixture("fig3_H")
    sub, mapping = induced_subgraph(h, h.set_of("y", "t", "v", "x"))
    assert sub.n == 4 and sub.edge_count == 4
    assert sorted(sub.degree(v) for v in range(4)) == [2, 2, 2, 2]  # a square
    # adjacency preserved under the map, checked pair by pair
    for i in range(sub.n):
        for j in range(sub.n):
            assert sub.adjacent(i, j) == h.adjacent(mapping[i], mapping[j])

    sub, mapping = induced_subgraph(c4, c4.set_of())
    assert sub.n == 0 and mapping == ()


def test_girth():
    assert girth(path(5)) is None
    assert girth(cycle(7)) == 7
    assert girth(fixture("fig8_G1")) == 3
    assert girth(complete(4)) == 3
    for name in ("fig1_G", "fig4_G", "fig9_G2", "fig10_G"):
        g = fixture(name)
        assert girth(g) == oracles.girth(g.n, oracles.edges_of(g))


def test_girth_and_is_forest_on_every_graph_up_to_7_vertices():
    for n in range(8):
        for g in nonisomorphic_graphs(n):
            gi = girth(g)
            assert gi == oracles.girth(g.n, oracles.edges_of(g)), g
            assert is_forest(g) == (gi is None), g


def test_corona_construction():
    k2 = corona(complete(1), [complete(1)])
    assert k2.n == 2 and k2.edge_count == 1

    x = fixture("fig5_X")
    g = corona(x, [complete(3), complete(2), path(3), cycle(4)])
    assert g.n == 16
    assert g.adj == fixture("fig5_G").adj

    # vertex and edge counts obey the construction arithmetic
    hs = [path(2), cycle(3), complete(1)]
    base = path(3)
    c = corona(base, hs)
    assert c.n == base.n + sum(h.n for h in hs)
    assert c.edge_count == base.edge_count + sum(h.edge_count + h.n for h in hs)

    # attaching a single vertex everywhere pends a perfect matching
    c = corona(path(4), [complete(1)] * 4)
    pendant = [v for v in range(c.n) if c.degree(v) == 1]
    assert len(pendant) == 4

    with pytest.raises(CapacityError):
        corona(complete(4), [complete(4)] * 4)
    with pytest.raises(UsageError):
        corona(complete(2), [complete(1)])
    with pytest.raises(UsageError):
        corona(complete(1), [empty_graph(0)])


def test_generators():
    assert path(2).edge_count == 1
    assert complete(5).edge_count == 10
    assert cycle(3).adj == complete(3).adj
    assert empty_graph(3).edge_count == 0
    g = fixture("fig3_G")
    assert g.n == 6
    assert {(g.label_of(u), g.label_of(v)) for u, v in g.edges()} == {
        ("a", "b"), ("b", "c"), ("c", "d"), ("b", "e"), ("c", "f"), ("e", "f"),
    }
    with pytest.raises(UsageError):
        fixture("fig99_G")


def test_parse_and_serialize():
    g = parse_edge_list("3\n0 1\n1 2\n")
    assert g.adj == path(3).adj
    assert parse_edge_list("1\n").adj == (0,)
    assert parse_edge_list("# comment\n2\n0 1  # trailing\n").edge_count == 1

    with pytest.raises(SelfLoopError):
        parse_edge_list("2\n0 0\n")
    with pytest.raises(DuplicateEdgeError):
        parse_edge_list("3\n0 1\n1 0\n")
    with pytest.raises(VertexRangeError) as err:
        parse_edge_list("2\n0 5\n")
    assert err.value.line == 2
    with pytest.raises(MalformedLineError):
        parse_edge_list("2\n0 1 2\n")
    with pytest.raises(MalformedLineError) as err:
        parse_edge_list("2\n0 x\n")
    assert err.value.line == 2
    with pytest.raises(MalformedLineError):
        parse_edge_list("")
    for count in ("--5", "\u00b2", "5 6"):
        with pytest.raises(MalformedLineError):
            parse_edge_list(count + "\n")
    with pytest.raises(CapacityError):
        parse_edge_list("42\n")


def test_roundtrip_on_corpus(connected_upto_6):
    for g in connected_upto_6:
        assert parse_edge_list(serialize(g)) == g


def test_multi_graph_files():
    items = [("a", path(3)), ("b", cycle(4)), ("c", complete(1))]
    text = serialize_many(items)
    assert parse_edge_lists(text) == [g for _, g in items]


def test_edges_canonical_order():
    g = fixture("fig8_G1")
    es = g.edges()
    assert list(es) == sorted(es)
    assert all(u < v for u, v in es)
    assert Edge.of(3, 1) == Edge(1, 3)
    with pytest.raises(UsageError):
        Edge.of(2, 2)


def test_connectivity():
    assert is_connected(path(5))
    assert not is_connected(empty_graph(2))
    assert is_connected(complete(1))
    assert is_connected(empty_graph(0))
