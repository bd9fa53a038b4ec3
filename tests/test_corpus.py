import gc
import hashlib
import json
import random
import subprocess
import sys
import time
import weakref
from itertools import combinations, product

import pytest

from lmss import (
    CapacityError,
    CorpusSpec,
    Graph,
    UsageError,
    canonical_graph,
    canonical_key,
    complete,
    connected_graphs,
    corona,
    corona_family,
    cycle,
    is_connected,
    iter_corpus,
    nonisomorphic_graphs,
    nonisomorphic_trees,
    random_graphs,
)
from lmss.corpus import graph_from_key, graph_keys, tree_keys

# published counts of graphs up to isomorphism, used as generation oracles
ALL_GRAPHS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
TREES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}
LARGE_TREES = {13: 1301, 14: 3159, 15: 7741, 16: 19320}  # OEIS A000055


def shuffled_copy(g: Graph, seed: int) -> Graph:
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    return Graph.from_edges(g.n, edges)


def test_known_counts():
    for n, want in ALL_GRAPHS.items():
        assert len(nonisomorphic_graphs(n)) == want, n
    for n, want in CONNECTED.items():
        assert len(connected_graphs(n)) == want, n
    for n, want in TREES.items():
        assert len(nonisomorphic_trees(n)) == want, n


@pytest.mark.slow
def test_large_tree_counts():
    for n, want in LARGE_TREES.items():
        assert len(nonisomorphic_trees(n)) == want, n


def _extend(p: Graph, mask: int) -> Graph:
    """``p`` plus a new last vertex adjacent to ``mask``."""
    new = 1 << p.n
    adj = [a | new if mask >> v & 1 else a for v, a in enumerate(p.adj)]
    return Graph(p.n + 1, (*adj, mask))


def test_every_extension_is_catalogued():
    # every mask on every parent, so no pruning of the generator is trusted:
    # the keys reached are exactly the catalogue's, one graph per key
    for n in range(1, 7):
        parents = nonisomorphic_graphs(n - 1)
        reached = {canonical_key(_extend(p, mask)) for p in parents for mask in range(1 << (n - 1))}
        keys = [canonical_key(g) for g in nonisomorphic_graphs(n)]
        assert len(set(keys)) == len(keys) and reached == set(keys), n
    for n in range(2, 11):
        parents = nonisomorphic_trees(n - 1)
        reached = {canonical_key(_extend(p, 1 << v)) for p in parents for v in range(n - 1)}
        keys = [canonical_key(g) for g in nonisomorphic_trees(n)]
        assert len(set(keys)) == len(keys) and reached == set(keys), n


def test_graph_from_key_reads_rows_of_pairs():
    # the key lists the pairs (0,1), (0,2), ..., (n-2,n-1), most significant first
    rng = random.Random(3)
    for n in range(0, 9):
        pairs = list(combinations(range(n), 2))
        for key in {0, (1 << len(pairs)) - 1, *(rng.getrandbits(len(pairs)) for _ in range(20))}:
            g = graph_from_key(n, key)
            assert g.n == n
            assert sum(g.adjacent(u, v) << len(pairs) - 1 - i for i, (u, v) in enumerate(pairs)) == key
    assert graph_from_key(3, 0b111) == complete(3)
    assert graph_from_key(3, 0b101).edges() == ((0, 1), (1, 2))


def test_graph_from_key_rejects_keys_beyond_its_pairs():
    for n, key in ((3, 0b1111111), (3, 1 << 3), (1, 1), (0, 1), (8, 1 << 28), (3, -1)):
        with pytest.raises(ValueError, match="does not fit"):
            graph_from_key(n, key)


def test_canonical_key_is_relabeling_invariant():
    rng = random.Random(7)
    pool = list(nonisomorphic_graphs(6)) + list(nonisomorphic_graphs(7))[:200]
    for g in rng.sample(pool, 120):
        for seed in (1, 2, 3):
            assert canonical_key(shuffled_copy(g, seed)) == canonical_key(g)


def test_canonical_key_separates_nonisomorphic():
    keys = {canonical_key(g) for g in nonisomorphic_graphs(6)}
    assert len(keys) == ALL_GRAPHS[6]


def test_star_k1_15_is_keyed_in_under_a_second():
    # the fifteen leaves are twins, so each level of the search tries one
    star = Graph.from_edges(16, [(0, leaf) for leaf in range(1, 16)])
    relabeled = shuffled_copy(star, 5)
    start = time.perf_counter()
    key = canonical_key(relabeled)
    assert time.perf_counter() - start < 1.0
    assert key == canonical_key(star)


def test_canonical_graph_roundtrip():
    for g in nonisomorphic_graphs(5):
        cg = canonical_graph(g)
        assert canonical_key(cg) == canonical_key(g)
        assert cg.n == g.n and cg.edge_count == g.edge_count


def test_canonical_key_extremes():
    assert canonical_key(complete(8)) == (1 << 28) - 1
    from lmss import empty_graph
    assert canonical_key(empty_graph(8)) == 0
    assert canonical_key(cycle(8)) == canonical_key(shuffled_copy(cycle(8), 99))


def test_random_graphs_deterministic():
    a = random_graphs(10, 8, 0.3, seed=42)
    b = random_graphs(10, 8, 0.3, seed=42)
    assert a == b
    c = random_graphs(10, 8, 0.3, seed=43)
    assert a != c


def test_corona_family_shape():
    items = list(corona_family(3, 3, 12))
    # 7 bases (sizes 1..3 up to isomorphism), 7 possible parts per slot
    assert len(items) == 1 * 7 + 2 * 7**2 + 4 * 7**3
    for it in items[:50]:
        # a base of x vertices takes x parts
        assert it.graph.n == len(it.parts) + sum(h.graph.n for h in it.parts)


def test_default_coronas_fall_into_623_isomorphism_classes():
    # an automorphism of the base permutes the part tuple, so distinct
    # tuples can give isomorphic coronas; the corpus keeps every tuple
    items = list(corona_family())
    classes = {(it.graph.n, canonical_key(it.graph)) for it in items}
    assert (len(items), len(classes)) == (1477, 623)


def test_corona_family_max_total_prunes():
    full = list(corona_family(2, 2))
    pruned = list(corona_family(2, 2, 4))
    assert [it.graph for it in pruned] == [it.graph for it in full if it.graph.n <= 4]
    assert 0 < len(pruned) < len(full)


def test_corona_family_builds_no_graph_it_cannot_use(patch_lmss):
    # a base of x vertices takes x parts, so with max_total = 6 no corona
    # uses a base of more than 3 vertices
    def capped(n):
        assert n <= 3, f"built the graphs on {n} vertices"
        return nonisomorphic_graphs(n)

    patch_lmss(nonisomorphic_graphs, capped)
    items = list(corona_family(9, 1, 6))
    assert [it.graph.n for it in items] == [2] + [4] * 2 + [6] * 4
    assert [it.name for it in items] == [f"corona_{i:04d}" for i in range(7)]
    # a spec above the cap that clamps below it is valid
    assert CorpusSpec(source="coronas", max_x=10, max_h=10, max_total=10).max_h == 10


@pytest.mark.parametrize("max_x, max_h, max_total", [
    (1, 1, 2), (2, 3, 9), (3, 2, 7), (3, 3, 12), (4, 3, 10), (2, 5, 8),
])
def test_corona_family_walks_the_fitting_part_tuples_in_product_order(max_x, max_h, max_total):
    # the reference walks every tuple of parts and then drops those that do not fit
    top_x, top_h = min(max_x, max_total // 2), min(max_h, max_total - 1)
    bases = [g for n in range(1, top_x + 1) for g in nonisomorphic_graphs(n)]
    parts = [g for n in range(1, top_h + 1) for g in nonisomorphic_graphs(n)]
    shapes = [
        (x, hs) for x in bases for hs in product(parts, repeat=x.n)
        if x.n + sum(h.n for h in hs) <= max_total
    ]
    items = list(corona_family(max_x, max_h, max_total))
    assert [tuple(h.graph for h in it.parts) for it in items] == [hs for _, hs in shapes]
    assert [it.name for it in items] == [f"corona_{i:04d}" for i in range(len(shapes))]
    assert [it.graph for it in items] == [corona(x, hs) for x, hs in shapes]


def test_corona_family_with_large_parts_and_a_small_total_ends_in_seconds():
    # parts of up to 7 vertices make 1,252 candidates a slot, so the full
    # product over a base of 4 vertices has 2.5e12 tuples; 1,753 coronas fit
    script = "from lmss import corona_family; print(sum(1 for _ in corona_family(4, 7, 8)))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "1753\n"), proc.stderr


def test_generation_keys_exactly_the_children_whose_new_vertex_minimises_f():
    # from a cold cache, so no level is already generated: a weaker
    # canonical-deletion test would key more children, and one that lost a
    # class would also change the catalogue pin
    script = (
        "from lmss import corpus\n"
        "calls = 0\n"
        "key = corpus.canonical_key\n"
        "def counted(g):\n"
        "    global calls\n"
        "    calls += 1\n"
        "    return key(g)\n"
        "corpus.canonical_key = counted\n"
        "corpus.graph_keys(8)\n"
        "print(calls)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "17501\n"), proc.stderr


def test_corpus_spec_validation():
    with pytest.raises(UsageError):
        CorpusSpec(source="nope")
    with pytest.raises(UsageError):
        CorpusSpec(source="random", count=5, n=6, edge_probability=0.5)  # no seed
    with pytest.raises(UsageError):
        CorpusSpec(source="exhaustive")  # no max_n
    with pytest.raises(UsageError):
        CorpusSpec(source="fixtures")
    with pytest.raises(UsageError):
        CorpusSpec(source="exhaustive", max_n=4, filter="shiny")
    with pytest.raises(UsageError):
        CorpusSpec(source="exhaustive", max_n=-3)
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(UsageError):
            CorpusSpec(source="random", count=5, n=6, edge_probability=p, seed=1)
    with pytest.raises(UsageError):
        CorpusSpec(source="random", count=-5, n=6, edge_probability=0.5, seed=1)
    # a field the source does not read is an error, not silently ignored
    for kwargs, field in (
        (dict(source="exhaustive", max_n=4, seed=1), "seed"),
        (dict(source="coronas", max_n=3), "max_n"),
        (dict(source="random", count=5, n=6, edge_probability=0.5, seed=1, max_n=3), "max_n"),
        (dict(source="fixtures", fixtures=("fig8_G1",), max_x=2), "max_x"),
        # zero counts and bounds name their field, not an empty corpus
        (dict(source="coronas", max_h=0), "max_h"),
        (dict(source="coronas", max_total=0), "max_total"),
        # a corona bound past the vertex cap fails here, before any corona is built
        (dict(source="coronas", max_total=17), "max_total"),
        # parts of 10 vertices fit a total of 16 but pass the exhaustive cap
        (dict(source="coronas", max_h=10, max_total=16), "max_h"),
        (dict(source="random", count=5, n=0, edge_probability=0.5, seed=1), "n"),
    ):
        with pytest.raises(UsageError, match=field):
            CorpusSpec(**kwargs)


def test_corpus_spec_defaults_and_dict():
    # the builder's defaults fill the fields its source reads, and to_dict
    # emits exactly those fields
    assert CorpusSpec(source="coronas", max_h=2).to_dict() == {
        "source": "coronas", "filter": "none", "max_x": 3, "max_h": 2, "max_total": 12,
    }
    assert CorpusSpec(max_n=3).to_dict() == {"source": "exhaustive", "filter": "none", "max_n": 3}
    assert CorpusSpec(source="fixtures", fixtures=("fig8_G1",)).to_dict()["fixtures"] == ("fig8_G1",)
    assert CorpusSpec(source="coronas").carries_parts
    assert not CorpusSpec(source="exhaustive", max_n=3).carries_parts


def test_iter_corpus_sources_and_filters():
    items = list(iter_corpus(CorpusSpec(source="exhaustive", max_n=5)))
    assert len(items) == sum(CONNECTED[n] for n in range(1, 6))
    assert all(is_connected(it.graph) for it in items)

    vwc = list(iter_corpus(CorpusSpec(source="exhaustive", max_n=5, filter="vwc")))
    assert {it.graph.n for it in vwc} <= {2, 4}
    from lmss import is_very_well_covered
    assert all(is_very_well_covered(it.graph) for it in vwc)

    fix = list(iter_corpus(CorpusSpec(source="fixtures", fixtures=("fig8_G1", "fig8_G2"))))
    assert [it.name for it in fix] == ["fig8_G1", "fig8_G2"]

    rand = list(iter_corpus(
        CorpusSpec(source="random", count=6, n=7, edge_probability=0.4, seed=1)
    ))
    assert len(rand) == 6

    draws = dict(source="random", count=30, n=7, edge_probability=0.25, seed=1)
    every = list(iter_corpus(CorpusSpec(**draws)))
    connected = list(iter_corpus(CorpusSpec(**draws, filter="connected")))
    pairs = [(it.name, it.graph) for it in connected]
    assert pairs == [(it.name, it.graph) for it in every if is_connected(it.graph)]
    assert 0 < len(connected) < len(every)

    # connected forests are trees
    forests = list(iter_corpus(CorpusSpec(source="exhaustive", max_n=5, filter="forest")))
    assert all(it.graph.edge_count == it.graph.n - 1 for it in forests)
    assert len(forests) == sum(TREES[n] for n in range(1, 6))


def test_catalogue_bytes_pinned():
    # sha256 of the catalogues' adjacency lists: any change of representative
    # or order renames corpus items (g8_00123) and can change verify output
    def digest(catalogues):
        data = json.dumps([[list(g.adj) for g in cat] for cat in catalogues])
        return hashlib.sha256(data.encode()).hexdigest()

    assert digest(nonisomorphic_graphs(n) for n in range(0, 9)) == (
        "f00bdc9fd3f42f8d9335aa55aface8288ada6beae8bf6985cf87705b26b4db24"
    )
    assert digest(nonisomorphic_trees(n) for n in range(0, 10)) == (
        "d8db650b72bff63ed510b320ac43fa62dfb0f0779e6a5467f79c24cac6729072"
    )


def _beyond_the_catalogue() -> list[Graph]:
    """Graphs on 9 to 16 vertices whose keys the catalogue pins never reach."""
    draws = []
    for n in range(9, 17):
        for p in (0.2, 0.5, 0.8):
            draws += [g for g in random_graphs(12, n, p, seed=n) if is_connected(g)][:2]
    petersen = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                                + [(i, i + 5) for i in range(5)])
    cube = Graph.from_edges(16, [(v, v ^ b) for v in range(16) for b in (1, 2, 4, 8) if v < v ^ b])
    crown = Graph.from_edges(16, [(i, 8 + j) for i in range(8) for j in range(8) if i != j])
    star = Graph.from_edges(16, [(0, leaf) for leaf in range(1, 16)])
    wheel = corona(complete(1), [cycle(15)])
    return [*draws, star, wheel, petersen, cube, cycle(16), crown]


def test_canonical_keys_pinned_beyond_the_catalogue():
    # counts up to 15 in one cell (the star's and the wheel's centre), and
    # Petersen, the 4-cube, C16 and K8,8 minus a perfect matching, whose
    # refined degree partition admits more than _LEAF_CAP orders, so the
    # search tree individualises before it reaches a leaf
    pairs = [(g.n, canonical_key(g)) for g in _beyond_the_catalogue()]
    pairs += [(n, key) for n in range(10, 13) for key in tree_keys(n)]
    assert len(pairs) == 48 + 6 + 106 + 235 + 551
    digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
    assert digest == "f842abb86dee729a476d00725d52c57874e2aa1321c3101cb67fbbf929eecf9b"


def test_exhaustive_cap():
    with pytest.raises(UsageError):
        nonisomorphic_graphs(10)
    # the source meets the cap when it is called, before it generates any level
    with pytest.raises(UsageError, match="capped at n = 9"):
        iter_corpus(CorpusSpec(source="exhaustive", max_n=10))


def test_generators_check_n_before_they_recurse():
    for generate in (graph_keys, tree_keys, nonisomorphic_graphs, connected_graphs,
                     nonisomorphic_trees):
        with pytest.raises(UsageError, match="at least 0"):
            generate(-1)
    # past the capacity no tree level is grown, cached or read: the one call
    # to tree_keys is the call for n = 17 itself
    before = tree_keys.cache_info()
    with pytest.raises(CapacityError):
        tree_keys(17)
    after = tree_keys.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 1)


@pytest.mark.slow
def test_exhaustive_counts_at_nine():
    # OEIS A000088 and A001349; the digest pins every key of the level, not
    # only their number
    keys = graph_keys(9)
    assert len(keys) == 274_668
    assert hashlib.sha256(json.dumps(keys).encode()).hexdigest() == (
        "9880f012239d0cfba5321e2dc36b0a3bf9fb19cc205e67df10cc05f53d49fffa"
    )
    items = iter_corpus(CorpusSpec(source="exhaustive", max_n=9))
    assert sum(it.graph.n == 9 for it in items) == 261_080


@pytest.mark.slow
def test_every_graph_rebuilt_from_a_key_at_nine_passes_the_checks():
    # graph_from_key builds without Graph's checks; rebuilding each graph
    # through them changes nothing
    for key in graph_keys(9):
        g = graph_from_key(9, key)
        assert Graph(9, g.adj) == g


@pytest.mark.parametrize("spec", [
    CorpusSpec(source="exhaustive", max_n=4),
    CorpusSpec(source="coronas", max_x=2, max_h=2),
    CorpusSpec(source="random", count=5, n=6, edge_probability=0.5, seed=1),
], ids=lambda spec: spec.source)
def test_iter_corpus_keeps_no_item(spec):
    # once the corpus moves past an item, nothing of the corpus holds its graph
    items = iter_corpus(spec)
    first = next(items)
    ref = weakref.ref(first.graph)
    del first
    next(items)
    gc.collect()
    assert ref() is None
