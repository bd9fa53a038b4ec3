import dataclasses
from collections import Counter, deque
from types import SimpleNamespace

import pytest

import oracles
from lmss import (CorpusSpec, Edge, Matching, UsageError, corona, complete, cycle, fixture,
                  parse_edge_list, path, verify)
from lmss.corpus import (connected_graphs, corona_family, graph_from_key, graph_keys,
                         iter_corpus, nonisomorphic_graphs, random_graphs)
from lmss.classifiers import (has_isolated_vertices, is_bipartite, is_c4_free, is_forest,
                              is_triangle_free)
from lmss.facts import Facts
from lmss.matching import (_chordless_cycle_through, _count_perfect_matchings_on, _cycle_free,
                           count_perfect_matchings, mu)
from lmss.graphs import Graph, serialize
from lmss.stability import _alpha_on, _chain_grows, _psi_member_counting, _stable_sets
from lmss import theorems
from lmss.theorems import RULES, _check_th10iv


EXPECTED_RULES = {
    "th1", "th2", "th3", "th4", "th7", "th8", "th9", "th10iv", "th11", "th22",
    "th88iii", "th88iv", "lem1", "lem2", "lem3", "lem65", "equiv7",
    "c4free-corollary",
}


def test_rule_registry():
    assert set(RULES) == EXPECTED_RULES
    assert RULES["th10iv"].needs_corona and RULES["th88iv"].needs_corona
    assert not RULES["th8"].needs_corona


def test_verify_fixture_corpus_th8():
    spec = CorpusSpec(source="fixtures", fixtures=("fig8_G1", "fig8_G2", "fig8_G3"))
    summary = verify(spec, ["th8"])
    assert summary.passed and summary.reports[0].checked == 3


def test_verify_rejects_unknown_rule_and_wrong_corpus():
    spec = CorpusSpec(source="fixtures", fixtures=("fig8_G1",))
    with pytest.raises(UsageError):
        verify(spec, ["thX"])
    with pytest.raises(UsageError):
        verify(spec, ["th10iv"])


def test_corona_rules_on_nontrivial_parts():
    # attached parts with a non-greedoid family force the corona verdict down
    wheel_item = Facts(corona(complete(1), [cycle(4)]), "w", parts=(Facts(cycle(4)),))
    assert _check_th10iv(wheel_item) == []  # the rule holds: both sides are False
    from lmss import psi_is_greedoid
    assert not psi_is_greedoid(wheel_item.graph).holds
    good = Facts(corona(complete(1), [complete(3)]), "k", parts=(Facts(complete(3)),))
    assert _check_th10iv(good) == []
    assert psi_is_greedoid(good.graph).holds


def test_violations_propagate_and_serialise(monkeypatch):
    # a deliberately false rule must surface violations and fail the summary
    from lmss import theorems

    broken = theorems.Rule(
        "th8", "broken on purpose", False,
        lambda item: ["forced"],
    )
    monkeypatch.setitem(theorems.RULES, "th8", broken)
    spec = CorpusSpec(source="fixtures", fixtures=("fig8_G1",))
    summary = verify(spec, ["th8"])
    assert not summary.passed and summary.total_violations == 1
    # verify names the rule and the item, and adds the item's edge list
    assert summary.reports[0].violations == (
        theorems.Violation("th8", "fig8_G1", "forced", serialize(fixture("fig8_G1"))),
    )
    data = summary.to_dict()
    assert data["pass"] is False
    assert data["rules"][0]["violations"][0]["detail"] == "forced"


def test_verify_validates_every_rule_before_running_any(monkeypatch):
    from lmss import theorems

    calls = []
    th7 = theorems.RULES["th7"]
    counting = theorems.Rule(
        "th7", th7.describe, th7.needs_corona, lambda item: calls.append(item) or []
    )
    monkeypatch.setitem(theorems.RULES, "th7", counting)
    spec = CorpusSpec(source="fixtures", fixtures=("fig8_G1", "fig8_G2"))
    with pytest.raises(UsageError, match="corona"):
        verify(spec, ["th7", "th10iv"])
    assert calls == []


def test_verify_computes_well_covered_once_per_item(patch_lmss):
    # well-coveredness is read off the stable-set walk, so the walks count it
    calls = []
    patch_lmss(_stable_sets, lambda g, *rest: calls.append(g) or _stable_sets(g, *rest))
    # th8 and th3 ask very-well-coveredness, which asks well-coveredness on
    # the 143 of these 177 graphs with |V| = 2 alpha; th88iii asks both on
    # every item, as none has an isolated vertex; 18 graphs are very
    # well-covered, so th3 reads on past the question
    spec = CorpusSpec(source="random", count=300, n=6, edge_probability=0.4, seed=1,
                      filter="connected")
    assert verify(spec, ["th8", "th3", "th88iii"]).passed
    assert calls == [item.graph for item in iter_corpus(spec)]
    # the filter asks very-well-coveredness of every graph, and the rules
    # read its verdict on the 28 survivors, lem3 and lem65 their psi too;
    # the catalogue's graphs are pairwise distinct, so each is walked once
    calls.clear()
    vwc = CorpusSpec(source="exhaustive", max_n=8, filter="vwc")
    summary = verify(vwc, ["th8", "th3", "th88iii", "lem3", "lem65"])
    assert summary.passed and [r.checked for r in summary.reports] == [28] * 5
    assert len(calls) == len(set(calls))


def test_th8_th3_and_th11_fill_the_items_one_mu_memo(patch_lmss):
    # the perfect-matching search, psi's neighbourhoods and the edges without
    # property P all read and fill the mu memo of the item
    from lmss.matching import _mu_on

    memos = []
    patch_lmss(_mu_on, lambda g, avail, memo: memos.append(memo) or _mu_on(g, avail, memo))
    item = Facts(fixture("fig8_G1"))
    assert item.very_well_covered
    for name in ("th8", "th3", "th11"):
        assert RULES[name].check(item) == []
    assert memos and all(memo is item._mu_memo for memo in memos)
    assert item.mu == 4 and len(item._mu_memo) > 10


def test_lem3_and_lem65_report_a_shortcut_that_disagrees_with_psi(patch_lmss):
    # each rule compares its shortcut with membership in psi: flip the
    # shortcut's answer on one set and the rule must report that set alone
    spec = CorpusSpec(source="fixtures", fixtures=("fig8_G1",))
    assert verify(spec, ["lem3", "lem65"]).passed
    patch_lmss(_psi_member_counting, lambda g, mask: _psi_member_counting(g, mask) != (mask == 0))
    lem3, lem65 = verify(spec, ["lem3", "lem65"]).reports
    assert [v.rule for v in lem3.violations] == ["lem3"] and not lem65.violations
    patch_lmss(_chain_grows, lambda g, b, a: _chain_grows(g, b, a) != (a == 1))
    lem65 = verify(spec, ["lem65"]).reports[0]
    assert [v.detail for v in lem65.violations] == ["growth test and oracle split on 0x0+0"]


def test_multi_rule_reports_equal_single_rule_reports(monkeypatch):
    from lmss import theorems

    # a rule with violations pins their corpus order inside a multi-rule run
    odd = theorems.Rule(
        "odd", "flags graphs with an odd edge count", False,
        lambda item: ["odd"] if len(item.graph.edges()) % 2 else [],
    )
    monkeypatch.setitem(theorems.RULES, "odd", odd)
    spec = CorpusSpec(source="exhaustive", max_n=5)
    # a repeated name is checked once, at its first position
    names = ["th8", "odd", "th1", "lem3", "odd", "th7"]
    multi = verify(spec, names)
    assert [r.rule for r in multi.reports] == ["th8", "odd", "th1", "lem3", "th7"]
    assert multi.total_violations == len(verify(spec, ["odd"]).reports[0].violations) > 0
    for report in multi.reports:
        assert report == verify(spec, [report.rule]).reports[0]


def test_verify_rejects_an_empty_rule_list_before_building_the_corpus(monkeypatch):
    # with no rule, every corpus would pass with nothing checked
    monkeypatch.setattr(theorems, "iter_corpus", lambda spec: pytest.fail("corpus built"))
    with pytest.raises(UsageError, match="no rule to check"):
        verify(CorpusSpec(max_n=3), [])


def test_verify_checks_a_repeated_rule_once_at_its_first_position(monkeypatch):
    calls = Counter()
    for name in ("th7", "th8"):
        rule = RULES[name]
        monkeypatch.setitem(RULES, name, dataclasses.replace(
            rule, check=lambda item, name=name, check=rule.check: calls.update([name]) or check(item)))
    spec = CorpusSpec(source="exhaustive", max_n=4)
    summary = verify(spec, ["th7", "th8", "th7"])
    size = sum(1 for _ in iter_corpus(spec))
    assert [r.rule for r in summary.reports] == ["th7", "th8"]
    assert calls == {"th7": size, "th8": size}


def test_verify_rejects_empty_corpus():
    # fig10_G is not very well-covered, so the filter leaves no graph
    spec = CorpusSpec(source="fixtures", fixtures=("fig10_G",), filter="vwc")
    with pytest.raises(UsageError, match="empty"):
        verify(spec, ["th8"])


def test_th4_checker_on_ke_graphs(connected_upto_6):
    for g in connected_upto_6[:60]:
        assert RULES["th4"].check(Facts(g, "g")) == []


def test_th4_alpha_of_an_edge_deleted_graph_reads_a_mask_of_the_graph():
    # a stable set of G - uv larger than any of G's is {u, v} plus a stable
    # set outside N[u] | N[v], so alpha(G - uv) is the larger of alpha(G)
    # and 2 + alpha on that mask of G.  On the mu side, mu(G - uv) < mu(G)
    # exactly when uv lies in every maximum matching of G
    for g in (g for n in range(2, 8) for g in connected_graphs(n)):
        edges = oracles.edges_of(g)
        a, m = oracles.alpha(g.n, edges), oracles.mu(g.n, edges)
        memo = {}
        mu_critical = set()
        for u, v in edges:
            both = 2 + _alpha_on(g, g.full_mask & ~(g.adj[u] | g.adj[v]), memo)
            reduced = [e for e in edges if e != (u, v)]
            assert max(a, both) == oracles.alpha(g.n, reduced), (serialize(g), u, v)
            if oracles.mu(g.n, reduced) < m:
                mu_critical.add((u, v))
        common = set.intersection(*(set(mm.edges) for mm in Facts(g).maximum_matchings))
        assert common == mu_critical, serialize(g)


def _th4_details_on_the_graphs_labels(g):
    """th4's details on a Koenig-Egervary item of g, recomputed with alpha on
    g's own labels through a fresh memo."""
    item = Facts(g)
    mms, omega = item.maximum_matchings, item.omega.members
    memo = {}
    a0 = _alpha_on(g, g.full_mask, memo)
    out = [f"maximum matching {m!r} not inside the cut of {s:#x}"
           for m in mms for s in omega
           if any((s >> u & 1) == (s >> v & 1) for u, v in m.edges)]
    in_every = set.intersection(*(set(m.edges) for m in mms))
    bip = is_bipartite(g)
    for u, v in g.edges():
        alpha_critical = 2 + _alpha_on(g, g.full_mask & ~(g.adj[u] | g.adj[v]), memo) > a0
        mu_critical = (u, v) in in_every
        if alpha_critical and not mu_critical:
            out.append(f"edge ({u},{v}) alpha-critical but not mu-critical")
        if bip and mu_critical and not alpha_critical:
            out.append(f"bipartite edge ({u},{v}) mu-critical but not alpha-critical")
    return out


def test_th4_past_the_crossover_equals_its_recomputation_on_the_graphs_labels():
    # past _RELABEL_CROSSOVER th4 probes alpha on the breadth-first copy,
    # through the item's memo, which psi has filled first, as in a verify
    # run; forced Koenig-Egervary, so every line shows.  Seed 3 keeps th4's
    # matching-by-stable-set loop short: its graphs at n = 15 and 16 hold
    # 1,512 and 981 maximum matchings
    for n in range(10, 17):
        g = random_graphs(1, n, 0.5, seed=3)[0]
        item = Facts(g)
        item.__dict__["koenig_egervary"] = True
        item.psi
        assert item._relabelled[0] is not g
        assert RULES["th4"].check(item) == _th4_details_on_the_graphs_labels(g), serialize(g)


def test_th4_fills_only_the_items_alpha_memo(patch_lmss):
    g = random_graphs(1, 12, 0.5, seed=12)[0]
    item = Facts(g)
    item.__dict__["koenig_egervary"] = True
    memos = []
    patch_lmss(_alpha_on, lambda g, avail, memo: memos.append(memo) or _alpha_on(g, avail, memo))
    RULES["th4"].check(item)
    assert memos and all(memo is item._alpha_memo for memo in memos)


@pytest.mark.slow
def test_th4_and_th9_hold_on_every_connected_graph_to_eight():
    # every matching of every connected graph with n <= 8 meets the newest-edge seeding
    summary = verify(CorpusSpec(source="exhaustive", max_n=8), ["th4", "th9"])
    assert summary.total_violations == 0
    assert [r.checked for r in summary.reports] == [12_113, 12_113]


def test_th9_holds_on_seeded_connected_random_graphs_at_10_to_12():
    # past the exhaustive sweep to n = 8: ten dense G(n, 0.6) at each n
    specs = [CorpusSpec(source="random", count=10, n=n, edge_probability=0.6, seed=n,
                        filter="connected") for n in (10, 11, 12)]
    summaries = [verify(spec, ["th9"]) for spec in specs]
    assert [s.total_violations for s in summaries] == [0, 0, 0]
    assert [s.reports[0].checked for s in summaries] == [10, 10, 10]


@pytest.mark.slow
def test_th9_holds_on_seeded_random_graphs_at_14():
    for seed in (1, 2):
        spec = CorpusSpec(source="random", count=100, n=14, edge_probability=0.3, seed=seed)
        summary = verify(spec, ["th9"])
        assert summary.total_violations == 0 and summary.reports[0].checked == 100


@pytest.mark.slow
def test_corona_rules_hold_with_parts_of_up_to_five_vertices():
    # past the default parts of at most 3 vertices: every corona of a base
    # of at most 5 vertices, with parts of at most 5 and 12 vertices in all
    spec = CorpusSpec(source="coronas", max_x=5, max_h=5, max_total=12)
    summary = verify(spec, ["th10iv", "th88iv"])
    assert summary.total_violations == 0
    assert [r.checked for r in summary.reports] == [32_165, 32_165]


def test_verify_all_names_every_rule_the_corpus_admits():
    plain = verify(CorpusSpec(source="fixtures", fixtures=("fig8_G1",)), ["all"])
    assert [r.rule for r in plain.reports] == sorted(n for n in RULES if not RULES[n].needs_corona)
    coronas = verify(CorpusSpec(source="coronas", max_x=1, max_h=1), ["all"])
    assert [r.rule for r in coronas.reports] == sorted(RULES)
    assert plain.passed and coronas.passed


def test_th11_builds_no_matching(monkeypatch):
    built = []
    post_init = Matching.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Matching, "__post_init__", counting)
    # th11 reads mu edge by edge, so its work does not grow with the
    # perfect matchings: K6 has 15, none with property P
    k6 = Facts(complete(6), "K6")
    assert not k6.very_well_covered and count_perfect_matchings(k6.graph) == 15
    # on a very well-covered graph every perfect matching has P
    items = [k6] + [Facts(fixture(name), name) for name in ("fig8_G1", "fig8_G3")]
    assert all(item.very_well_covered for item in items[1:])
    built.clear()
    assert [RULES["th11"].check(item) for item in items] == [[], [], []]
    assert built == []


def test_lem2_and_equiv7_compute_mu_once_per_graph(patch_lmss):
    # their matchings are the maximum ones, so the square search checks no
    # size: mu is computed once per graph, by the maximum-matchings fact
    calls = []

    def counting(g, *rest):
        calls.append(g)
        return mu(g, *rest)

    patch_lmss(mu, counting)
    summary = verify(CorpusSpec(source="exhaustive", max_n=8, filter="vwc"), ["lem2", "equiv7"])
    assert summary.passed and [r.checked for r in summary.reports] == [28, 28]
    assert len(calls) == 28


def test_lem1_searches_each_perfect_matching_edge_once(patch_lmss):
    # the 28 graphs hold 71 maximum matchings, all perfect, over 142
    # distinct edges; each edge is searched once however many hold it
    calls = []

    def counting(g, x, y):
        calls.append((g, x, y))
        return _chordless_cycle_through(g, x, y)

    patch_lmss(_chordless_cycle_through, counting)
    summary = verify(CorpusSpec(source="exhaustive", max_n=8, filter="vwc"), ["lem1"])
    assert summary.passed and summary.reports[0].checked == 28
    assert len(calls) == len(set(calls)) == 142


def _th9_graphs():
    """fig1_H, and the last corona of the default family: K3 with a K3 at
    each vertex, 12 vertices and 1,480 matchings."""
    return [fixture("fig1_H"), deque(corona_family(), maxlen=1)[0].graph]


def _th9_details(g):
    return RULES["th9"].check(Facts(g))


def _widest_uniquely_restricted(g):
    """A uniquely restricted matching of the most edges.  It is the one
    perfect matching of its mask, and no uniquely restricted matching
    extends it, so no other matching's count reads its mask's."""
    edges = oracles.edges_of(g)
    pairs = max((sorted(m) for m in oracles.all_matchings(edges)
                 if oracles.is_uniquely_restricted(g.n, edges, sorted(m))), key=len)
    return Matching(g, tuple(Edge(u, v) for u, v in pairs))


def test_th9_runs_the_count_route_on_every_matching(patch_lmss):
    # a count that lies on the mask of one uniquely restricted matching
    # must surface as exactly one violation
    graphs = _th9_graphs()
    assert [_th9_details(g) for g in graphs] == [[], []]
    target = None

    def lying(g, avail, memo):
        count = _count_perfect_matchings_on(g, avail, memo)
        return count + 1 if avail == target.saturated_bits else count

    patch_lmss(_count_perfect_matchings_on, lying)
    for g in graphs:
        target = _widest_uniquely_restricted(g)
        assert _th9_details(g) == [
            f"{target!r}: alternating-cycle route True, enumeration False"
        ]


def _matching_of_walk(g, mate, saturated):
    """The matching that th9's walk hands a route, as ascending pairs,
    once its mate array and saturated mask are checked to describe it."""
    pairs = tuple((u, w) for u, w in enumerate(mate) if u < w)
    assert all(mate[w] == u and g.adjacent(u, w) for u, w in pairs)
    assert mate.count(-1) == g.n - 2 * len(pairs)
    assert saturated == sum((1 << u) | (1 << w) for u, w in pairs)
    return pairs


def test_th9_runs_the_cycle_route_on_every_matching(patch_lmss):
    # a cycle walk that invents a cycle for one uniquely restricted
    # matching alone must surface as exactly one violation.  The walk may
    # be seeded at the newest edge only, so the lie keys on the whole matching
    g, target, calls = None, None, []

    def lying(adj, seeds, mate, saturated):
        calls.append(_matching_of_walk(g, mate, saturated))
        if calls[-1] == target.edges:
            return False
        return _cycle_free(adj, seeds, mate, saturated)

    patch_lmss(_cycle_free, lying)
    for g in _th9_graphs():
        target = _widest_uniquely_restricted(g)
        calls.clear()
        assert _th9_details(g) == [
            f"{target!r}: alternating-cycle route False, enumeration True"
        ]
        assert len(calls) == len(oracles.all_matchings(oracles.edges_of(g)))


def test_th9_seeds_the_newest_edge_exactly_below_a_cycle_free_parent(patch_lmss):
    # one cycle search per matching; it starts at the newest edge alone
    # exactly when the matching minus that edge is uniquely restricted
    g, calls = None, []

    def recording(adj, seeds, mate, saturated):
        calls.append((tuple(seeds), _matching_of_walk(g, mate, saturated)))
        return _cycle_free(adj, seeds, mate, saturated)

    patch_lmss(_cycle_free, recording)
    whole = 0  # matchings below a parent with a cycle, seeded at every edge
    for g in _th9_graphs():
        edges = oracles.edges_of(g)
        calls.clear()
        assert _th9_details(g) == []
        assert Counter(frozenset(m) for _, m in calls) == Counter(oracles.all_matchings(edges))
        newest_only = 0
        for seeds, m in calls:
            if not m:
                continue
            parent_free = oracles.is_uniquely_restricted(g.n, edges, m[:-1])
            assert seeds == (m[-1:] if parent_free else m)
            newest_only += len(m) > 1 and parent_free
            whole += not parent_free
        assert newest_only
    assert whole


K1, K2, K3 = complete(1), complete(2), complete(3)
# a triangle 0 1 2 with a pendant 3 at 2; its one perfect matching is {01, 23}
TRIANGLE_TAIL = parse_edge_list("4\n0 1\n0 2\n1 2\n2 3\n")

# rule, graph (a corona rule's graph is K1 with K1 attached), facts seeded
# into the item or a route of ``theorems`` rebound so that the rule's two
# routes split, and the details the rule must return
FORCED = [
    ("th1", K2, {"omega": SimpleNamespace(members=[0b01])}, None,
     ["{1} extends to no maximum stable set"]),
    ("th2", path(3), {"greedoid": False}, None, ["forest whose family fails the axioms"]),
    ("th3", K3, {"very_well_covered": True}, None,
     ["N[{0}] induces a non-Koenig-Egervary graph"]),
    ("th4", K3, {"koenig_egervary": True}, None,
     ["maximum matching {01} not inside the cut of 0x4",
      "maximum matching {02} not inside the cut of 0x2",
      "maximum matching {12} not inside the cut of 0x1",
      "edge (0,1) alpha-critical but not mu-critical",
      "edge (0,2) alpha-critical but not mu-critical",
      "edge (1,2) alpha-critical but not mu-critical"]),
    ("th4", path(3), {"maximum_matchings": Facts(path(3)).maximum_matchings[:1]}, None,
     ["bipartite edge (0,1) mu-critical but not alpha-critical"]),
    ("th7", K2, {"accessibility": (True, None), "exchange": (False, (0b01, 0b10))}, None,
     ["family is accessible but fails exchange"]),
    ("th8", K2, {"greedoid": False}, None,
     ["axioms say False, unique-perfect-matching says True"]),
    ("th8", K2, {"perfect_matching_count": 2}, None,
     ["unique-matching witness disagrees with enumeration"]),
    ("th8", K2, {"unique_perfect_matching": False}, None,
     ["axioms say True, unique-perfect-matching says False",
      "unique-matching witness disagrees with enumeration"]),
    ("th9", K2, {"_pm_counts": {0b11: 2}}, None,
     ["{01}: alternating-cycle route True, enumeration False"]),
    ("th10iv", K2, {"greedoid": False}, None,
     ["corona verdict False, attached-part verdict True"]),
    ("th11", K2, {"very_well_covered": False}, None,
     ["very-well-covered False, perfect-matching property True"]),
    ("th22", K2, {"greedoid": False}, None,
     ["greedoid False, all-maximum-matchings-restricted True"]),
    ("th88iii", K2, {"very_well_covered": False}, None,
     ["very-well-covered False, well-covered+KE True"]),
    ("th88iv", K2, {"well_covered": False}, None,
     ["well-covered False, all-parts-complete True"]),
    ("lem1", TRIANGLE_TAIL, {"very_well_covered": True}, None,
     ["matched edge on a chordless cycle [0, 1, 2] under {01,23}"]),
    ("lem2", K2, {}, ("_find_alternating_c4", lambda g, m: (0, 1, 0, 1)),
     ["{01}: alternating cycle False, chordless square True"]),
    ("lem3", K2, {"psi": SimpleNamespace(members=[0, 0b01])}, None,
     ["counting and oracle membership split on {1}"]),
    ("lem65", K2, {"psi": SimpleNamespace(members=[0, 0b01])}, None,
     ["growth test and oracle split on 0x0+1"]),
    ("equiv7", K2, {"greedoid": False}, None,
     ["the seven equivalents split: {'greedoid': False, 'some_restricted': True, "
      "'some_cycle_free': True, 'some_square_free': True, 'all_cycle_free': True, "
      "'all_square_free': True, 'all_restricted': True}"]),
    ("c4free-corollary", K2, {"perfect_matching_count": 2, "greedoid": False}, None,
     ["no unique perfect matching", "family is not a greedoid"]),
]


def test_every_rule_has_a_forced_violation():
    assert {name for name, *_ in FORCED} == set(RULES)


@pytest.mark.parametrize("name, graph, seeds, rebound, details", FORCED,
                         ids=[name for name, *_ in FORCED])
def test_verify_attributes_each_forced_violation_to_its_rule_and_graph(
        name, graph, seeds, rebound, details, monkeypatch):
    from lmss import theorems

    rule = RULES[name]
    parts = dict(parts=(Facts(K1),)) if rule.needs_corona else {}
    # on the graph's own facts the routes agree
    assert rule.check(Facts(graph, "forced", **parts)) == []
    item = Facts(graph, "forced", **parts)
    item.__dict__.update(seeds)
    if rebound:
        monkeypatch.setattr(theorems, *rebound)
    monkeypatch.setattr(theorems, "iter_corpus", lambda spec: iter([item]))
    spec = (CorpusSpec(source="coronas", max_x=1, max_h=1) if rule.needs_corona
            else CorpusSpec(source="fixtures", fixtures=("fig8_G1",)))
    summary = verify(spec, [name])
    assert summary.reports[0].violations == tuple(
        theorems.Violation(name, "forced", d, serialize(graph)) for d in details
    )


def test_verify_calls_every_check_once_per_item_the_hypothesis_skips_too(monkeypatch):
    # a rule's hypothesis runs inside its check, so every check sees every item
    calls = Counter()

    def counted(name, check):
        return lambda item: calls.update([name]) or check(item)

    for name, rule in list(RULES.items()):
        monkeypatch.setitem(RULES, name, dataclasses.replace(rule, check=counted(name, rule.check)))
    for spec in (CorpusSpec(source="exhaustive", max_n=5),
                 CorpusSpec(source="coronas", max_x=2, max_h=2)):
        calls.clear()
        summary = verify(spec, ["all"])
        size = sum(1 for _ in iter_corpus(spec))
        assert {r.checked for r in summary.reports} == {size}
        assert calls == {r.rule: size for r in summary.reports}
        # th2 applies to the forests alone, which are a minority of either corpus
        assert 0 < sum(is_forest(item.graph) for item in iter_corpus(spec)) < size


def _claim(name):
    return getattr(theorems, "_check_" + name.replace("-", "_"))


# each hypothesis as a predicate of an item
HYPOTHESIS = {
    "forest": lambda item: is_forest(item.graph),
    "very well-covered": lambda item: item.very_well_covered,
    "Koenig-Egervary": lambda item: item.koenig_egervary,
    "bipartite": lambda item: is_bipartite(item.graph),
    "no isolated vertex": lambda item: not has_isolated_vertices(item.graph),
    "square-free": lambda item: is_c4_free(item.graph),
}
# witnesses, as the catalogue labels them: (n, canonical key)
WITNESS = {"K1": (1, 0), "K3": (3, 7), "paw": (4, 15), "C4": (4, 30), "diamond": (4, 31),
           "K4": (4, 63)}

# rule, the hypothesis dropped, the hypothesis kept, a witness and the first detail its
# claim reports there.  A pair's first row is its smallest witness in (n, edge count,
# canonical key) order; a second row is the smallest one that has a perfect matching
# and no isolated vertex, where the first has not.  The paw is a triangle with a
# pendant vertex, and the diamond is K4 minus an edge.
NECESSARY = [
    ("th2", "forest", None, "C4", "forest whose family fails the axioms"),
    ("th3", "very well-covered", None, "K3", "N[{0}] induces a non-Koenig-Egervary graph"),
    ("th3", "very well-covered", None, "paw", "N[{1}] induces a non-Koenig-Egervary graph"),
    ("th4", "Koenig-Egervary", None, "K3", "maximum matching {01} not inside the cut of 0x4"),
    ("th4", "Koenig-Egervary", None, "K4", "maximum matching {01,23} not inside the cut of 0x1"),
    ("th8", "very well-covered", None, "K1",
     "axioms say True, unique-perfect-matching says False"),
    ("th8", "very well-covered", None, "diamond",
     "axioms say True, unique-perfect-matching says False"),
    ("th22", "bipartite", None, "diamond",
     "greedoid True, all-maximum-matchings-restricted False"),
    # no graph with no isolated vertex fails "no isolated vertex"
    ("th88iii", "no isolated vertex", None, "K1", "very-well-covered False, well-covered+KE True"),
    ("lem1", "very well-covered", None, "paw",
     "matched edge on a chordless cycle [1, 2, 3] under {03,12}"),
    ("lem2", "very well-covered", None, "diamond",
     "{02,13}: alternating cycle True, chordless square False"),
    ("lem3", "very well-covered", None, "K1", "counting and oracle membership split on {0}"),
    ("lem3", "very well-covered", None, "paw", "counting and oracle membership split on {1}"),
    ("lem65", "very well-covered", None, "K1", "growth test and oracle split on 0x0+0"),
    ("lem65", "very well-covered", None, "paw", "growth test and oracle split on 0x0+1"),
    ("equiv7", "very well-covered", None, "diamond",
     "the seven equivalents split: {'greedoid': True, 'some_restricted': False, "
     "'some_cycle_free': False, 'some_square_free': True, 'all_cycle_free': False, "
     "'all_square_free': True, 'all_restricted': False}"),
    ("c4free-corollary", "very well-covered", "square-free", "K1", "no unique perfect matching"),
    ("c4free-corollary", "very well-covered", "square-free", "diamond",
     "no unique perfect matching"),
    ("c4free-corollary", "square-free", "very well-covered", "C4", "no unique perfect matching"),
]


@pytest.mark.parametrize("name, dropped, kept, witness, detail", NECESSARY,
                         ids=[f"{r[0]}-{r[3]}" for r in NECESSARY])
def test_each_hypothesis_is_necessary(name, dropped, kept, witness, detail):
    # the witness fails the dropped hypothesis alone, and there the claim fails too
    item = Facts(graph_from_key(*WITNESS[witness]))
    assert not HYPOTHESIS[dropped](item) and (kept is None or HYPOTHESIS[kept](item))
    assert _claim(name)(item)[0] == detail
    assert RULES[name].check(Facts(item.graph)) == []


def test_the_pinned_witnesses_are_the_smallest_on_six_vertices():
    order = sorted(((g.n, g.edge_count, k), g) for n in range(1, 7)
                   for k, g in zip(graph_keys(n), nonisomorphic_graphs(n)))
    assert len(order) == 208
    names = {nk: name for name, nk in WITNESS.items()}
    pinned: dict[tuple, list[str]] = {}
    for name, dropped, kept, witness, _ in NECESSARY:
        pinned.setdefault((name, dropped, kept), []).append(witness)
    for (name, dropped, kept), witnesses in pinned.items():
        found = []
        for matched_only in (False, True):
            for (n, _, key), g in order:
                item = Facts(g)
                if HYPOTHESIS[dropped](item) or kept and not HYPOTHESIS[kept](item):
                    continue
                if matched_only and (not item.perfect_matching_count
                                     or has_isolated_vertices(item.graph)):
                    continue
                if _claim(name)(item):
                    found.append(names.get((n, key), (n, key)))
                    break
        assert list(dict.fromkeys(found)) == witnesses, (name, dropped)


def test_th11_needs_no_isolated_vertex_guard():
    # Favaron's statement assumes no isolated vertex; with one, the graph is not
    # very well-covered and has no perfect matching, so the claim holds anyway
    # on all 209 graphs with n <= 7 that have an isolated vertex
    with_isolated = [Graph(g.n + 1, g.adj + (0,)) for n in range(7) for g in nonisomorphic_graphs(n)]
    assert len(with_isolated) == 209
    assert all(_claim("th11")(Facts(g)) == [] for g in with_isolated)


def test_th11_property_side_agrees_with_the_oracle_on_every_graph_to_seven():
    # all 1,253 graphs with n <= 7, n = 0 and the disconnected ones included:
    # seeded with the oracle's verdict, th11 reports nothing exactly when its
    # mu-per-edge side agrees with walking every perfect matching
    verdicts = Counter()
    for n in range(8):
        for g in nonisomorphic_graphs(n):
            item = Facts(g)
            held = oracles.every_perfect_matching_has_p(g.n, oracles.edges_of(g))
            item.__dict__["very_well_covered"] = held
            assert RULES["th11"].check(item) == [], serialize(g)
            verdicts[held] += 1
    # True on the empty graph and the 1 + 3 + 8 very well-covered graphs with n = 2, 4, 6
    assert verdicts == {False: 1240, True: 13}


def test_th8_fails_when_very_well_covered_is_weakened(connected_upto_8):
    # the repo's census, not a claim of the paper: among the connected graphs with
    # n <= 8 that have a perfect matching, th8's claim splits on some of the
    # well-covered, Koenig-Egervary and triangle-free graphs
    weakened = {
        "well-covered": lambda item: item.well_covered,
        "Koenig-Egervary": lambda item: item.koenig_egervary,
        "triangle-free": lambda item: is_triangle_free(item.graph),
    }
    members, splits = Counter(), {name: [] for name in weakened}
    for g in connected_upto_8:
        item = Facts(g)
        if not item.perfect_matching_count:
            continue
        split = None
        for name, holds in weakened.items():
            if holds(item):
                members[name] += 1
                if split is None:
                    split = bool(_claim("th8")(item))
                if split:
                    splits[name].append(g)
    assert members == {"well-covered": 816, "Koenig-Egervary": 4_104, "triangle-free": 164}
    assert {name: len(gs) for name, gs in splits.items()} == {
        "well-covered": 89, "Koenig-Egervary": 995, "triangle-free": 17}
    # the smallest: K4, the diamond, and C5 with a pendant vertex
    assert [serialize(gs[0]) for gs in splits.values()] == [
        "4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
        "4\n0 2\n0 3\n1 2\n1 3\n2 3\n",
        "6\n0 5\n1 2\n1 4\n2 3\n3 5\n4 5\n",
    ]
