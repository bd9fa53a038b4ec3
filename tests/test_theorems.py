from collections import Counter
from types import SimpleNamespace

import pytest

import oracles
from lmss import (CorpusSpec, Matching, UsageError, corona, complete, cycle, fixture,
                  parse_edge_list, path, verify)
from lmss.corpus import connected_graphs, iter_corpus
from lmss.classifiers import _well_covered
from lmss.facts import Facts
from lmss.matching import _alternating_cycles, _count_perfect_matchings_on, count_perfect_matchings
from lmss.graphs import serialize
from lmss.stability import _alpha_on, _chain_grows, _psi_member_counting
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
    wheel_item = Facts(corona(complete(1), [cycle(4)]), "w", base=complete(1), parts=(cycle(4),))
    assert _check_th10iv(wheel_item) == []  # the rule holds: both sides are False
    from lmss import psi_is_greedoid
    assert not psi_is_greedoid(wheel_item.graph).holds
    good = Facts(corona(complete(1), [complete(3)]), "k", base=complete(1), parts=(complete(3),))
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
    calls = []

    def counting(g, a, walk):
        calls.append(g)
        return _well_covered(g, a, walk)

    patch_lmss(_well_covered, counting)
    # th8 and th3 ask very-well-coveredness, which asks well-coveredness on
    # the 143 of these 177 graphs with |V| = 2 alpha; th88iii asks both on
    # every item, as none has an isolated vertex; 18 graphs are very
    # well-covered, so th3 reads on past the question
    spec = CorpusSpec(source="random", count=300, n=6, edge_probability=0.4, seed=1,
                      filter="connected")
    assert verify(spec, ["th8", "th3", "th88iii"]).passed
    assert calls == [item.graph for item in iter_corpus(spec)]
    # the filter asks very-well-coveredness of every graph, and the rules
    # read its verdict on the 28 survivors; the catalogue's graphs are
    # pairwise distinct, so each is asked once
    calls.clear()
    vwc = CorpusSpec(source="exhaustive", max_n=8, filter="vwc")
    summary = verify(vwc, ["th8", "th3", "th88iii"])
    assert summary.passed and summary.reports[0].checked == 28
    assert len(calls) == len(set(calls))


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
    names = ["th8", "odd", "th1", "lem3", "odd", "th7"]
    multi = verify(spec, names)
    assert [r.rule for r in multi.reports] == names
    assert multi.total_violations == 2 * len(verify(spec, ["odd"]).reports[0].violations) > 0
    for name, report in zip(names, multi.reports):
        assert report == verify(spec, [name]).reports[0]


def test_verify_rejects_empty_corpus():
    # fig10_G is not very well-covered, so the filter leaves no graph
    spec = CorpusSpec(source="fixtures", fixtures=("fig10_G",), filter="vwc")
    with pytest.raises(UsageError, match="empty"):
        verify(spec, ["th8"])


def test_th4_checker_on_ke_graphs(connected_upto_6):
    from lmss.theorems import _check_th4

    for g in connected_upto_6[:60]:
        assert _check_th4(Facts(g, "g")) == []


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


@pytest.mark.slow
def test_th4_and_th9_hold_on_every_connected_graph_to_eight():
    # every matching of every connected graph with n <= 8 meets the newest-edge seeding
    summary = verify(CorpusSpec(source="exhaustive", max_n=8), ["th4", "th9"])
    assert summary.total_violations == 0
    assert [r.checked for r in summary.reports] == [12_113, 12_113]


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


def test_th11_stops_at_the_first_perfect_matching_without_p(monkeypatch):
    built = []
    post_init = Matching.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Matching, "__post_init__", counting)
    # K6 has 15 perfect matchings and the first already fails property P
    k6 = Facts(complete(6), "K6")
    assert not k6.very_well_covered and count_perfect_matchings(k6.graph) == 15
    built.clear()
    assert RULES["th11"].check(k6) == []
    assert 0 < len(built) < 15
    # on a very well-covered graph every perfect matching is checked
    for name in ("fig8_G1", "fig8_G3"):
        item = Facts(fixture(name), name)
        assert item.very_well_covered
        built.clear()
        assert RULES["th11"].check(item) == []
        assert len(built) == count_perfect_matchings(item.graph)


def _th9_details_on_fig1_H():
    summary = verify(CorpusSpec(source="fixtures", fixtures=("fig1_H",)), ["th9"])
    return [v.detail for v in summary.reports[0].violations]


def test_th9_runs_the_count_route_on_every_matching(patch_lmss):
    # {uv,xw} is uniquely restricted and the only matching saturating its
    # mask; a count that lies there must surface as exactly one violation
    g = fixture("fig1_H")
    target = Matching.of(g, ("u", "v"), ("x", "w"))
    assert _th9_details_on_fig1_H() == []

    def lying(g, avail, memo):
        count = _count_perfect_matchings_on(g, avail, memo)
        return count + 1 if avail == target.saturated_bits else count

    patch_lmss(_count_perfect_matchings_on, lying)
    assert _th9_details_on_fig1_H() == [
        f"{target!r}: alternating-cycle route True, enumeration False"
    ]


def _matching_of_mate(mate):
    return tuple((u, w) for u, w in enumerate(mate) if u < w)


def test_th9_runs_the_cycle_route_on_every_matching(patch_lmss):
    # {uv,tx} is uniquely restricted; a cycle walk that invents a cycle
    # for it alone must surface as exactly one violation.  The walk may be
    # seeded at the newest edge only, so the lie keys on the whole matching
    g = fixture("fig1_H")
    target = Matching.of(g, ("u", "v"), ("t", "x"))

    def lying(adj, seeds, mate):
        if _matching_of_mate(mate) == target.edges:
            yield (0, 1, 2, 3)
        else:
            yield from _alternating_cycles(adj, seeds, mate)

    patch_lmss(_alternating_cycles, lying)
    assert _th9_details_on_fig1_H() == [
        f"{target!r}: alternating-cycle route False, enumeration True"
    ]


def test_th9_seeds_the_newest_edge_exactly_below_a_cycle_free_parent(patch_lmss):
    # one cycle search per matching; it starts at the newest edge alone
    # exactly when the matching minus that edge is uniquely restricted
    g = fixture("fig1_H")
    edges = oracles.edges_of(g)
    calls = []

    def recording(adj, seeds, mate):
        calls.append((tuple(seeds), _matching_of_mate(mate)))
        return _alternating_cycles(adj, seeds, mate)

    patch_lmss(_alternating_cycles, recording)
    assert _th9_details_on_fig1_H() == []
    assert Counter(frozenset(m) for _, m in calls) == Counter(oracles.all_matchings(edges))
    newest_only = 0
    for seeds, m in calls:
        if not m:
            continue
        parent_free = oracles.is_uniquely_restricted(g.n, edges, m[:-1])
        assert seeds == (m[-1:] if parent_free else m)
        newest_only += len(m) > 1 and parent_free
    assert newest_only


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
    ("lem2", K2, {}, ("find_alternating_c4", lambda g, m: (0, 1, 0, 1)),
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
    parts = dict(base=K1, parts=(K1,)) if rule.needs_corona else {}
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
