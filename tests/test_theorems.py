from collections import Counter

import pytest

import oracles
from lmss import CorpusSpec, Matching, UsageError, corona, complete, cycle, fixture, verify
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
        lambda item: [theorems.Violation("th8", item.name, "forced", "1\n")],
    )
    monkeypatch.setitem(theorems.RULES, "th8", broken)
    spec = CorpusSpec(source="fixtures", fixtures=("fig8_G1",))
    summary = verify(spec, ["th8"])
    assert not summary.passed and summary.total_violations == 1
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
        lambda item: [theorems._violation("odd", item, "odd")]
        if len(item.graph.edges()) % 2 else [],
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
