import pytest

from lmss import CorpusSpec, UsageError, corona, complete, cycle, verify
from lmss.corpus import CorpusItem
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
    wheel_item = CorpusItem("w", corona(complete(1), [cycle(4)]), base=complete(1), parts=(cycle(4),))
    assert _check_th10iv(wheel_item) == []  # the rule holds: both sides are False
    from lmss import psi_is_greedoid
    assert not psi_is_greedoid(wheel_item.graph).holds
    good = CorpusItem("k", corona(complete(1), [complete(3)]), base=complete(1), parts=(complete(3),))
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


def test_verify_rejects_empty_corpus():
    # fig10_G is not very well-covered, so the filter leaves no graph
    spec = CorpusSpec(source="fixtures", fixtures=("fig10_G",), filter="vwc")
    with pytest.raises(UsageError, match="empty"):
        verify(spec, ["th8"])


def test_th4_checker_on_ke_graphs(connected_upto_6):
    from lmss.theorems import _check_th4

    for g in connected_upto_6[:60]:
        assert _check_th4(CorpusItem("g", g)) == []
