"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.  All
statements here are exact combinatorial facts, so every criterion demands
zero violations; the only tolerances are the stated runtime budgets.
"""

import hashlib
import json
import subprocess
import sys
import time

from lmss import (
    CorpusSpec,
    alpha,
    enumerate_alternating_cycles,
    find_alternating_c4,
    find_alternating_cycle,
    has_unique_perfect_matching,
    is_greedoid,
    is_uniquely_restricted,
    is_well_covered,
    psi_enumerate,
    psi_is_greedoid,
    psi_member_oracle,
    psi_neighborhoods_are_ke,
    verify,
)
from lmss.corpus import nonisomorphic_trees
from lmss.fixtures import fixture, named_edges
from lmss.matching import Matching


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def matching_from_names(name, *keys):
    ne = named_edges(name)
    return Matching(fixture(name), tuple(ne[k] for k in keys))


def test_criterion_1_figure_regression():
    t0 = time.perf_counter()
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    # fig1: alternating-cycle verdicts
    g = fixture("fig1_G")
    m = Matching.of(g, ("a", "b"), ("c", "d"), ("e", "f"))
    expect(find_alternating_cycle(g, m) is None, "fig1_G cycle-free matching")
    h = fixture("fig1_H")
    cyc = find_alternating_cycle(h, Matching.of(h, ("y", "v"), ("t", "x")))
    expect(cyc is not None and cyc.length == 4, "fig1_H alternating square")
    expect(is_uniquely_restricted(h, Matching.of(h, ("u", "v"), ("x", "w"))),
           "fig1_H {uv,xw} restricted")
    expect(not is_uniquely_restricted(h, Matching.of(h, ("x", "y"), ("t", "v"))),
           "fig1_H {xy,tv} not restricted")

    # fig2: six membership verdicts
    g = fixture("fig2_G")
    for members, want in [
        (("a",), True), (("b",), False), (("e", "d"), True),
        (("a", "e"), False), (("a", "d", "f"), True), (("c", "f"), False),
    ]:
        expect(psi_member_oracle(g, g.set_of(*members)) == want, f"fig2_G psi {members}")

    # fig3 and fig4: greedoid verdicts and the Koenig-Egervary witness
    expect(psi_is_greedoid(fixture("fig3_G")).holds, "fig3_G greedoid")
    expect(not psi_is_greedoid(fixture("fig3_H")).holds, "fig3_H not greedoid")
    g = fixture("fig4_G")
    expect(not psi_is_greedoid(g).holds, "fig4_G not greedoid")
    ok, witness = psi_neighborhoods_are_ke(g)
    expect(not ok and witness == g.set_of("b", "c"), "fig4_G witness {b,c}")

    # fig8 trio
    expect(psi_is_greedoid(fixture("fig8_G1")).holds, "fig8_G1 greedoid")
    expect(not psi_is_greedoid(fixture("fig8_G2")).holds, "fig8_G2 not greedoid")
    expect(not psi_is_greedoid(fixture("fig8_G3")).holds, "fig8_G3 not greedoid")

    # fig9: coverage verdicts and alternating-cycle shapes
    expect(not is_well_covered(fixture("fig9_G1")), "fig9_G1 not well-covered")
    g2 = fixture("fig9_G2")
    m2 = matching_from_names("fig9_G2", "e1", "e2", "e3")
    cycles = enumerate_alternating_cycles(g2, m2)
    expect(len(cycles) == 1 and cycles[0].length == 6, "fig9_G2 unique hexagon")
    expect(find_alternating_c4(g2, m2) is None, "fig9_G2 no alternating square")
    g3 = fixture("fig9_G3")
    m3 = matching_from_names("fig9_G3", "e1", "e2", "e3", "e4")
    squares = [c for c in enumerate_alternating_cycles(g3, m3) if c.length == 4]
    expect(bool(squares) and all(not c.is_chordless() for c in squares),
           "fig9_G3 squares all have chords")
    expect(find_alternating_c4(g3, m3) is None, "fig9_G3 no chordless square")

    # fig10
    g = fixture("fig10_G")
    expect(is_well_covered(g), "fig10_G well-covered")
    expect(has_unique_perfect_matching(g)[0], "fig10_G unique perfect matching")
    expect(alpha(g) == 4, "fig10_G alpha")
    expect(not psi_is_greedoid(g).holds, "fig10_G not greedoid")

    dt = time.perf_counter() - t0
    report(
        "criterion 1: figure regression suite",
        not failures and dt < 1.0,
        f"{dt:.2f}s" + (f", failures: {failures}" if failures else ""),
    )


def test_criterion_2_unique_matching_sweep():
    t0 = time.perf_counter()
    spec8 = CorpusSpec(source="exhaustive", max_n=8, filter="vwc")
    summary = verify(spec8, ["th8"])
    checked = summary.reports[0].checked
    violations = summary.total_violations

    survivors = {}
    for n in (10, 12):
        spec = CorpusSpec(source="random", count=500, n=n,
                          edge_probability=0.2, seed=42, filter="vwc")
        s = verify(spec, ["th8"])
        survivors[n] = s.reports[0].checked
        violations += s.total_violations
    dt = time.perf_counter() - t0
    ok = (
        violations == 0
        and checked == 28  # connected very well-covered graphs with n <= 8
        and survivors == {10: 5, 12: 2}
        and dt < 300.0
    )
    report(
        "criterion 2: unique-matching criterion sweep (n<=8 + random n=10,12)",
        ok,
        f"{checked} exhaustive + {survivors} random survivors, "
        f"{violations} violations, {dt:.1f}s",
    )


def test_criterion_3_membership_oracle_equivalence():
    violations = 0
    spec8 = CorpusSpec(source="exhaustive", max_n=8, filter="vwc")
    violations += verify(spec8, ["lem3", "lem65"]).total_violations
    for n in (10, 12):
        spec = CorpusSpec(source="random", count=500, n=n,
                          edge_probability=0.2, seed=42, filter="vwc")
        violations += verify(spec, ["lem3", "lem65"]).total_violations
    report(
        "criterion 3: counting shortcut == definitional membership",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_4_restricted_matching_equivalence():
    spec = CorpusSpec(source="exhaustive", max_n=6)
    summary = verify(spec, ["th9"])
    report(
        "criterion 4: alternating-cycle test == unique-matching count, "
        "every matching of every connected graph n<=6",
        summary.passed and summary.reports[0].checked == 143,
        f"{summary.reports[0].checked} graphs, {summary.total_violations} violations",
    )


def test_criterion_5_structural_suites():
    spec = CorpusSpec(source="exhaustive", max_n=8, filter="vwc")
    rules = ["lem1", "lem2", "th11", "th3", "th7", "equiv7", "c4free-corollary"]
    summary = verify(spec, rules)
    # th11 and th7 quantify beyond very well-covered graphs; re-run them on
    # the whole connected corpus as well
    wide = verify(CorpusSpec(source="exhaustive", max_n=8), ["th11", "th7"])
    total = summary.total_violations + wide.total_violations
    report(
        "criterion 5: structural suites over the n<=8 corpus",
        total == 0,
        f"{total} violations across {len(rules)} rules",
    )


def test_criterion_6_corona_suites():
    spec = CorpusSpec(source="coronas", max_x=3, max_h=3, max_total=12)
    summary = verify(spec, ["th10iv", "th88iv"])
    checked = summary.reports[0].checked
    report(
        "criterion 6: corona suites (|X|<=3, |H_i|<=3, total<=12)",
        summary.passed and checked == 1477,
        f"{checked} coronas, {summary.total_violations} violations",
    )


def test_criterion_7_forest_and_bipartite_suites():
    trees = [t for n in range(1, 10) for t in nonisomorphic_trees(n)]
    tree_bad = [t for t in trees if not is_greedoid(psi_enumerate(t))]
    spec = CorpusSpec(source="exhaustive", max_n=7, filter="bipartite")
    summary = verify(spec, ["th22"])
    ok = not tree_bad and summary.passed and len(trees) == 95
    report(
        "criterion 7: forests n<=9 all greedoids; bipartite n<=7 equivalence",
        ok,
        f"{len(trees)} trees, {summary.reports[0].checked} bipartite graphs, "
        f"{len(tree_bad) + summary.total_violations} violations",
    )


def _run_suite_once() -> bytes:
    out = b""
    base = [sys.executable, "-m", "lmss", "verify", "--format", "json"]
    runs = [
        ["--theorem", "all", "--source", "exhaustive", "--max-n", "5"],
        ["--theorem", "all", "--source", "random", "--count", "60",
         "--n", "8", "--p", "0.25", "--seed", "2024"],
        ["--theorem", "all", "--source", "coronas", "--max-x", "2", "--max-h", "2"],
    ]
    for extra in runs:
        proc = subprocess.run(base + extra, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        out += proc.stdout
    return out


def test_criterion_8_determinism():
    first = _run_suite_once()
    second = _run_suite_once()
    report(
        "criterion 8: two seeded runs of the verify suite are byte-identical",
        first == second and len(first) > 0,
        f"{len(first)} bytes",
    )


def test_criterion_8_bytes_pinned():
    # sha256 of the suite's output: a change that only optimises must leave
    # every byte of every report as it is
    digest = hashlib.sha256(_run_suite_once()).hexdigest()
    report(
        "criterion 8: the verify suite's bytes equal the pinned digest",
        digest == "561310f40ef86e40464f7bb1f10c47157cd4649fca6b5caeaee8e6238f5926a6",
        digest,
    )


# sha256 of ``lmss verify --theorem all --format json`` on four larger corpora,
# each summary built in process as the CLI writes it
VERIFY_ALL_DIGESTS = [
    (CorpusSpec(source="exhaustive", max_n=7),
     "6afbc18b8bfb1fcf9d61a1e085dd54a302a42fe1fbf561823fe3811887c4f530"),
    (CorpusSpec(source="random", count=200, n=10, edge_probability=0.3, seed=5),
     "616c3c4f8d2082ac0f23db456f33cb4a35670607f2aa3ba56d6f0adef9003621"),
    (CorpusSpec(source="coronas", max_x=2, max_h=3, max_total=9),
     "287c0cf5048eaf436327f1b3367517a4a2355f3eceb3e9d089a38cfaf0b2fc93"),
    (CorpusSpec(source="exhaustive", max_n=8, filter="vwc"),
     "3bea3fbff0ca54dd32c47d6f1c685a339ea1febb6994a305cedc547ae7a38144"),
]


def test_verify_all_bytes_pinned_on_larger_corpora():
    digests = [
        hashlib.sha256((json.dumps(verify(spec, ["all"]).to_dict(), sort_keys=True, indent=2)
                        + "\n").encode()).hexdigest()
        for spec, _ in VERIFY_ALL_DIGESTS
    ]
    report(
        "criterion 8: verify --theorem all bytes equal the pinned digests on four corpora",
        digests == [pinned for _, pinned in VERIFY_ALL_DIGESTS],
        " ".join(d[:12] for d in digests),
    )
