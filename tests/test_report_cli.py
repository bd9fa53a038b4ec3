import argparse
import hashlib
import json
import subprocess
import sys

import pytest

import lmss
import oracles
from lmss import Graph, analyze_graph, cli, complete, cycle, fixture, is_connected, serialize
from lmss.corpus import random_graphs
from lmss.fixtures import fixture_names
from lmss.report import ClassificationReport, render_text

# sha256 of every fixture's and every connected n <= 6 graph's report, timings
# removed, certificates included (see test_analyze_reports_pinned)
ANALYZE_DIGEST = "00e4c47d19f65c5bfb9de2eeffaa7b6e27602df46651772edaef05d7176e0c63"


def run_cli(*args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "lmss", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_analyze_fixture_reports():
    r = analyze_graph(fixture("fig8_G1"), name="fig8_G1")
    assert r.very_well_covered and r.unique_perfect_matching
    assert r.psi_greedoid_auto and r.psi_greedoid_fast and r.psi_greedoid_bruteforce
    assert r.certificates["unique_perfect_matching"] == ["0-1", "2-3", "4-7", "5-6"]

    r = analyze_graph(fixture("fig10_G"), name="fig10_G")
    assert r.well_covered and not r.very_well_covered
    assert r.unique_perfect_matching and not r.psi_greedoid_auto
    assert r.psi_greedoid_fast is None
    assert not r.accessibility and "inaccessible_member" in r.certificates

    r = analyze_graph(complete(1))
    assert r.alpha == 1 and r.mu == 0 and r.psi_greedoid_auto


def test_analyze_reports_pinned(connected_upto_6):
    graphs = [(name, fixture(name)) for name in fixture_names()]
    graphs += [(None, g) for g in connected_upto_6]
    digest = hashlib.sha256()
    for name, g in graphs:
        data = analyze_graph(g, name=name).to_dict()
        del data["timings_ms"]
        digest.update(json.dumps(data, sort_keys=True).encode() + b"\n")
    assert len(graphs) == 164
    assert digest.hexdigest() == ANALYZE_DIGEST


def test_analyze_runs_one_unique_matching_search(patch_lmss):
    # the search looks for one alternating cycle, on the first perfect matching
    original = lmss.matching.find_alternating_cycle
    calls = []

    def counting(g, m):
        calls.append(g)
        return original(g, m)

    patch_lmss(original, counting)
    for name in ("fig8_G1", "fig8_G2"):
        calls.clear()
        analyze_graph(fixture(name), name=name)
        assert len(calls) == 1, name


def test_analyze_computes_well_covered_once(patch_lmss):
    # fig8_G1 is very well-covered, so the report asks well-coveredness both
    # for itself and inside very-well-coveredness; it is read off the
    # stable-set walk, so the walks count it
    original = lmss.stability._stable_sets
    calls = []
    patch_lmss(original, lambda g: calls.append(g) or original(g))
    report = analyze_graph(fixture("fig8_G1"), name="fig8_G1")
    assert report.well_covered and report.very_well_covered
    assert len(calls) == 1


def test_analyze_computes_alpha_and_mu_once(patch_lmss):
    # Koenig-Egervary and very-well-coveredness read the report's alpha and mu
    calls = []
    for module, name in ((lmss.stability, "alpha"), (lmss.matching, "mu"),
                         (lmss.classifiers, "is_koenig_egervary")):
        original = getattr(module, name)
        patch_lmss(original, lambda g, *memo, name=name, original=original:
                   calls.append(name) or original(g, *memo))
    report = analyze_graph(fixture("fig8_G1"), name="fig8_G1")
    assert report.very_well_covered and report.koenig_egervary
    assert sorted(calls) == ["alpha", "mu"]


def _psi_witness_report(g):
    return json.loads(analyze_graph(g).to_json())


def test_psi_witnesses_hold_by_definition_at_n_12_to_16():
    # ten connected G(n, p) draws per n; every false axiom verdict carries a
    # witness that the oracle confirms from psi membership alone
    graphs = []
    for n, p in ((12, 0.3), (14, 0.25), (16, 0.2)):
        graphs += [g for g in random_graphs(40, n, p, seed=n) if is_connected(g)][:10]
    kinds = []
    for g in graphs:
        report = _psi_witness_report(g)
        assert oracles.psi_witness_problems(g.n, oracles.edges_of(g), report) == []
        kinds.append(tuple(sorted(report["certificates"])))
    assert len(graphs) == 30
    # 29 inaccessible members and 19 exchange pairs; one greedoid, unwitnessed
    assert sum("inaccessible_member" in k for k in kinds) == 29
    assert sum("exchange_violation" in k for k in kinds) == 19
    assert kinds.count(()) == 1

    # K1,9 + C5 + K1: 512 * 6 * 2 members, and both axioms fail
    edges = [(0, leaf) for leaf in range(1, 10)] + [(10 + i, 10 + (i + 1) % 5) for i in range(5)]
    g = Graph.from_edges(16, edges)
    report = _psi_witness_report(g)
    assert report["invariants"]["psi_size"] == 6144
    assert not report["predicates"]["accessibility"] and not report["predicates"]["exchange"]
    e = oracles.edges_of(g)
    assert oracles.psi_witness_problems(16, e, report) == []
    # the checker rejects a dropped or a wrong witness
    certificates = report["certificates"]
    for key, wrong in (("inaccessible_member", [1]),
                       ("exchange_violation", {"x": [1, 2], "y": [3]})):
        dropped = {k: v for k, v in certificates.items() if k != key}
        for forged in (dropped, {**certificates, key: wrong}):
            assert len(oracles.psi_witness_problems(16, e, dict(report, certificates=forged))) == 1


def test_report_json_roundtrip():
    for name in ("fig8_G1", "fig10_G", "fig4_G", "fig9_G2"):
        r = analyze_graph(fixture(name), name=name)
        again = ClassificationReport.from_json(r.to_json())
        assert again == r
    assert "alpha" in render_text(r)
    with pytest.raises(ValueError, match="unsupported schema"):
        ClassificationReport.from_dict({**r.to_dict(), "schema": 2})


def test_text_certificates_name_vertices_as_the_edges_line_does():
    # fig10_G's JSON certificates are [1, 6] and ["0-1", "2-3", ...] in indices
    text = render_text(analyze_graph(fixture("fig10_G"), name="fig10_G"))
    assert "edges        : x-b x-a b-c " in text
    assert "certificate  : inaccessible_member = {b, a}\n" in text
    assert "certificate  : unique_perfect_matching = x-b c-d e-f a-y g-h\n" in text
    text = render_text(analyze_graph(fixture("fig7_G2"), name="fig7_G2"))
    assert "certificate  : alternating_cycle = a-c-d-e-a, matched a-c d-e\n" in text
    assert "certificate  : exchange_violation = X {c, e}, Y {f}\n" in text
    # an unlabelled graph prints indices
    text = render_text(analyze_graph(cycle(4)))
    assert "certificate  : alternating_cycle = 0-1-2-3-0, matched 0-1 2-3\n" in text
    assert "certificate  : inaccessible_member = {0, 2}\n" in text


def test_report_rejects_disagreeing_verdicts():
    r = analyze_graph(cycle(4))
    with pytest.raises(ValueError):
        ClassificationReport(
            **{
                **r.__dict__,
                "psi_greedoid_fast": True,
                "psi_greedoid_bruteforce": False,
            }
        )


def test_cli_analyze_text_and_json(tmp_path):
    code, out, _ = run_cli("analyze", "--fixture", "fig8_G1")
    assert code == 0 and "greedoid" in out and "True" in out

    code, out, _ = run_cli("analyze", "--fixture", "fig8_G1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1 and data["psi_greedoid"]["auto"] is True

    path = tmp_path / "g.txt"
    path.write_text(serialize(cycle(4)))
    code, out, _ = run_cli("analyze", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["predicates"]["very_well_covered"] is True

    code, out, _ = run_cli("analyze", "-", "--format", "json", stdin="2\n0 1\n")
    assert code == 0 and json.loads(out)["invariants"]["alpha"] == 1


def test_cli_parse_errors_reported_with_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 0\n")
    code, _, err = run_cli("analyze", str(path))
    assert code == 2 and "line 2" in err


def test_cli_analyze_unreadable_input_exits_2(tmp_path):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe\n")
    for path in (tmp_path / "missing.txt", binary):
        code, out, err = run_cli("analyze", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {path}") and err.count("\n") == 1


def test_cli_verify_rejects_nonpositive_max_n():
    code, out, err = run_cli("verify", "--theorem", "th8", "--source", "exhaustive", "--max-n", "-3")
    assert code == 2 and out == "" and "max_n" in err


def test_cli_verify_rejects_edge_probability_outside_unit_interval():
    code, out, err = run_cli(
        "verify", "--theorem", "th8", "--source", "random", "--count", "5", "--n", "6",
        "--p", "1.5", "--seed", "1",
    )
    assert code == 2 and out == "" and "edge_probability" in err


@pytest.mark.parametrize("corpus, field", [
    (("--source", "coronas", "--max-n", "3"), "max_n"),
    (("--source", "random", "--count", "5", "--n", "6", "--p", "0.5", "--seed", "1",
      "--max-n", "3"), "max_n"),
    (("--source", "fixtures", "--fixture", "fig8_G1", "--max-n", "3"), "max_n"),
    (("--source", "exhaustive", "--max-n", "3", "--seed", "1"), "seed"),
    (("--source", "fixtures", "--fixture", "fig8_G1", "--max-x", "2"), "max_x"),
    (("--source", "coronas", "--max-h", "0"), "max_h"),
])
def test_cli_verify_rejects_foreign_and_zero_corpus_flags(corpus, field):
    code, out, err = run_cli("verify", "--theorem", "th7", *corpus)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and field in err and err.count("\n") == 1


def test_cli_verify_empty_corpus_exits_2():
    code, out, err = run_cli(
        "verify", "--theorem", "th8", "--source", "fixtures", "--fixture", "fig10_G",
        "--filter", "vwc",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "empty" in err and err.count("\n") == 1


def test_cli_verify_empty_streamed_corpus_exits_2():
    # the emptiness is known only once the stream ends: K1 is not very well-covered
    code, out, err = run_cli(
        "verify", "--theorem", "th7", "--source", "exhaustive", "--max-n", "1", "--filter", "vwc",
    )
    assert (code, out, err) == (2, "", "error: the corpus is empty: no graph to check\n")


def test_cli_verify_exit_codes():
    code, out, _ = run_cli(
        "verify", "--theorem", "th8", "--source", "fixtures",
        "--fixture", "fig8_G1", "--fixture", "fig8_G2", "--fixture", "fig8_G3",
    )
    assert code == 0 and "total violations: 0" in out

    code, _, err = run_cli("verify", "--theorem", "nope", "--source", "exhaustive", "--max-n", "3")
    assert code == 2

    code, _, err = run_cli(
        "verify", "--theorem", "th8", "--source", "random", "--count", "5", "--n", "6", "--p", "0.5",
    )
    assert code == 2 and "seed" in err


@pytest.mark.parametrize("name, message", [
    ("nosuch", "unknown rule 'nosuch'"),
    ("th10iv", "rule 'th10iv' needs a corona corpus"),
], ids=["unknown", "needs-corona"])
def test_cli_verify_checks_a_name_given_beside_all(name, message):
    code, out, err = run_cli(
        "verify", "--theorem", "all", "--theorem", name, "--source", "exhaustive", "--max-n", "3",
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_cli_verify_checks_a_repeated_rule_once():
    code, out, _ = run_cli(
        "verify", "--theorem", "th7", "--theorem", "th8", "--theorem", "th7",
        "--source", "exhaustive", "--max-n", "4", "--format", "json",
    )
    assert code == 0
    assert [r["rule"] for r in json.loads(out)["rules"]] == ["th7", "th8"]


def test_cli_verify_json_deterministic():
    args = (
        "verify", "--theorem", "all", "--source", "random", "--count", "30",
        "--n", "8", "--p", "0.25", "--seed", "7", "--format", "json",
    )
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2
    data = json.loads(out1)
    assert data["pass"] is True and data["corpus"]["seed"] == 7


def test_cli_generate(tmp_path):
    single = tmp_path / "corpus.txt"
    code, out, _ = run_cli(
        "generate", "--source", "exhaustive", "--max-n", "5", "--output", str(single)
    )
    assert code == 0 and "31 graphs written" in out
    from lmss import parse_edge_lists

    graphs = parse_edge_lists(single.read_text())
    assert len(graphs) == 31  # connected graphs on 1..5 vertices

    split = tmp_path / "many"
    code, out, _ = run_cli(
        "generate", "--source", "random", "--count", "4", "--n", "6", "--p", "0.3",
        "--seed", "5", "--output", str(split), "--split",
    )
    assert code == 0 and len(list(split.glob("*.txt"))) == 4

    # byte-identical across runs with the same seed
    again = tmp_path / "corpus2.txt"
    run_cli("generate", "--source", "random", "--count", "10", "--n", "8", "--p", "0.3",
            "--seed", "42", "--output", str(again))
    first = again.read_bytes()
    run_cli("generate", "--source", "random", "--count", "10", "--n", "8", "--p", "0.3",
            "--seed", "42", "--output", str(again))
    assert again.read_bytes() == first


def test_cli_generate_coronas(tmp_path):
    out_file = tmp_path / "coronas.txt"
    code, out, _ = run_cli(
        "generate", "--source", "coronas", "--max-x", "2", "--max-h", "2",
        "--output", str(out_file),
    )
    assert code == 0 and "written" in out


def test_cli_generate_split_onto_a_file_exits_2(tmp_path):
    existing = tmp_path / "corpus.txt"
    existing.write_text("keep\n")
    code, out, err = run_cli(
        "generate", "--source", "exhaustive", "--max-n", "3", "--split", "--output", str(existing)
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {existing}") and err.count("\n") == 1
    assert existing.read_text() == "keep\n"


def test_cli_generate_below_a_file_names_the_file(tmp_path):
    blocker = tmp_path / "afile"
    blocker.write_text("keep\n")
    for target, split in (
        (blocker / "x.txt", ()),
        (blocker / "sub" / "x.txt", ()),
        (blocker / "sub", ("--split",)),
    ):
        code, out, err = run_cli(
            "generate", "--source", "exhaustive", "--max-n", "3", "--output", str(target), *split
        )
        assert code == 2 and out == ""
        assert err == f"error: cannot write {target}: {blocker} is not a directory\n"
        assert blocker.read_text() == "keep\n"


def test_cli_generate_rejects_its_corpus_before_writing(tmp_path):
    # the corpus streams, so a bad spec must fail before the output is begun
    for corpus in (("--source", "exhaustive", "--max-n", "10"),
                   ("--source", "random", "--count", "2", "--n", "17", "--p", "0.5", "--seed", "1"),
                   ("--source", "coronas", "--max-total", "17")):
        code, out, err = run_cli("generate", *corpus, "--output", str(tmp_path / "sub" / "x.txt"))
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "sub").exists()


def test_cli_generate_onto_a_directory_exits_2(tmp_path):
    code, out, err = run_cli(
        "generate", "--source", "exhaustive", "--max-n", "3", "--output", str(tmp_path)
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {tmp_path}") and err.count("\n") == 1


def test_main_called_repeatedly_in_one_process_prints_the_cli_bytes(capsys):
    analyze = ["analyze", "--fixture", "fig8_G1", "--format", "text"]
    corpus = ["--source", "exhaustive", "--max-n", "5", "--format", "json"]
    first_verify = ["verify", "--theorem", "th7", "--theorem", "th8", *corpus]
    second_verify = ["verify", "--theorem", "th11", *corpus]

    def same_as_cli(argv):
        code, out, _ = run_cli(*argv)
        assert cli.main(argv) == code
        assert capsys.readouterr().out == out
        return out

    same_as_cli(analyze)
    same_as_cli(first_verify)
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""
    same_as_cli(analyze)
    # no --theorem appended by the first verify carries over
    assert [r["rule"] for r in json.loads(same_as_cli(second_verify))["rules"]] == ["th11"]


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    argv = ["analyze", "--fixture", "fig8_G1", "--format", "json"]
    assert cli.main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(5):
        assert cli.main(argv) == 0
    assert built == []


def test_cli_verify_prints_each_violation_and_exits_1(monkeypatch, capsys):
    from lmss import theorems

    th8 = theorems.RULES["th8"]
    forced = theorems.Rule("th8", th8.describe, th8.needs_corona,
                           lambda item: ["forced once", "forced twice"])
    monkeypatch.setitem(theorems.RULES, "th8", forced)
    argv = ["verify", "--theorem", "th7", "--theorem", "th8", "--source", "fixtures",
            "--fixture", "fig8_G1"]
    assert cli.main(argv) == 1
    edges = "  " + serialize(fixture("fig8_G1")).replace("\n", " / ")
    assert capsys.readouterr().out.splitlines() == [
        f"{'th7':18s} checked      1 graphs: ok",
        f"{'th8':18s} checked      1 graphs: 2 violation(s)",
        "  fig8_G1: forced once",
        edges,
        "  fig8_G1: forced twice",
        edges,
        "total violations: 2",
    ]
