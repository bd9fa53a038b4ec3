"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench
    python3 -m pytest perfbench
"""

from __future__ import annotations

import array
import json
import signal
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import lmss.cli  # noqa: E402
import lmss.theorems  # noqa: E402
import one_pass  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _columns(spans):
    names = [s[0] for s in spans]
    return names, [s[1] for s in spans], [s[2] for s in spans], [s[3] for s in spans]


class SelfTimeTest(unittest.TestCase):
    # root  [0, 10]
    #   a   [1, 4]      a1 [2, 3] inside it
    #   b   [3, 6]      overlaps a on [3, 4]
    #   c   [8, 12]     reaches past root's end
    #   a   [6.5, 7]    a second call of a
    SPANS = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("a1", 1, 2.0, 3.0),
        ("b", 0, 3.0, 6.0),
        ("a", 0, 6.5, 7.0),
        ("c", 0, 8.0, 12.0),
    ]

    def check(self, spans):
        got = tracing.self_times(*_columns(spans))
        # root: children cover [1, 6] + [6.5, 7] + [8, 10] = 7.5
        self.assertEqual(got["root"], (1, 2.5))
        self.assertEqual(got["a"], (2, 2.0 + 0.5))
        self.assertEqual(got["a1"], (1, 1.0))
        self.assertEqual(got["b"], (1, 3.0))
        self.assertEqual(got["c"], (1, 4.0))

    def test_nested_tree(self):
        self.check(self.SPANS)

    def test_children_out_of_start_order(self):
        order = [0, 5, 3, 1, 4, 2]
        moved = {old: new for new, old in enumerate(order)}
        spans = [
            (n, moved[p] if p >= 0 else -1, s, e)
            for n, p, s, e in (self.SPANS[i] for i in order)
        ]
        self.check(spans)

    def test_self_times_sum_to_root_duration_when_nested(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(inner(x)))
        self.assertEqual(outer(1), 3)
        got = tracer.self_times()
        self.assertEqual(got["inner"][0], 2)
        total = tracer.end[0] - tracer.start[0]
        self.assertAlmostEqual(sum(v[1] for v in got.values()), total, places=12)
        self.assertEqual(list(tracer.parent), [-1, 0, 0])


class InstallTest(unittest.TestCase):
    def namespaces(self):
        return [m for name, m in sorted(sys.modules.items())
                if (name == "lmss" or name.startswith("lmss.")) and m is not None]

    def test_install_rebinds_every_name_and_uninstall_restores(self):
        before = {(m.__name__, k): v for m in self.namespaces() for k, v in vars(m).items()}
        rules_before = dict(lmss.theorems.RULES)
        original_alpha = lmss.stability.alpha
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
        try:
            originals = {id(orig) for _, _, orig in installed.bindings}
            wrappers = {id(getattr(m, attr)) for m, attr, _ in installed.bindings}
            self.assertTrue(all(getattr(m, attr).__wrapped__ is orig
                                for m, attr, orig in installed.bindings))
            self.assertIn("stability.alpha", tracer.names)
            self.assertNotIn("graphs.bits", tracer.names)
            rebound = 0
            for module in self.namespaces():
                for attr, obj in vars(module).items():
                    self.assertNotIn(id(obj), originals, f"{module.__name__}.{attr}")
                    rebound += id(obj) in wrappers
            self.assertEqual(rebound, len(installed.bindings))
            # imported by name into other modules and into the package
            self.assertIs(lmss.report.alpha, lmss.stability.alpha)
            self.assertIs(lmss.alpha, lmss.stability.alpha)
            self.assertIsNot(lmss.stability.alpha, original_alpha)
            for name, rule in lmss.theorems.RULES.items():
                self.assertIs(rule.check.__wrapped__, rules_before[name].check)
        finally:
            installed.uninstall()
        after = {(m.__name__, k): v for m in self.namespaces() for k, v in vars(m).items()}
        for key, obj in before.items():
            self.assertIs(after[key], obj, key)
        self.assertEqual(lmss.theorems.RULES, rules_before)
        for name, rule in rules_before.items():
            self.assertIs(lmss.theorems.RULES[name], rule)

    def test_traced_cli_call_nests_spans_and_round_trips(self):
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
        try:
            rc, text = one_pass._call_main(["analyze", "--fixture", "fig8_G1", "--format", "json"])
        finally:
            installed.uninstall()
        self.assertEqual(rc, 0)
        self.assertEqual(json.loads(text)["invariants"]["alpha"], 4)
        names = [tracer.names[i] for i in tracer.name_of]
        self.assertEqual(names[0], "cli.main")
        self.assertEqual(tracer.parent[0], -1)
        analyze = names.index("report.analyze_graph")
        self.assertEqual(tracer.parent[analyze], 0)
        self.assertEqual(tracer.parent[names.index("stability.alpha")], analyze)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans.bin"
            tracer.write(path)
            read = tracing.read_spans(path)
        self.assertEqual(read[0], names)
        self.assertEqual(list(read[1]), list(tracer.parent))
        self.assertEqual(tracing.self_times(*read), tracer.self_times())

    def test_canonical_classes_are_counted_per_vertex_count(self):
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
        try:
            for n in (1, 2, 3):
                lmss.corpus.canonical_key(lmss.graphs.empty_graph(n))
        finally:
            installed.uninstall()
        self.assertEqual(len(tracer.distinct["corpus.canonical_key"]), 3)


class OutputCheckTest(unittest.TestCase):
    GRAPHS = workloads.AnalyzeWorkload("checks", 8, ((0.4, 3),))

    def analyze_reports(self):
        with tempfile.TemporaryDirectory() as tmp:
            inputs = self.GRAPHS.write_inputs(5, Path(tmp))
            return [(graph, one_pass._call_main(["analyze", str(path), "--format", "json"]))
                    for path, graph in inputs]

    def test_real_reports_pass(self):
        for graph, (rc, text) in self.analyze_reports():
            facts, problems = workloads.check_analyze_report(rc, text, graph)
            self.assertEqual(problems, [])
            self.assertNotIn("timings_ms", facts)

    def test_tampered_reports_fail(self):
        graph, (rc, text) = self.analyze_reports()[0]
        tampers = {
            "exchange": lambda d: d["predicates"].update(exchange=not d["predicates"]["exchange"]),
            "koenig_egervary": lambda d: d["predicates"].update(
                koenig_egervary=not d["predicates"]["koenig_egervary"]),
            "pm count": lambda d: d["invariants"].update(
                perfect_matching_count=d["invariants"]["perfect_matching_count"] + 1),
            "fast": lambda d: d["psi_greedoid"].update(fast=not d["psi_greedoid"]["bruteforce"]),
            "edges": lambda d: d["graph"]["edges"].pop(),
            "missing key": lambda d: d.pop("predicates"),
        }
        for what, tamper in tampers.items():
            doc = json.loads(text)
            tamper(doc)
            _, problems = workloads.check_analyze_report(rc, json.dumps(doc), graph)
            self.assertNotEqual(problems, [], what)
        self.assertNotEqual(workloads.check_analyze_report(2, text, graph)[1], [])

    def test_digest_ignores_timings_and_names(self):
        _, (_, text) = self.analyze_reports()[0]
        doc = json.loads(text)
        base = workloads.facts_digest([workloads.report_facts(doc)])
        doc["timings_ms"] = {}
        doc["graph"]["name"] = "elsewhere"
        doc["schema"] = 99
        self.assertEqual(workloads.facts_digest([workloads.report_facts(doc)]), base)
        doc["invariants"]["alpha"] += 1
        self.assertNotEqual(workloads.facts_digest([workloads.report_facts(doc)]), base)

    def test_verify_checks(self):
        w = workloads.VerifyWorkload("tiny", ("th7", "th8"), ("--source", "exhaustive",
                                                              "--max-n", "4"), 10)
        report = {"pass": True, "rules": [{"rule": "th7", "violations": []},
                                          {"rule": "th8", "violations": []}]}
        calls = {"th7": 10, "th8": 10}
        self.assertEqual(workloads.check_verify(w, 0, json.dumps(report), calls), (0, []))
        bad = json.loads(json.dumps(report))
        bad["pass"] = False
        bad["rules"][1]["violations"] = [{}, {}]
        failed, problems = workloads.check_verify(w, 1, json.dumps(bad), calls)
        self.assertEqual(failed, 2 + 2)
        self.assertEqual(workloads.check_verify(w, 0, json.dumps(report),
                                                {"th7": 10, "th8": 9})[0], 1)
        self.assertEqual(workloads.check_verify(w, 0, "not json", calls)[0], 1)

    def test_verify_pass_counts_corpus_at_rule_boundary(self):
        w = workloads.VerifyWorkload("tiny", ("th7", "th8"), ("--source", "exhaustive",
                                                              "--max-n", "4"), 10)
        result = one_pass.run_verify(w)
        self.assertEqual((result["failed"], result["problems"]), (0, []))
        self.assertEqual([len(checks) for checks in result["graphs"]], [2] * 10)
        start, end = result["pass"]
        self.assertTrue(all(start <= a <= b <= end for g in result["graphs"] for a, b in g))
        wrong = workloads.VerifyWorkload("tiny", w.rules, w.corpus_args, 11)
        self.assertEqual(one_pass.run_verify(wrong)["failed"], 2)


class SpeedTest(unittest.TestCase):
    def test_factor_uses_probes_inside_or_around_the_interval(self):
        s = speed.Sampler()
        s.times = array.array("d", [0.0, 1.0, 1.1, 1.2, 1.3, 1.4, 5.0])
        s.ratios = array.array("d", [9.0, 2.0, 2.0, 2.0, 2.0, 2.0, 4.0])
        self.assertAlmostEqual(s.normalise(1.0, 1.4), 0.4 * 2.0)
        # fewer than MIN_PROBES inside: widened by MARGIN_S on each side
        self.assertAlmostEqual(s.factor(1.05, 1.15), 2.0)
        self.assertAlmostEqual(s.factor(4.9, 5.1), 4.0)
        # none even then: the latest probe
        self.assertAlmostEqual(s.factor(10.0, 11.0), 4.0)

    def test_sampler_probes_while_active_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with speed.Sampler() as s:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.2:
                pass
        self.assertGreaterEqual(len(s.ratios), 4)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(len(s.times), len(s.ratios))


class InputsTest(unittest.TestCase):
    def test_graphs_follow_the_seed(self):
        w = workloads.WORKLOADS["analyze16"]
        self.assertEqual(w.graphs(3), w.graphs(3))
        self.assertNotEqual(w.graphs(3), w.graphs(4))
        self.assertEqual(len(w.graphs(3)), w.operations)

    def test_percentile_leaves_a_tenth_above(self):
        values = list(range(120))
        p90 = run.percentile(values, 0.9)
        self.assertEqual(sum(v > p90 for v in values), 12)


class SpecTest(unittest.TestCase):
    def test_every_per_layer_metric_names_a_traced_function(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
        installed.uninstall()
        derived = {"corpus.classes_per_key", "trace.overhead_frac"}
        for metric in spec["per_layer"]:
            if metric["name"] in derived:
                continue
            span, kind = metric["name"].rsplit(".", 1)
            self.assertIn(kind, ("calls", "self_s"))
            self.assertIn(span, tracer.names, metric["name"])

    def test_workloads_match(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
