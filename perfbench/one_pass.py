"""One pass of one workload, in a fresh process so that every cache is cold.

    python3 perfbench/one_pass.py --workload sweep8 --seed 1 --mode pass

``--mode setup`` stops after set-up; ``--mode traced`` runs the pass under
the span tracer and writes the spans to ``perfbench/out``.  The result is
one JSON object on the last line of standard output; the program's own
output is captured and checked here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _call_main(argv: list[str]):
    """Run ``lmss.cli.main(argv)`` with stdout captured; return (rc, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            # looked up on each call, so that a traced pass calls the wrapper
            rc = sys.modules["lmss.cli"].main(argv)
        except Exception as exc:  # a crash fails the operation, not the benchmark
            rc = f"raised {exc!r}"
    return rc, buf.getvalue()


def run_verify(w: workloads.VerifyWorkload) -> dict:
    """One verify call; each (rule, graph) check is timed at the rule boundary.

    Each rule is called once per corpus graph, in corpus order, so the k-th
    calls of the rules are the checks of the k-th graph.
    """
    intervals: dict[str, list[tuple[float, float]]] = {}

    def timed(name, check):
        record = intervals.setdefault(name, []).append
        clock = time.perf_counter

        def timed_check(*args, **kwargs):
            t0 = clock()
            try:
                return check(*args, **kwargs)
            finally:
                record((t0, clock()))

        return timed_check

    saved = tracing.wrap_rules(timed)
    try:
        t0 = time.perf_counter()
        rc, text = _call_main(w.argv())
        t1 = time.perf_counter()
    finally:
        tracing.restore_rules(saved)
    calls = {rule: len(v) for rule, v in intervals.items()}
    failed, problems = workloads.check_verify(w, rc, text, calls)
    per_graph = [list(checks) for checks in zip(*(intervals.get(r, ()) for r in w.rules))]
    return {"pass": (t0, t1), "graphs": per_graph, "attempted": w.operations,
            "failed": failed, "problems": problems}


def run_analyze(w: workloads.AnalyzeWorkload, seed: int, inputs) -> dict:
    """One analyze call per input file, each timed around ``lmss.cli.main``."""
    outputs, per_graph = [], []
    for path, _ in inputs:
        t0 = time.perf_counter()
        outputs.append(_call_main(["analyze", str(path), "--format", "json"]))
        per_graph.append([(t0, time.perf_counter())])
    failed, problems, all_facts = 0, [], []
    for (path, graph), (rc, text) in zip(inputs, outputs):
        facts, bad = workloads.check_analyze_report(rc, text, graph)
        all_facts.append(facts)
        if bad:
            failed += 1
            problems += [f"{path.name}: {p}" for p in bad]
    if seed == workloads.DEFAULT_SEED:
        digest = workloads.facts_digest(all_facts)
        if digest != workloads.ANALYZE16_DIGEST:
            failed = min(failed + 1, w.operations)
            problems.append(f"report digest {digest} differs from the pinned one")
    return {"pass": (per_graph[0][0][0], per_graph[-1][0][1]), "graphs": per_graph,
            "attempted": w.operations, "failed": failed, "problems": problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "pass", "traced"], required=True)
    args = ap.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    scratch = OUT / f"inputs-{os.getpid()}"

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import lmss.cli

    if not Path(lmss.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported lmss from {lmss.cli.__file__}, not from {ROOT / 'src'}")
    try:
        inputs = None
        if isinstance(w, workloads.AnalyzeWorkload):
            inputs = w.write_inputs(args.seed, scratch)
        setup_s = time.perf_counter() - t0
        result = {"setup_s": setup_s * speed.burst_factor(), "raw_setup_s": setup_s}
        if args.mode != "setup":
            tracer = tracing.Tracer() if args.mode == "traced" else None
            installed = tracing.install(tracer) if tracer else None
            try:
                with speed.Sampler() as sampler:
                    run = run_verify(w) if inputs is None else run_analyze(w, args.seed, inputs)
            finally:
                if installed:
                    installed.uninstall()
            start, end = run.pop("pass")
            graphs = run.pop("graphs")
            result.update(run)
            result.update(
                raw_wall_s=end - start,
                wall_s=sampler.normalise(start, end),
                speed=sampler.factor(start, end),
                probes=len(sampler.ratios),
                latencies_ms=[1000.0 * sum(sampler.normalise(a, b) for a, b in ops)
                              for ops in graphs],
            )
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer:
                OUT.mkdir(parents=True, exist_ok=True)
                tracer.write(OUT / f"spans-{args.workload}.bin")
                layers = tracer.self_times()
                result["layers"] = {name: list(v) for name, v in layers.items()}
                result["distinct"] = {k: len(v) for k, v in tracer.distinct.items()}
                (OUT / f"layers-{args.workload}.json").write_text(
                    json.dumps(result["layers"], indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
