"""The ``lmss`` benchmark: cold-process passes of fixed CLI workloads.

    python3 perfbench/run.py --workload sweep8 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

Each pass runs ``lmss.cli.main(argv)`` in a fresh process (see
``one_pass.py``), one process at a time, so the package's caches start cold
as they do for a user of the ``lmss`` command.  Passes repeat until the next
one would end after ``--seconds``; timings are medians over the passes.

With ``--trace 0`` the run reports the end-to-end metrics named in
``BENCHMARK.json``.  With ``--trace 1`` it runs one plain and one traced pass
and reports the per-layer metrics instead.  Every output is checked; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
check passed, 1 when one failed, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
ONE_PASS = Path(__file__).resolve().parent / "one_pass.py"
SETUP_SAMPLES = 7  # set-up is timed this often per run, counting the passes
RUN_LIMIT_S = 170.0  # every child is stopped by then, whatever --seconds says


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(ONE_PASS), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} pass did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} pass exited with {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at most (1 - q) of the values lie above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[list, dict]:
    """Time passes for ``seconds``; return (passes, end-to-end metric values)."""
    passes, setups = [], []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(_spawn(workload, seed, "pass", deadline))
        last = time.monotonic() - t0
        if time.monotonic() - started + last > seconds:
            break
    while len(passes) + len(setups) < SETUP_SAMPLES:
        setups.append(_spawn(workload, seed, "setup", deadline))
    latencies = [x for p in passes for x in p["latencies_ms"]]
    return passes, {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "analyze_p50_ms": statistics.median(latencies),
        "analyze_p90_ms": percentile(latencies, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes + setups),
    }


def layer_value(name: str, traced: dict, overhead: float) -> float:
    """One per-layer metric: ``<span>.calls``, ``<span>.self_s`` or a ratio."""
    layers = traced["layers"]
    if name == "trace.overhead_frac":
        return overhead
    if name == "corpus.classes_per_key":
        calls = layers.get("corpus.canonical_key", (0, 0.0))[0]
        return traced["distinct"]["corpus.canonical_key"] / calls if calls else 0.0
    span, kind = name.rsplit(".", 1)
    calls, self_s = layers.get(span, (0, 0.0))
    return {"calls": calls, "self_s": self_s * traced["speed"]}[kind]


def per_layer(workload: str, seed: int, names: list[str], deadline: float) -> tuple[list, dict]:
    """One plain pass and one traced pass; return (passes, per-layer values)."""
    plain = _spawn(workload, seed, "pass", deadline)
    traced = _spawn(workload, seed, "traced", deadline)
    overhead = traced["wall_s"] / plain["wall_s"] - 1.0
    return [plain, traced], {n: layer_value(n, traced, overhead) for n in names}


def run_workload(workload: str, args, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    # An unmeasured set-up first, so that compiling the package's bytecode
    # after a fresh checkout is not timed.
    _spawn(workload, args.seed, "setup", deadline)
    if args.trace:
        defs = spec["per_layer"]
        passes, values = per_layer(workload, args.seed, [d["name"] for d in defs], deadline)
    else:
        defs = spec["end_to_end"]
        passes, values = end_to_end(workload, args.seed, args.seconds, deadline)
    for p in passes:
        print(f"{workload}: pass of {p['raw_wall_s']:.3f} s raw at speed {p['speed']:.4f}"
              f" ({p['probes']} probes) = {p['wall_s']:.3f} s", file=sys.stderr)
        for problem in p["problems"]:
            print(f"{workload}: check failed: {problem}", file=sys.stderr)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for d in defs:
        print(f"{workload:10s} {d['name']:44s} {values[d['name']]:.6g} {d['unit']}")
    print(f"{workload:10s} {'failed_frac':44s} {failed / attempted:.6g} ratio"
          f" ({failed} of {attempted} operations, {len(passes)} passes)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in defs},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        if not (ROOT / "src" / "lmss" / "__init__.py").is_file():
            raise BenchError(f"no lmss package under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(name, args, spec) for name in names}
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
