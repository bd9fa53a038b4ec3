"""The benchmark's workloads: the argv each pass sends to ``lmss.cli.main``,
the inputs it generates from the seed, and the checks on every output.

The checks rest on meaning, not bytes, so that a refactor which keeps the
answers keeps passing: they read no timing, no schema number, no ``checked``
count and no private name of the package.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1

# sha256 of the analyze16 report facts (see ``report_facts``) at DEFAULT_SEED
ANALYZE16_DIGEST = "2e7e487516333d4bfe88966f73db64bedfc4e8956f83902f3e0b1caa2bd71059"

# (edge probability, graph count) blocks of analyze16.  p <= 0.15 is left out
# on purpose: single graphs there have Psi families of up to 10k members and
# spend seconds in the exchange check, which would let one graph dominate.
# For the same reason every graph is connected: at p = 0.2 the disconnected
# draws (isolated vertices, many leaves) reach 5,712 members and 13 s alone.
ANALYZE16_BLOCKS = ((0.2, 40), (0.3, 40), (0.5, 40))
ANALYZE16_N = 16


@dataclass(frozen=True)
class VerifyWorkload:
    """One ``lmss verify`` call over a fixed corpus; the seed is not used."""

    name: str
    rules: tuple[str, ...]
    corpus_args: tuple[str, ...]
    corpus_size: int

    def argv(self) -> list[str]:
        out = ["verify"]
        for rule in self.rules:
            out += ["--theorem", rule]
        return out + [*self.corpus_args, "--format", "json"]

    @property
    def operations(self) -> int:
        """One operation is one (rule, graph) check."""
        return len(self.rules) * self.corpus_size


@dataclass(frozen=True)
class AnalyzeWorkload:
    """One ``lmss analyze`` call per seeded random graph file."""

    name: str
    n: int
    blocks: tuple[tuple[float, int], ...]

    @property
    def operations(self) -> int:
        return sum(count for _, count in self.blocks)

    def graphs(self, seed: int) -> list[tuple[int, list[tuple[int, int]]]]:
        """Seeded G(n, p) graphs, each redrawn until connected, as (n, edges),
        block by block."""
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for p, count in self.blocks:
            block = []
            while len(block) < count:
                edges = [
                    (u, v)
                    for u in range(self.n)
                    for v in range(u + 1, self.n)
                    if rng.random() < p
                ]
                if _connected(self.n, edges):
                    block.append((self.n, edges))
            out += block
        return out

    def write_inputs(self, seed: int, directory: Path) -> list[tuple[Path, tuple]]:
        """Write one edge-list file per graph; return (path, graph) pairs."""
        directory.mkdir(parents=True, exist_ok=True)
        out = []
        for i, (n, edges) in enumerate(self.graphs(seed)):
            path = directory / f"g{i:03d}.txt"
            lines = [f"# {self.name} seed {seed} graph {i}", str(n)]
            lines += [f"{u} {v}" for u, v in edges]
            path.write_text("\n".join(lines) + "\n")
            out.append((path, (n, edges)))
        return out


def _connected(n: int, edges) -> bool:
    reach = list(range(n))

    def root(v):
        while reach[v] != v:
            reach[v] = reach[reach[v]]
            v = reach[v]
        return v

    for u, v in edges:
        reach[root(u)] = root(v)
    return len({root(v) for v in range(n)}) == 1


WORKLOADS = {
    w.name: w
    for w in (
        VerifyWorkload("sweep8", ("th7", "th8", "th11"),
                       ("--source", "exhaustive", "--max-n", "8"), 12113),
        VerifyWorkload("coronas", ("th10iv", "th88iv", "th9"),
                       ("--source", "coronas"), 1477),
        AnalyzeWorkload("analyze16", ANALYZE16_N, ANALYZE16_BLOCKS),
    )
}


def check_verify(w: VerifyWorkload, rc, text: str, rule_calls: dict) -> tuple[int, list[str]]:
    """Check one verify pass; return (failed operations, problems).

    Each reported violation is one failed (rule, graph) check, and every
    failed pass-level check adds one more.  The corpus size is observed at
    the rule boundary, as the number of graphs each rule was called on.
    """
    problems = []
    violations = 0
    if rc != 0:
        problems.append(f"exit code {rc!r}")
    try:
        doc = json.loads(text)
        if doc.get("pass") is not True:
            problems.append("report does not say pass")
        reported = [r["rule"] for r in doc["rules"]]
        violations = sum(len(r["violations"]) for r in doc["rules"])
        if sorted(reported) != sorted(w.rules):
            problems.append(f"report covers rules {reported}, not {list(w.rules)}")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problems.append(f"unreadable report: {exc!r}")
    for rule in w.rules:
        calls = rule_calls.get(rule, 0)
        if calls != w.corpus_size:
            problems.append(f"rule {rule} checked {calls} graphs, corpus has {w.corpus_size}")
    failed = min(violations + len(problems), w.operations)
    if violations:
        problems.append(f"{violations} violation(s)")
    return failed, problems


def report_facts(doc: dict) -> dict:
    """The values of an analyze report that are facts about the graph alone:
    no name, schema, timing or witness."""
    return {
        "n": doc["graph"]["n"],
        "edges": doc["graph"]["edges"],
        "invariants": doc["invariants"],
        "predicates": doc["predicates"],
        "psi_greedoid": doc["psi_greedoid"],
    }


def check_analyze_report(rc, text: str, graph) -> tuple[dict | None, list[str]]:
    """Check one analyze output against the graph it was given and against
    identities that hold for every graph; return (facts, problems)."""
    if rc != 0:
        return None, [f"exit code {rc!r}"]
    try:
        facts = report_facts(json.loads(text))
        inv, pred, psi = facts["invariants"], facts["predicates"], facts["psi_greedoid"]
        n, edges = graph
        problems = []
        if facts["n"] != n or sorted(map(tuple, facts["edges"])) != sorted(edges):
            problems.append("report is about another graph")
        if pred["koenig_egervary"] != (inv["alpha"] + inv["mu"] == n):
            problems.append("koenig_egervary disagrees with alpha + mu == n")
        if pred["unique_perfect_matching"] != (inv["perfect_matching_count"] == 1):
            problems.append("unique_perfect_matching disagrees with the count")
        if psi["bruteforce"] != (pred["accessibility"] and pred["exchange"]):
            problems.append("bruteforce verdict disagrees with the axioms")
        if psi["fast"] is not None and psi["fast"] != psi["bruteforce"]:
            problems.append("fast verdict disagrees with bruteforce")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return None, [f"unreadable report: {exc!r}"]
    return facts, problems


def facts_digest(all_facts: list[dict]) -> str:
    blob = json.dumps(all_facts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
