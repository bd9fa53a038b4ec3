"""Full classification of a single graph, serialisable as versioned JSON.

The report carries the whole predicate vector plus certificates so a
verdict can be checked by hand: the unique perfect matching for positive
greedoid calls, an inaccessible member / exchange pair / alternating
cycle for negative ones.  Greedoid verdicts from the fast and brute-force
routes must agree whenever both are present; the constructor enforces it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .graphs import Graph, bits, girth
from .stability import alpha, psi_enumerate
from .matching import _perfect_matching_and_cycle, count_perfect_matchings, mu
from .classifiers import (
    is_c4_free,
    is_koenig_egervary,
    is_triangle_free,
    is_very_well_covered,
    is_well_covered,
)
from .greedoid import check_accessibility, check_exchange

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ClassificationReport:
    name: str | None
    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None
    alpha: int
    mu: int
    girth: int | None
    well_covered: bool
    very_well_covered: bool
    koenig_egervary: bool
    triangle_free: bool
    c4_free: bool
    perfect_matching_count: int
    unique_perfect_matching: bool
    psi_size: int
    accessibility: bool
    exchange: bool
    psi_greedoid_bruteforce: bool
    psi_greedoid_fast: bool | None
    psi_greedoid_auto: bool
    certificates: dict = field(default_factory=dict)
    timings_ms: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.psi_greedoid_fast is not None:
            if self.psi_greedoid_fast != self.psi_greedoid_bruteforce:
                raise ValueError("fast and brute-force greedoid verdicts disagree")

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "analysis",
            "graph": {
                "name": self.name,
                "n": self.n,
                "edges": [list(e) for e in self.edges],
                "labels": list(self.labels) if self.labels else None,
            },
            "invariants": {
                "alpha": self.alpha,
                "mu": self.mu,
                "girth": self.girth,
                "perfect_matching_count": self.perfect_matching_count,
                "psi_size": self.psi_size,
            },
            "predicates": {
                "well_covered": self.well_covered,
                "very_well_covered": self.very_well_covered,
                "koenig_egervary": self.koenig_egervary,
                "triangle_free": self.triangle_free,
                "c4_free": self.c4_free,
                "unique_perfect_matching": self.unique_perfect_matching,
                "accessibility": self.accessibility,
                "exchange": self.exchange,
            },
            "psi_greedoid": {
                "bruteforce": self.psi_greedoid_bruteforce,
                "fast": self.psi_greedoid_fast,
                "auto": self.psi_greedoid_auto,
            },
            "certificates": self.certificates,
            "timings_ms": self.timings_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "ClassificationReport":
        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema {data.get('schema')!r}")
        g, inv, pred, psi = data["graph"], data["invariants"], data["predicates"], data["psi_greedoid"]
        return cls(
            name=g["name"],
            n=g["n"],
            edges=tuple(tuple(e) for e in g["edges"]),
            labels=tuple(g["labels"]) if g["labels"] else None,
            alpha=inv["alpha"],
            mu=inv["mu"],
            girth=inv["girth"],
            well_covered=pred["well_covered"],
            very_well_covered=pred["very_well_covered"],
            koenig_egervary=pred["koenig_egervary"],
            triangle_free=pred["triangle_free"],
            c4_free=pred["c4_free"],
            perfect_matching_count=inv["perfect_matching_count"],
            unique_perfect_matching=pred["unique_perfect_matching"],
            psi_size=inv["psi_size"],
            accessibility=pred["accessibility"],
            exchange=pred["exchange"],
            psi_greedoid_bruteforce=psi["bruteforce"],
            psi_greedoid_fast=psi["fast"],
            psi_greedoid_auto=psi["auto"],
            certificates=data["certificates"],
            timings_ms=data["timings_ms"],
        )

    @classmethod
    def from_json(cls, text: str) -> "ClassificationReport":
        return cls.from_dict(json.loads(text))


def analyze_graph(g: Graph, name: str | None = None) -> ClassificationReport:
    """Compute every predicate, certificate and timing for one graph."""
    clock: dict[str, float] = {}

    def timed(key, fn):
        t0 = time.perf_counter()
        out = fn()
        clock[key] = (time.perf_counter() - t0) * 1000.0
        return out

    a = timed("alpha", lambda: alpha(g))
    m = timed("mu", lambda: mu(g))
    gi = timed("girth", lambda: girth(g))
    wc = timed("well_covered", lambda: is_well_covered(g))
    vwc = timed("very_well_covered", lambda: is_very_well_covered(g))
    ke = timed("koenig_egervary", lambda: is_koenig_egervary(g))
    tf = timed("triangle_free", lambda: is_triangle_free(g))
    c4f = timed("c4_free", lambda: is_c4_free(g))
    pm_count = timed("perfect_matching_count", lambda: count_perfect_matchings(g))
    # one search answers uniqueness and, on very well-covered graphs, the fast
    # greedoid verdict with its alternating-cycle certificate
    pm, cyc = timed("unique_perfect_matching", lambda: _perfect_matching_and_cycle(g))
    unique = pm is not None and cyc is None
    family = timed("psi_enumerate", lambda: psi_enumerate(g))
    access_ok, access_bad = timed("accessibility", lambda: check_accessibility(family))
    exchange_ok, exchange_bad = timed("exchange", lambda: check_exchange(family))
    brute = access_ok and exchange_ok
    fast = unique if vwc else None

    certificates: dict = {}
    if unique:
        certificates["unique_perfect_matching"] = [f"{u}-{v}" for u, v in pm.edges]
    if access_bad is not None:
        certificates["inaccessible_member"] = list(bits(access_bad))
    if exchange_bad is not None:
        certificates["exchange_violation"] = {
            "x": list(bits(exchange_bad[0])),
            "y": list(bits(exchange_bad[1])),
        }
    if vwc and cyc is not None:
        certificates["alternating_cycle"] = {
            "vertices": list(cyc.vertices),
            "in_matching": list(cyc.in_matching),
        }

    return ClassificationReport(
        name=name,
        n=g.n,
        edges=tuple((u, v) for u, v in g.edges()),
        labels=g.labels,
        alpha=a,
        mu=m,
        girth=gi,
        well_covered=wc,
        very_well_covered=vwc,
        koenig_egervary=ke,
        triangle_free=tf,
        c4_free=c4f,
        perfect_matching_count=pm_count,
        unique_perfect_matching=unique,
        psi_size=len(family),
        accessibility=access_ok,
        exchange=exchange_ok,
        psi_greedoid_bruteforce=brute,
        psi_greedoid_fast=fast,
        psi_greedoid_auto=brute if fast is None else fast,
        certificates=certificates,
        timings_ms=clock,
    )


def render_text(report: ClassificationReport) -> str:
    lab = report.labels or tuple(str(i) for i in range(report.n))
    lines = [
        f"graph        : {report.name or '<unnamed>'}  (n={report.n}, m={len(report.edges)})",
        "edges        : " + " ".join(f"{lab[u]}-{lab[v]}" for u, v in report.edges),
        f"alpha / mu   : {report.alpha} / {report.mu}",
        f"girth        : {report.girth if report.girth is not None else 'acyclic'}",
        f"well-covered : {report.well_covered}   very well-covered: {report.very_well_covered}",
        f"koenig-egervary: {report.koenig_egervary}   triangle-free: {report.triangle_free}   square-free: {report.c4_free}",
        f"perfect matchings: {report.perfect_matching_count}   unique: {report.unique_perfect_matching}",
        f"family size  : {report.psi_size}   accessibility: {report.accessibility}   exchange: {report.exchange}",
        f"greedoid     : bruteforce={report.psi_greedoid_bruteforce}"
        f" fast={report.psi_greedoid_fast} auto={report.psi_greedoid_auto}",
    ]
    for key, val in sorted(report.certificates.items()):
        lines.append(f"certificate  : {key} = {val}")
    return "\n".join(lines) + "\n"
