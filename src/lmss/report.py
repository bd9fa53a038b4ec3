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
from .stability import alpha  # unused here; perfbench's tracer test reads report.alpha
from .classifiers import is_c4_free, is_triangle_free
from .facts import Facts

SCHEMA_VERSION = 1


# The JSON layout: each section maps its keys to report fields.
_LAYOUT = {
    "graph": {k: k for k in ("name", "n", "edges", "labels")},
    "invariants": {k: k for k in ("alpha", "mu", "girth", "perfect_matching_count", "psi_size")},
    "predicates": {k: k for k in ("well_covered", "very_well_covered", "koenig_egervary",
                                  "triangle_free", "c4_free", "unique_perfect_matching",
                                  "accessibility", "exchange")},
    "psi_greedoid": {k: f"psi_greedoid_{k}" for k in ("bruteforce", "fast", "auto")},
}


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
        data = {"schema": SCHEMA_VERSION, "kind": "analysis"}
        for section, keys in _LAYOUT.items():
            data[section] = {key: getattr(self, f) for key, f in keys.items()}
        data["graph"]["edges"] = [list(e) for e in self.edges]
        data["graph"]["labels"] = list(self.labels) if self.labels else None
        data["certificates"] = self.certificates
        data["timings_ms"] = self.timings_ms
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "ClassificationReport":
        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema {data.get('schema')!r}")
        fields = {f: data[section][key] for section, keys in _LAYOUT.items() for key, f in keys.items()}
        fields["edges"] = tuple(tuple(e) for e in fields["edges"])
        fields["labels"] = tuple(fields["labels"]) if fields["labels"] else None
        return cls(**fields, certificates=data["certificates"], timings_ms=data["timings_ms"])

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

    facts = Facts(g, name)
    values = {
        key: timed(key, fn)
        for key, fn in (
            ("alpha", lambda: facts.alpha),
            ("mu", lambda: facts.mu),
            ("girth", lambda: girth(g)),
            ("well_covered", lambda: facts.well_covered),
            ("very_well_covered", lambda: facts.very_well_covered),
            ("koenig_egervary", lambda: facts.koenig_egervary),
            ("triangle_free", lambda: is_triangle_free(g)),
            ("c4_free", lambda: is_c4_free(g)),
            ("perfect_matching_count", lambda: facts.perfect_matching_count),
        )
    }
    # the facts' one search answers uniqueness and, on very well-covered graphs,
    # the fast greedoid verdict with its alternating-cycle certificate
    pm, cyc = timed("unique_perfect_matching", lambda: facts.perfect_matching_search)
    unique = facts.unique_perfect_matching
    family = timed("psi_enumerate", lambda: facts.psi)
    access_ok, access_bad = timed("accessibility", lambda: facts.accessibility)
    exchange_ok, exchange_bad = timed("exchange", lambda: facts.exchange)
    brute = facts.greedoid
    fast = unique if facts.very_well_covered else None

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
    if facts.very_well_covered and cyc is not None:
        certificates["alternating_cycle"] = {
            "vertices": list(cyc.vertices),
            "in_matching": list(cyc.in_matching),
        }

    return ClassificationReport(
        name=name,
        n=g.n,
        edges=tuple((u, v) for u, v in g.edges()),
        labels=g.labels,
        **values,
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


def _certificate_text(key: str, val, lab: tuple[str, ...]) -> str:
    """A certificate with its vertices named as the edges line names them."""

    def vertex_set(vertices: list[int]) -> str:
        return "{" + ", ".join(lab[v] for v in vertices) + "}"

    if key == "unique_perfect_matching":
        return " ".join("-".join(lab[int(v)] for v in e.split("-")) for e in val)
    if key == "inaccessible_member":
        return vertex_set(val)
    if key == "exchange_violation":
        return f"X {vertex_set(val['x'])}, Y {vertex_set(val['y'])}"
    vs = val["vertices"]  # an alternating cycle
    steps = zip(vs, vs[1:] + vs[:1], val["in_matching"])
    matched = " ".join(f"{lab[u]}-{lab[v]}" for u, v, m in steps if m)
    return "-".join(lab[v] for v in (*vs, vs[0])) + f", matched {matched}"


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
        lines.append(f"certificate  : {key} = {_certificate_text(key, val, lab)}")
    return "\n".join(lines) + "\n"
