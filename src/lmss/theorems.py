"""Verification rules: exact statements checked over generated corpora.

Each rule inspects one corpus item, applies only where its hypothesis
holds, and reports violations with enough context to reproduce them.
Wherever a statement equates two notions, the rule derives both sides
through independent code paths (enumeration vs. search, counting vs.
axioms) rather than trusting one implementation twice.

A rule receives the item's ``Facts`` and reads from it the facts that
other rules also read: alpha, mu, the Koenig-Egervary verdict, the
stable-set walk, psi and its axioms, omega, the maximum matchings, (very)
well-coveredness, the number of perfect matchings, and the
perfect-matching counts of saturated masks behind the definitional
uniquely-restricted test (th9, th22, equiv7).  That count shares no code with the alternating-cycle
search it is compared with.

th9 reads the matching walk itself: for every matching it runs both
routes on the walk's masks, the alternating-cycle walk on the mate array
and the count on the saturated mask, and builds a ``Matching`` only to
describe a violation.  The walk is a DFS, so each matching's parent (it
minus its newest edge) is the latest matching one edge smaller; when the
parent is cycle-free, the cycle walk starts at the newest edge alone.
th4 reads alpha(G - uv) on a mask of G, through one memo per graph.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

from .graphs import Graph, UsageError, VertexSet, bits, serialize
from .stability import _alpha_on, _chain_grows, _psi_member_counting
from .matching import (
    Matching,
    _cycle_free,
    _matching_walk,
    _matchings,
    _pm_edge_cycle_exclusion,
    enumerate_perfect_matchings,
    find_alternating_c4,
    has_unique_perfect_matching,
    check_property_p,
    is_uniquely_restricted,
    mu,
)
from .classifiers import (
    _psi_neighborhoods_are_ke,
    has_isolated_vertices,
    is_bipartite,
    is_c4_free,
    is_forest,
)
from .corpus import CorpusSpec, iter_corpus
from .facts import Facts
from .greedoid import psi_is_greedoid


@dataclass(frozen=True)
class Violation:
    rule: str
    item: str
    detail: str
    edge_list: str


def _violation(rule: str, item: Facts, detail: str) -> Violation:
    return Violation(rule, item.name, detail, serialize(item.graph))


# ------------------------------------------------------------------ rules


def _check_th1(item: Facts) -> list[Violation]:
    g = item.graph
    omega = item.omega.members
    return [
        _violation("th1", item, f"{VertexSet(g, s)!r} extends to no maximum stable set")
        for s in item.psi.members
        if all(s & ~m for m in omega)
    ]


def _check_th2(item: Facts) -> list[Violation]:
    if not is_forest(item.graph):
        return []
    if not item.greedoid:
        return [_violation("th2", item, "forest whose family fails the axioms")]
    return []


def _check_th3(item: Facts) -> list[Violation]:
    if not item.very_well_covered:
        return []
    ok, witness = _psi_neighborhoods_are_ke(item.graph, item.psi)
    if not ok:
        return [_violation("th3", item, f"N[{witness!r}] induces a non-Koenig-Egervary graph")]
    return []


def _check_th4(item: Facts) -> list[Violation]:
    g = item.graph
    if not item.koenig_egervary:
        return []
    out = []
    for m in item.maximum_matchings:
        for s in item.omega.members:
            crossing = all((s >> u & 1) != (s >> v & 1) for u, v in m.edges)
            if not crossing:
                out.append(
                    _violation("th4", item, f"maximum matching {m!r} not inside the cut of {s:#x}")
                )
    a0, m0 = item.alpha, item.mu
    bip = is_bipartite(g)
    memo: dict[int, int] = {}
    for u, v in g.edges():
        # a stable set of G - uv beating alpha(G) is {u, v} plus one outside N[u] | N[v]
        alpha_critical = 2 + _alpha_on(g, g.full_mask & ~(g.adj[u] | g.adj[v]), memo) > a0
        reduced = Graph(
            g.n,
            tuple(
                row & ~(1 << v) if w == u else row & ~(1 << u) if w == v else row
                for w, row in enumerate(g.adj)
            ),
        )
        mu_critical = mu(reduced) < m0
        if alpha_critical and not mu_critical:
            out.append(_violation("th4", item, f"edge ({u},{v}) alpha-critical but not mu-critical"))
        if bip and mu_critical and not alpha_critical:
            out.append(_violation("th4", item, f"bipartite edge ({u},{v}) mu-critical but not alpha-critical"))
    return out


def _check_th7(item: Facts) -> list[Violation]:
    if item.accessibility[0] and not item.exchange[0]:
        return [_violation("th7", item, "family is accessible but fails exchange")]
    return []


def _check_th8(item: Facts) -> list[Violation]:
    g = item.graph
    if not item.very_well_covered:
        return []
    out = []
    brute = item.greedoid
    unique = has_unique_perfect_matching(g)[0]
    if brute != unique:
        out.append(
            _violation("th8", item, f"axioms say {brute}, unique-perfect-matching says {unique}")
        )
    if unique != (item.perfect_matching_count == 1):
        out.append(_violation("th8", item, "unique-matching witness disagrees with enumeration"))
    return out


def _check_th9(item: Facts) -> list[Violation]:
    """Both routes on every matching M.  The cycle route seeds M's newest edge ab alone
    when P = M - ab is cycle-free, which is exact: a cycle missing a and b alternates for
    P too, and one through a or b uses its matched edge ab.  Otherwise it seeds all of M."""
    g = item.graph
    out = []
    # free[d]: the cycle route's verdict on the latest d-edge matching (d = 0 seeds nothing)
    free = [True]
    for pairs, mate, saturated in _matching_walk(g):
        d = len(pairs)
        by_cycle = _cycle_free(g.adj, pairs[-1:] if free[d - 1] else pairs, mate)
        free[d:] = (by_cycle,)
        by_count = item.unique_pm_on(saturated)
        if by_cycle != by_count:
            m = Matching(g, pairs)
            out.append(
                _violation("th9", item, f"{m!r}: alternating-cycle route {by_cycle}, enumeration {by_count}")
            )
    return out


def _check_th10iv(item: Facts) -> list[Violation]:
    if item.base is None:
        raise UsageError("th10iv needs a corona corpus")
    whole = item.greedoid
    parts = all(psi_is_greedoid(h, mode="bruteforce").holds for h in item.parts)
    if whole != parts:
        return [_violation("th10iv", item, f"corona verdict {whole}, attached-part verdict {parts}")]
    return []


def _check_th11(item: Facts) -> list[Violation]:
    g = item.graph
    if has_isolated_vertices(g):
        return []
    # a lazy walk of the perfect matchings: the first without P ends it
    rhs = False
    for m in _matchings(g, g.n // 2) if g.n % 2 == 0 else ():
        rhs = check_property_p(g, m)[0]
        if not rhs:
            break
    lhs = item.very_well_covered
    if lhs != rhs:
        return [_violation("th11", item, f"very-well-covered {lhs}, perfect-matching property {rhs}")]
    return []


def _check_th22(item: Facts) -> list[Violation]:
    if not is_bipartite(item.graph):
        return []
    lhs = item.greedoid
    rhs = all(item.unique_pm_on(m.saturated_bits) for m in item.maximum_matchings)
    if lhs != rhs:
        return [_violation("th22", item, f"greedoid {lhs}, all-maximum-matchings-restricted {rhs}")]
    return []


def _check_th88iii(item: Facts) -> list[Violation]:
    if has_isolated_vertices(item.graph):
        return []
    lhs = item.very_well_covered
    rhs = item.well_covered and item.koenig_egervary
    if lhs != rhs:
        return [_violation("th88iii", item, f"very-well-covered {lhs}, well-covered+KE {rhs}")]
    return []


def _check_th88iv(item: Facts) -> list[Violation]:
    if item.base is None:
        raise UsageError("th88iv needs a corona corpus")
    lhs = item.well_covered
    rhs = all(2 * h.edge_count == h.n * (h.n - 1) for h in item.parts)
    if lhs != rhs:
        return [_violation("th88iv", item, f"well-covered {lhs}, all-parts-complete {rhs}")]
    return []


def _check_lem1(item: Facts) -> list[Violation]:
    if not item.very_well_covered:
        return []
    out = []
    for m in enumerate_perfect_matchings(item.graph):
        ok, cyc = _pm_edge_cycle_exclusion(item.graph, m)
        if not ok:
            out.append(
                _violation("lem1", item, f"matched edge on a chordless cycle {cyc} under {m!r}")
            )
    return out


def _check_lem2(item: Facts) -> list[Violation]:
    g = item.graph
    if not item.very_well_covered:
        return []
    out = []
    for m in item.maximum_matchings:
        any_cycle = not is_uniquely_restricted(g, m)
        any_square = find_alternating_c4(g, m) is not None
        if any_cycle != any_square:
            out.append(
                _violation("lem2", item, f"{m!r}: alternating cycle {any_cycle}, chordless square {any_square}")
            )
    return out


def _check_lem3(item: Facts) -> list[Violation]:
    g = item.graph
    if not item.very_well_covered:
        return []
    psi = set(item.psi.members)
    out = []
    for mask, _ in item.stable_sets:
        if _psi_member_counting(g, mask) != (mask in psi):
            s = VertexSet(g, mask)
            out.append(_violation("lem3", item, f"counting and oracle membership split on {s!r}"))
    return out


def _check_lem65(item: Facts) -> list[Violation]:
    g = item.graph
    if not item.very_well_covered:
        return []
    psi = set(item.psi.members)
    out = []
    for bmask in item.psi.members:
        for v in bits(g.full_mask & ~bmask):
            if g.adj[v] & bmask:
                continue
            amask = bmask | 1 << v
            if _chain_grows(g, bmask, amask) != (amask in psi):
                out.append(
                    _violation("lem65", item, f"growth test and oracle split on {bmask:#x}+{v}")
                )
    return out


def _check_equiv7(item: Facts) -> list[Violation]:
    g = item.graph
    if not item.very_well_covered:
        return []
    mm = item.maximum_matchings
    restricted = [item.unique_pm_on(m.saturated_bits) for m in mm]
    cycle_free = [is_uniquely_restricted(g, m) for m in mm]
    square_free = [find_alternating_c4(g, m) is None for m in mm]
    preds = {
        "greedoid": item.greedoid,
        "some_restricted": any(restricted),
        "some_cycle_free": any(cycle_free),
        "some_square_free": any(square_free),
        "all_cycle_free": all(cycle_free),
        "all_square_free": all(square_free),
        "all_restricted": all(restricted),
    }
    if len(set(preds.values())) > 1:
        return [_violation("equiv7", item, f"the seven equivalents split: {preds}")]
    return []


def _check_c4free_corollary(item: Facts) -> list[Violation]:
    if not (item.very_well_covered and is_c4_free(item.graph)):
        return []
    out = []
    if item.perfect_matching_count != 1:
        out.append(_violation("c4free-corollary", item, "no unique perfect matching"))
    if not item.greedoid:
        out.append(_violation("c4free-corollary", item, "family is not a greedoid"))
    return out


@dataclass(frozen=True)
class Rule:
    name: str
    describe: str
    needs_corona: bool
    check: Callable[[Facts], list[Violation]]


RULES: dict[str, Rule] = {
    r.name: r
    for r in [
        Rule("th1", "every local maximum stable set extends to a maximum stable set",
             False, _check_th1),
        Rule("th2", "forests produce greedoid families", False, _check_th2),
        Rule("th3", "in very well-covered graphs, closed neighbourhoods of local "
             "maximum stable sets induce Koenig-Egervary graphs", False, _check_th3),
        Rule("th4", "Koenig-Egervary: maximum matchings cross maximum stable sets; "
             "alpha-critical edges are mu-critical", False, _check_th4),
        Rule("th7", "accessibility of the family implies exchange", False, _check_th7),
        Rule("th8", "very well-covered: greedoid iff unique perfect matching",
             False, _check_th8),
        Rule("th9", "uniquely restricted iff alternating-cycle-free, for every matching",
             False, _check_th9),
        Rule("th10iv", "corona family is a greedoid iff every attached family is",
             True, _check_th10iv),
        Rule("th11", "no isolated vertices: very well-covered iff a perfect matching "
             "exists and all of them satisfy the neighbourhood property", False, _check_th11),
        Rule("th22", "bipartite: greedoid iff all maximum matchings uniquely restricted",
             False, _check_th22),
        Rule("th88iii", "very well-covered iff well-covered Koenig-Egervary "
             "(no isolated vertices)", False, _check_th88iii),
        Rule("th88iv", "corona is well-covered iff every attached graph is complete",
             True, _check_th88iv),
        Rule("lem1", "no perfect-matching edge lies on a chordless cycle of length "
             "3 or >= 5 in a very well-covered graph", False, _check_lem1),
        Rule("lem2", "very well-covered: alternating cycle exists iff a chordless "
             "alternating square exists", False, _check_lem2),
        Rule("lem3", "very well-covered membership shortcut |S| = |N(S)| agrees with "
             "the definition", False, _check_lem3),
        Rule("lem65", "one-vertex growth test agrees with the definition", False, _check_lem65),
        Rule("equiv7", "the seven uniquely-restricted equivalents agree", False, _check_equiv7),
        Rule("c4free-corollary", "very well-covered and square-free forces a unique "
             "perfect matching and a greedoid", False, _check_c4free_corollary),
    ]
}


@dataclass(frozen=True)
class RuleReport:
    rule: str
    checked: int
    violations: tuple[Violation, ...]

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "checked": self.checked,
            "violations": [asdict(v) for v in self.violations],
        }


@dataclass(frozen=True)
class VerificationSummary:
    corpus: CorpusSpec
    reports: tuple[RuleReport, ...]

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.reports)

    @property
    def passed(self) -> bool:
        return self.total_violations == 0

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "verification",
            "corpus": self.corpus.to_dict(),
            "rules": [r.to_dict() for r in self.reports],
            "total_violations": self.total_violations,
            "pass": self.passed,
        }


def verify(spec: CorpusSpec, rule_names: list[str]) -> VerificationSummary:
    """Run the named rules over the corpus as it streams, item-major: every
    rule checks one item's ``Facts`` before the next item starts, so a fact
    computed for one rule serves the others, and both are dropped before
    the next item is built.  Reports keep the requested order and
    violations keep corpus order.  The name ``all`` stands for every rule
    the corpus admits.  Every rule name, one given beside ``all`` too, is
    validated before the corpus is built; an empty corpus is a usage
    error, since it would pass every rule."""
    for name in rule_names:
        if name == "all":
            continue
        rule = RULES.get(name)
        if rule is None:
            raise UsageError(f"unknown rule {name!r}")
        if rule.needs_corona and not spec.carries_parts:
            raise UsageError(f"rule {name!r} needs a corona corpus")
    if "all" in rule_names:
        rule_names = [n for n in sorted(RULES) if spec.carries_parts or not RULES[n].needs_corona]
    rules = [RULES[name] for name in rule_names]
    found: list[list[Violation]] = [[] for _ in rules]
    checked = 0
    for it in iter_corpus(spec):
        facts = Facts(it.graph, it.name, it.base, it.parts)
        for rule, out in zip(rules, found):
            out.extend(rule.check(facts))
        checked += 1
    if not checked:
        raise UsageError("the corpus is empty: no graph to check")
    reports = tuple(
        RuleReport(name, checked, tuple(out)) for name, out in zip(rule_names, found)
    )
    return VerificationSummary(spec, reports)
