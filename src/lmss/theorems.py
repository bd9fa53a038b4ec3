"""Verification rules: exact statements checked over generated corpora.

A rule is one row of ``RULES``: its name, what it states, whether it
needs a corona corpus, and its ``check``.  A conditional statement's
check is ``_when(hypothesis, claim)``, so its hypothesis is declared in
its row alone, and a graph that fails it gets no detail.  A ``_check_*``
function states only the claim and returns one detail string per
violation; an "A iff B" claim reports through ``_iff``.  ``verify``
alone names the rule and the item and adds the item's edge list to
reproduce it.  Wherever a statement equates two notions, the rule
derives both sides through independent code paths (enumeration vs.
search, counting vs. axioms) rather than trusting one implementation
twice.

A corpus item is a ``Facts``; a rule reads from it the facts that the
corpus filter and other rules also read: alpha, mu, the Koenig-Egervary
verdict, the stable-set walk, psi and its axioms, omega, the maximum
matchings, (very) well-coveredness, the number of perfect matchings, and
the perfect-matching counts of saturated masks behind the definitional
uniquely-restricted test (th9, th22, equiv7).  That count shares no code
with the alternating-cycle search it is compared with.

th9 walks the matchings itself, a DFS over the graph's edges that keeps
one mate array and saturated mask in place instead of yielding a tuple
per matching.  For every matching it runs both routes once: the
alternating-cycle decision ``_cycle_free`` on the mate array and mask,
and the count ``_count_perfect_matchings_on`` on the mask, through the
item's count memo.  It builds a ``Matching``, unchecked, only to describe
a violation.  Each matching's parent (it minus its newest edge) is the
latest matching one edge smaller; when the parent is cycle-free, the
decision starts at the newest edge alone.
th4 reads alpha(G - uv) on a mask of G, through one memo per graph, and
finds mu(G - uv) < mu(G) exactly for the edges common to every maximum
matching.  th3 and th11 read the item's ``_mu_on`` memo; th11 builds no
perfect matching, and asks mu(G - x - y) for each edge xy without P.
lem1 reads the perfect matchings among the maximum ones and searches
each of their edges once for a chordless cycle.  lem2 and equiv7 run the
square search unchecked, on matchings maximum by construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

from .graphs import Edge, UsageError, VertexSet, _derived, bits, serialize
from .stability import _alpha_on, _chain_grows, _psi_member_counting
from .matching import (
    Matching,
    _chordless_cycle_through,
    _count_perfect_matchings_on,
    _cycle_free,
    _edge_has_p,
    _find_alternating_c4,
    _mu_on,
    is_uniquely_restricted,
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


@dataclass(frozen=True)
class Violation:
    rule: str
    item: str
    detail: str
    edge_list: str


# ------------------------------------------------------------------ rules


def _when(hypothesis: Callable[[Facts], bool],
          claim: Callable[[Facts], list[str]]) -> Callable[[Facts], list[str]]:
    """The check of a conditional rule: ``claim`` on an item that meets
    ``hypothesis``, no detail on the rest."""

    def check(item: Facts) -> list[str]:
        return claim(item) if hypothesis(item) else []

    return check


def _vwc(item: Facts) -> bool:
    return item.very_well_covered


def _iff(lhs_name: str, lhs: bool, rhs_name: str, rhs: bool) -> list[str]:
    """The detail of an "A iff B" claim whose two sides split, if they do."""
    return [f"{lhs_name} {lhs}, {rhs_name} {rhs}"] if lhs != rhs else []


def _check_th1(item: Facts) -> list[str]:
    g = item.graph
    omega = item.omega.members
    return [
        f"{VertexSet(g, s)!r} extends to no maximum stable set"
        for s in item.psi.members
        if all(s & ~m for m in omega)
    ]


def _check_th2(item: Facts) -> list[str]:
    return [] if item.greedoid else ["forest whose family fails the axioms"]


def _check_th3(item: Facts) -> list[str]:
    ok, witness = _psi_neighborhoods_are_ke(item.graph, item.psi, item._mu_memo)
    if not ok:
        return [f"N[{witness!r}] induces a non-Koenig-Egervary graph"]
    return []


def _check_th4(item: Facts) -> list[str]:
    g = item.graph
    out = []
    for m in item.maximum_matchings:
        for s in item.omega.members:
            crossing = all((s >> u & 1) != (s >> v & 1) for u, v in m.edges)
            if not crossing:
                out.append(f"maximum matching {m!r} not inside the cut of {s:#x}")
    a0 = item.alpha
    # mu(G - uv) < mu(G) exactly when uv lies in every maximum matching
    in_every = set.intersection(*(set(m.edges) for m in item.maximum_matchings))
    bip = is_bipartite(g)
    # g's own masks: item._alpha_memo holds the relabelled copy's from _RELABEL_CROSSOVER on
    memo: dict[int, int] = {}
    for u, v in g.edges():
        # a stable set of G - uv beating alpha(G) is {u, v} plus one outside N[u] | N[v]
        alpha_critical = 2 + _alpha_on(g, g.full_mask & ~(g.adj[u] | g.adj[v]), memo) > a0
        mu_critical = (u, v) in in_every
        if alpha_critical and not mu_critical:
            out.append(f"edge ({u},{v}) alpha-critical but not mu-critical")
        if bip and mu_critical and not alpha_critical:
            out.append(f"bipartite edge ({u},{v}) mu-critical but not alpha-critical")
    return out


def _check_th7(item: Facts) -> list[str]:
    if item.accessibility[0] and not item.exchange[0]:
        return ["family is accessible but fails exchange"]
    return []


def _check_th8(item: Facts) -> list[str]:
    out = []
    brute = item.greedoid
    unique = item.unique_perfect_matching
    if brute != unique:
        out.append(f"axioms say {brute}, unique-perfect-matching says {unique}")
    if unique != (item.perfect_matching_count == 1):
        out.append("unique-matching witness disagrees with enumeration")
    return out


def _check_th9(item: Facts) -> list[str]:
    """Both routes on every matching M.  The cycle route seeds M's newest edge ab alone
    when P = M - ab is cycle-free, which is exact: a cycle missing a and b alternates for
    P too, and one through a or b uses its matched edge ab.  Otherwise it seeds all of M.

    The matchings come from a DFS over ``g.edges()``, the empty one first, each followed
    by its extensions by later edges that miss its saturated mask, so P is the latest
    matching one edge smaller.  The edges come from g and the mask keeps them disjoint,
    so ``chosen`` is a matching, with the saturated mask, without a check."""
    g = item.graph
    adj, counts, edges = g.adj, item._pm_counts, g.edges()
    n_edges = len(edges)
    masks = [(1 << u) | (1 << v) for u, v in edges]
    mate = [-1] * g.n
    chosen: list[Edge] = []
    # free[d]: the cycle route's verdict on chosen[:d];
    # stack[d]: the edge after chosen[d] to try next, and the mask of chosen[:d]
    free: list[bool] = []
    stack: list[tuple[int, int]] = []
    out = []
    # i: the next edge to try; seeds: the cycle route's seeds for chosen
    i, saturated, seeds = 0, 0, ()
    while True:
        by_cycle = _cycle_free(adj, seeds, mate, saturated)
        free.append(by_cycle)
        by_count = _count_perfect_matchings_on(g, saturated, counts) == 1
        if by_cycle != by_count:
            m = _derived(Matching, g, tuple(chosen), saturated)
            out.append(f"{m!r}: alternating-cycle route {by_cycle}, enumeration {by_count}")
        # the next matching: chosen plus the next edge that misses saturated, else backtrack
        while True:
            while i < n_edges and saturated & masks[i]:
                i += 1
            if i < n_edges:
                break
            if not stack:
                return out
            u, v = chosen.pop()
            mate[u] = mate[v] = -1
            free.pop()
            i, saturated = stack.pop()
        u, v = e = edges[i]
        chosen.append(e)
        mate[u], mate[v] = v, u
        seeds = (e,) if free[-1] else tuple(chosen)
        stack.append((i + 1, saturated))
        saturated |= masks[i]
        i += 1


def _check_th10iv(item: Facts) -> list[str]:
    return _iff("corona verdict", item.greedoid, "attached-part verdict",
                all(h.greedoid for h in item.parts))


def _check_th11(item: Facts) -> list[str]:
    """Every perfect matching has P exactly when a perfect matching exists,
    mu(G) = n/2, and no edge without P lies in one, mu(G - x - y) < n/2 - 1
    for each such edge xy: P is a condition on each matched edge alone.
    The item's ``_mu_on`` memo answers every mu, and n = 0 has the empty matching.

    Favaron's hypothesis, no isolated vertex, is implied: an isolated
    vertex makes the graph not very well-covered and leaves it no perfect
    matching, so both sides are False."""
    g = item.graph
    adj, full, half = g.adj, g.full_mask, g.n // 2
    rhs = g.n % 2 == 0 and item.mu == half
    x = 0
    while rhs and x < g.n:
        # the edges xy with y > x, as bits
        later = adj[x] >> x + 1 << x + 1
        while later:
            low = later & -later
            if (not _edge_has_p(adj, x, low.bit_length() - 1)
                    and _mu_on(g, full ^ 1 << x ^ low, item._mu_memo) == half - 1):
                rhs = False
                break
            later ^= low
        x += 1
    return _iff("very-well-covered", item.very_well_covered, "perfect-matching property", rhs)


def _check_th22(item: Facts) -> list[str]:
    return _iff("greedoid", item.greedoid, "all-maximum-matchings-restricted",
                all(item.unique_pm_on(m.saturated_bits) for m in item.maximum_matchings))


def _check_th88iii(item: Facts) -> list[str]:
    return _iff("very-well-covered", item.very_well_covered, "well-covered+KE",
                item.well_covered and item.koenig_egervary)


def _check_th88iv(item: Facts) -> list[str]:
    return _iff("well-covered", item.well_covered, "all-parts-complete",
                all(2 * h.graph.edge_count == h.graph.n * (h.graph.n - 1) for h in item.parts))


def _check_lem1(item: Facts) -> list[str]:
    """The claim is per edge, so each perfect-matching edge is searched once,
    however many perfect matchings hold it; a matching reports its first
    edge on a chordless cycle."""
    g = item.graph
    cycles: dict[Edge, list[int] | None] = {}
    out = []
    # the maximum matchings are all perfect or, with no perfect matching, none is
    for m in item.maximum_matchings:
        if not m.is_perfect():
            break
        for e in m.edges:
            if e not in cycles:
                cycles[e] = _chordless_cycle_through(g, *e)
            if cycles[e] is not None:
                out.append(f"matched edge on a chordless cycle {cycles[e]} under {m!r}")
                break
    return out


def _check_lem2(item: Facts) -> list[str]:
    g = item.graph
    out = []
    for m in item.maximum_matchings:
        any_cycle = not is_uniquely_restricted(g, m)
        any_square = _find_alternating_c4(g, m) is not None
        if any_cycle != any_square:
            out.append(f"{m!r}: alternating cycle {any_cycle}, chordless square {any_square}")
    return out


def _check_lem3(item: Facts) -> list[str]:
    g = item.graph
    psi = set(item.psi.members)
    out = []
    for mask, _ in item.stable_sets:
        if _psi_member_counting(g, mask) != (mask in psi):
            s = VertexSet(g, mask)
            out.append(f"counting and oracle membership split on {s!r}")
    return out


def _check_lem65(item: Facts) -> list[str]:
    g = item.graph
    psi = set(item.psi.members)
    out = []
    for bmask in item.psi.members:
        for v in bits(g.full_mask & ~bmask):
            if g.adj[v] & bmask:
                continue
            amask = bmask | 1 << v
            if _chain_grows(g, bmask, amask) != (amask in psi):
                out.append(f"growth test and oracle split on {bmask:#x}+{v}")
    return out


def _check_equiv7(item: Facts) -> list[str]:
    g = item.graph
    mm = item.maximum_matchings
    restricted = [item.unique_pm_on(m.saturated_bits) for m in mm]
    cycle_free = [is_uniquely_restricted(g, m) for m in mm]
    square_free = [_find_alternating_c4(g, m) is None for m in mm]
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
        return [f"the seven equivalents split: {preds}"]
    return []


def _check_c4free_corollary(item: Facts) -> list[str]:
    out = []
    if item.perfect_matching_count != 1:
        out.append("no unique perfect matching")
    if not item.greedoid:
        out.append("family is not a greedoid")
    return out


@dataclass(frozen=True)
class Rule:
    name: str
    describe: str
    needs_corona: bool
    check: Callable[[Facts], list[str]]


RULES: dict[str, Rule] = {
    r.name: r
    for r in [
        Rule("th1", "every local maximum stable set extends to a maximum stable set",
             False, _check_th1),
        Rule("th2", "forests produce greedoid families", False,
             _when(lambda item: is_forest(item.graph), _check_th2)),
        Rule("th3", "in very well-covered graphs, closed neighbourhoods of local "
             "maximum stable sets induce Koenig-Egervary graphs", False,
             _when(_vwc, _check_th3)),
        Rule("th4", "Koenig-Egervary: maximum matchings cross maximum stable sets; "
             "alpha-critical edges are mu-critical", False,
             _when(lambda item: item.koenig_egervary, _check_th4)),
        Rule("th7", "accessibility of the family implies exchange", False, _check_th7),
        Rule("th8", "very well-covered: greedoid iff unique perfect matching",
             False, _when(_vwc, _check_th8)),
        Rule("th9", "uniquely restricted iff alternating-cycle-free, for every matching",
             False, _check_th9),
        Rule("th10iv", "corona family is a greedoid iff every attached family is",
             True, _check_th10iv),
        Rule("th11", "no isolated vertices: very well-covered iff a perfect matching "
             "exists and all of them satisfy the neighbourhood property", False, _check_th11),
        Rule("th22", "bipartite: greedoid iff all maximum matchings uniquely restricted",
             False, _when(lambda item: is_bipartite(item.graph), _check_th22)),
        Rule("th88iii", "very well-covered iff well-covered Koenig-Egervary "
             "(no isolated vertices)", False,
             _when(lambda item: not has_isolated_vertices(item.graph), _check_th88iii)),
        Rule("th88iv", "corona is well-covered iff every attached graph is complete",
             True, _check_th88iv),
        Rule("lem1", "no perfect-matching edge lies on a chordless cycle of length "
             "3 or >= 5 in a very well-covered graph", False, _when(_vwc, _check_lem1)),
        Rule("lem2", "very well-covered: alternating cycle exists iff a chordless "
             "alternating square exists", False, _when(_vwc, _check_lem2)),
        Rule("lem3", "very well-covered membership shortcut |S| = |N(S)| agrees with "
             "the definition", False, _when(_vwc, _check_lem3)),
        Rule("lem65", "one-vertex growth test agrees with the definition", False,
             _when(_vwc, _check_lem65)),
        Rule("equiv7", "the seven uniquely-restricted equivalents agree", False,
             _when(_vwc, _check_equiv7)),
        Rule("c4free-corollary", "very well-covered and square-free forces a unique "
             "perfect matching and a greedoid", False,
             _when(lambda item: item.very_well_covered and is_c4_free(item.graph),
                   _check_c4free_corollary)),
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
    the corpus admits, and a name repeated is checked once, at its first
    position.  Every rule name, one given beside ``all`` too, is validated
    before the corpus is built; an empty rule list or an empty corpus is a
    usage error, since either would pass with nothing checked."""
    if not rule_names:
        raise UsageError("no rule to check")
    rule_names = list(dict.fromkeys(rule_names))
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
    for item in iter_corpus(spec):
        for rule, out in zip(rules, found):
            for detail in rule.check(item):
                out.append(Violation(rule.name, item.name, detail, serialize(item.graph)))
        checked += 1
    if not checked:
        raise UsageError("the corpus is empty: no graph to check")
    reports = tuple(
        RuleReport(name, checked, tuple(out)) for name, out in zip(rule_names, found)
    )
    return VerificationSummary(spec, reports)
