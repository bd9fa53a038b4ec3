import pytest

import oracles
from lmss import (
    Graph,
    Matching,
    SetSystem,
    VertexSet,
    UsageError,
    accessibility_chain,
    check_accessibility,
    check_exchange,
    complete,
    cycle,
    has_unique_perfect_matching,
    is_greedoid,
    matching_from_chains,
    path,
    psi_enumerate,
    psi_is_greedoid,
    psi_member_oracle,
)
from lmss.facts import Facts
from lmss.fixtures import fixture
from lmss.theorems import _check_th7


def test_set_system_validation():
    with pytest.raises(UsageError):
        SetSystem(3, ())
    with pytest.raises(ValueError):
        SetSystem(2, (0, 8))
    s = SetSystem.from_sets(3, [(0,), (0, 1), ()])
    assert len(s) == 3 and 0 in s and 3 in s


def test_check_accessibility():
    f = psi_enumerate(fixture("fig1_H"))
    ok, bad = check_accessibility(f)
    g = fixture("fig1_H")
    assert not ok and bad == g.set_of("y", "t").bits

    ok, bad = check_accessibility(psi_enumerate(path(4)))
    assert ok and bad is None

    assert check_accessibility(SetSystem(3, (0,))) == (True, None)
    # singletons are accessible because the empty set is implicit
    assert check_accessibility(SetSystem(3, (1, 2))) == (True, None)


def test_check_exchange():
    assert check_exchange(psi_enumerate(path(4))) == (True, None)
    # the free system: all subsets of a 3-element ground set
    assert check_exchange(SetSystem(3, tuple(range(8)))) == (True, None)
    # {∅, {0}, {1,2}} fails exchange: {1,2} cannot donate to {0}
    bad = SetSystem(3, (0, 1, 6))
    ok, pair = check_exchange(bad)
    assert not ok and pair == (6, 1)


def _first_failing_pair(ys, xs, family):
    """The pair scan of one level, from the definition: x-outer, y-inner,
    ascending, the first pair where no v in X-Y puts Y+{v} in the family."""
    for x in xs:
        for y in ys:
            donors = [v for v in range(16) if x >> v & 1 and not y >> v & 1]
            if not any(y | 1 << v in family for v in donors):
                return x, y
    return None


def test_exchange_on_psi_of_the_star_k1_15():
    # psi(K1,15) is every set of leaves: 2^15 members whose middle levels
    # go to the subset lattice
    star = Graph.from_edges(16, [(0, leaf) for leaf in range(1, 16)])
    psi = psi_enumerate(star)
    assert len(psi) == 1 << 15 and check_exchange(psi) == (True, None)
    levels = {k: [m for m in psi.members if m.bit_count() == k] for k in (7, 8)}
    # one gap in a full lattice never breaks exchange: Y+{v} is missing for
    # one v at most, and only when X = Y+{v} is the gap itself
    gap = levels[8][100]
    assert check_exchange(SetSystem(16, tuple(m for m in psi.members if m != gap))) == (True, None)
    # dropping the eight 8-sets over one 7-set of leaves strands that 7-set
    stranded = levels[7][100]
    members = tuple(m for m in psi.members if m & stranded != stranded or m == stranded)
    xs = [m for m in members if m.bit_count() == 8]
    assert len(xs) == len(levels[8]) - 8
    pair = _first_failing_pair(levels[7], xs, set(members))
    assert pair is not None and check_exchange(SetSystem(16, members)) == (False, pair)


def test_is_greedoid_verdicts():
    assert is_greedoid(psi_enumerate(fixture("fig3_G")))
    assert not is_greedoid(psi_enumerate(fixture("fig3_H")))
    assert not is_greedoid(psi_enumerate(cycle(4)))


def test_is_greedoid_against_oracle(connected_upto_6):
    for g in connected_upto_6:
        want = oracles.is_greedoid(oracles.psi(g.n, oracles.edges_of(g)))
        assert is_greedoid(psi_enumerate(g)) == want


def test_accessibility_implies_greedoid(connected_upto_6):
    graphs = [*connected_upto_6, fixture("fig1_H"), path(4)]  # fig1_H: vacuous
    for i, g in enumerate(graphs):
        assert _check_th7(Facts(g, f"g{i}")) == []


def test_psi_is_greedoid_modes_and_certificates():
    f8 = fixture("fig8_G1")
    v = psi_is_greedoid(f8)
    assert v.holds and v.mode == "fast"
    assert v.unique_matching == has_unique_perfect_matching(f8)[1]
    assert is_greedoid(psi_enumerate(f8))  # the brute-force verdict agrees
    v = psi_is_greedoid(path(3))  # a forest, not very well-covered
    assert v.holds and v.mode == "bruteforce"
    assert v.unique_matching is None  # positive brute-force verdicts carry no certificate

    v = psi_is_greedoid(fixture("fig8_G2"))
    assert not v.holds and v.alternating_cycle is not None

    v = psi_is_greedoid(fixture("fig8_G3"))
    assert not v.holds and v.mode == "fast" and v.alternating_cycle is not None

    f10 = fixture("fig10_G")
    v = psi_is_greedoid(f10)
    assert not v.holds and v.mode == "bruteforce"
    assert v.inaccessible_member is not None
    # the certificate really is inaccessible
    s = v.inaccessible_member
    assert psi_member_oracle(f10, s)
    assert not any(
        psi_member_oracle(f10, VertexSet(f10, s.bits ^ (1 << x))) for x in s.vertices()
    )


def test_fast_equals_bruteforce_on_vwc_fixtures():
    for name in ("fig3_G", "fig6_G1", "fig7_G1", "fig7_G2", "fig7_G3",
                  "fig8_G1", "fig8_G2", "fig8_G3"):
        g = fixture(name)
        v = psi_is_greedoid(g)
        assert v.mode == "fast" and v.holds == is_greedoid(psi_enumerate(g))


def test_accessibility_chain():
    h = fixture("fig1_H")
    assert accessibility_chain(h, h.set_of("y", "t")) is None

    p4 = path(4)
    chain = accessibility_chain(p4, p4.set_of(0, 2))
    assert chain is not None and chain.vertices == (0, 2)
    for prefix in chain.prefixes():
        assert psi_member_oracle(p4, prefix)

    g = fixture("fig8_G1")
    for s in psi_enumerate(g):
        if len(s) == 0:
            continue
        chain = accessibility_chain(g, s)
        assert chain is not None
        assert set(chain.vertices) == set(s.vertices())
        for prefix in chain.prefixes():
            assert psi_member_oracle(g, prefix)

    # a pendant vertex gives a single-step chain
    f2 = fixture("fig2_G")
    chain = accessibility_chain(f2, f2.set_of("a"))
    assert chain.vertices == (f2.vertex("a"),)

    # {a,d,f} is locally maximum, but no full chain reaches it:
    # its only sub-members are {a} and {d,f}, whose cardinalities skip
    assert accessibility_chain(f2, f2.set_of("a", "d", "f")) is None

    with pytest.raises(UsageError):
        accessibility_chain(f2, f2.set_of("b"))


def test_chain_is_lexicographically_least():
    g = fixture("fig8_G1")
    s = g.set_of("r1", "p1", "q1", "p3")
    chain = accessibility_chain(g, s)
    # re-derive the least chain by independent backtracking over sorted vertices
    def least_chain(prefix, left):
        if not left:
            return ()
        for v in sorted(left):
            nxt = prefix | {v}
            if oracles.psi_member(g.n, oracles.edges_of(g), nxt):
                rest = least_chain(nxt, left - {v})
                if rest is not None:
                    return (v,) + rest
        return None

    assert chain.vertices == least_chain(frozenset(), set(s.vertices()))


def test_matching_from_chains():
    for name in ("fig8_G1", "fig3_G", "fig6_G1"):
        g = fixture(name)
        assert matching_from_chains(g) == has_unique_perfect_matching(g)[1]

    k2 = complete(2)
    assert matching_from_chains(k2) == Matching.of(k2, (0, 1))

    with pytest.raises(UsageError):
        matching_from_chains(cycle(4))  # two perfect matchings
    with pytest.raises(UsageError):
        matching_from_chains(fixture("fig10_G"))  # not very well-covered


def _count_walks_and_alpha(patch_lmss):
    import lmss.stability

    calls = []
    for name in ("_stable_sets", "alpha"):
        original = getattr(lmss.stability, name)
        patch_lmss(original, lambda g, *rest, name=name, original=original:
                   calls.append(name) or original(g, *rest))
    return calls


def test_psi_is_greedoid_takes_one_stable_set_walk(patch_lmss):
    # fig9_G1 (n = 6, alpha = 3) is not well-covered, so very-well-coveredness
    # takes the walk and the brute-force route reads psi off the same one
    calls = _count_walks_and_alpha(patch_lmss)
    verdict = psi_is_greedoid(fixture("fig9_G1"))
    assert verdict.mode == "bruteforce"
    assert calls.count("_stable_sets") == 1


def test_matching_from_chains_takes_one_walk_and_one_alpha(patch_lmss):
    # very-well-coveredness and the maximum stable set read one walk and alpha
    calls = _count_walks_and_alpha(patch_lmss)
    g = fixture("fig8_G1")
    assert matching_from_chains(g) == has_unique_perfect_matching(g)[1]
    assert sorted(calls) == ["_stable_sets", "alpha"]
