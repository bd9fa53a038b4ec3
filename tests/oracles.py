"""Definition-level brute force, independent of the library under test.

Everything here works on plain ``(n, edge list)`` pairs with Python sets,
enumerating subsets wholesale.  Deliberately naive: these are the oracles
the fast implementations are judged against, so they share no code with
the package.
"""

from itertools import combinations, permutations


def adj_sets(n, edges):
    a = [set() for _ in range(n)]
    for u, v in edges:
        a[u].add(v)
        a[v].add(u)
    return a


def all_subsets(vs):
    vs = sorted(vs)
    for k in range(len(vs) + 1):
        for c in combinations(vs, k):
            yield frozenset(c)


def is_stable(adj, s):
    return all(v not in adj[u] for u in s for v in s)


def nbhd(adj, s):
    out = set()
    for u in s:
        out |= adj[u]
    return out - set(s)


def closed(adj, s):
    return set(s) | nbhd(adj, s)


def alpha_of(adj, verts):
    return max(len(s) for s in all_subsets(verts) if is_stable(adj, s))


def alpha(n, edges):
    return alpha_of(adj_sets(n, edges), range(n))


def maximum_stable_sets(n, edges):
    adj = adj_sets(n, edges)
    a = alpha_of(adj, range(n))
    return {s for s in all_subsets(range(n)) if len(s) == a and is_stable(adj, s)}


def maximal_stable_sets(n, edges):
    adj = adj_sets(n, edges)
    out = set()
    for s in all_subsets(range(n)):
        if is_stable(adj, s) and all(v in s or adj[v] & s for v in range(n)):
            out.add(s)
    return out


def is_well_covered(n, edges):
    a = alpha(n, edges)
    return all(len(s) == a for s in maximal_stable_sets(n, edges))


def is_very_well_covered(n, edges):
    adj = adj_sets(n, edges)
    if any(not adj[v] for v in range(n)):
        return False
    return n == 2 * alpha(n, edges) and is_well_covered(n, edges)


def psi_member(n, edges, s):
    adj = adj_sets(n, edges)
    s = frozenset(s)
    if not is_stable(adj, s):
        return False
    return len(s) == alpha_of(adj, closed(adj, s))


def psi(n, edges):
    return {s for s in all_subsets(range(n)) if psi_member(n, edges, s)}


def all_matchings(edges):
    edges = sorted(tuple(sorted(e)) for e in edges)
    out = [frozenset()]

    def rec(i, cur, used):
        for j in range(i, len(edges)):
            u, v = edges[j]
            if u in used or v in used:
                continue
            nxt = cur | {edges[j]}
            out.append(nxt)
            rec(j + 1, nxt, used | {u, v})

    rec(0, frozenset(), set())
    return out


def mu(n, edges):
    return max(len(m) for m in all_matchings(edges))


def maximum_matchings(n, edges):
    k = mu(n, edges)
    return [m for m in all_matchings(edges) if len(m) == k]


def perfect_matchings(n, edges):
    return [m for m in all_matchings(edges) if 2 * len(m) == n]


def is_koenig_egervary(n, edges):
    return alpha(n, edges) + mu(n, edges) == n


def induced(n, edges, s):
    s = sorted(s)
    idx = {v: i for i, v in enumerate(s)}
    return len(s), [(idx[u], idx[v]) for u, v in edges if u in idx and v in idx]


def simple_cycles(n, edges):
    """All simple cycles as canonical vertex tuples."""
    adj = adj_sets(n, edges)
    cycles = set()

    def dfs(start, path, onpath):
        u = path[-1]
        for w in sorted(adj[u]):
            if w == start and len(path) >= 3:
                k = path.index(min(path))
                rot = path[k:] + path[:k]
                alt = [rot[0]] + rot[1:][::-1]
                cycles.add(tuple(min(rot, alt)))
            elif w > start and w not in onpath:
                dfs(start, path + [w], onpath | {w})

    for v in range(n):
        dfs(v, [v], {v})
    return sorted(cycles)


def girth(n, edges):
    cycles = simple_cycles(n, edges)
    return min(map(len, cycles)) if cycles else None


def alternating_cycles(n, edges, matching):
    """All matching-alternating simple cycles, as (vertex tuple, flag tuple)."""
    mset = {tuple(sorted(e)) for e in matching}
    out = []
    for cyc in simple_cycles(n, edges):
        k = len(cyc)
        if k % 2:
            continue
        flags = tuple(tuple(sorted((cyc[i], cyc[(i + 1) % k]))) in mset for i in range(k))
        if all(flags[i] != flags[(i + 1) % k] for i in range(k)):
            out.append((cyc, flags))
    return out


def cycle_has_chord(n, edges, cyc):
    adj = adj_sets(n, edges)
    k = len(cyc)
    return any(
        cyc[j] in adj[cyc[i]]
        for i in range(k)
        for j in range(i + 2, k)
        if not (i == 0 and j == k - 1)
    )


def has_chordless_square(n, edges):
    """Some cycle w-x-y-z-w has neither diagonal wy nor xz."""
    adj = adj_sets(n, edges)
    return any(
        x in adj[w] and y in adj[x] and z in adj[y] and w in adj[z]
        and y not in adj[w] and z not in adj[x]
        for w, x, y, z in permutations(range(n), 4)
    )


def induces_cycle(adj, s):
    """G[s] is a cycle: at least 3 vertices, each with two neighbours in s, all connected."""
    if len(s) < 3 or any(len(adj[v] & s) != 2 for v in s):
        return False
    seen, stack = set(), [min(s)]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(adj[v] & s)
    return seen == s


def on_chordless_cycle_not_square(n, edges, x, y):
    """Some vertex set holding x and y, of 3 or of at least 5 vertices, induces a cycle."""
    adj = adj_sets(n, edges)
    others = [v for v in range(n) if v not in (x, y)]
    return any(
        induces_cycle(adj, {x, y, *extra})
        for k in range(1, len(others) + 1)
        if k != 2
        for extra in combinations(others, k)
    )


def is_uniquely_restricted(n, edges, matching):
    """Straight from the definition: the only perfect matching on its vertices."""
    sat = {v for e in matching for v in e}
    ni, ei = induced(n, edges, sat)
    return len(perfect_matchings(ni, ei)) == 1


def is_greedoid(family):
    """Accessibility + exchange on a family of frozensets containing the empty set."""
    family = set(family) | {frozenset()}
    for x in family:
        if x and not any(x - {e} in family for e in x):
            return False
    for x in family:
        for y in family:
            if len(x) == len(y) + 1 and not any(y | {e} in family for e in x - y):
                return False
    return True


def property_p(n, edges, matching):
    adj = adj_sets(n, edges)
    for x, y in matching:
        if adj[x] & adj[y]:
            return False
        for v in adj[x] - {y}:
            for u in adj[y] - {x}:
                if u not in adj[v]:
                    return False
    return True


def is_bipartite(n, edges):
    adj = adj_sets(n, edges)
    color = {}
    for start in range(n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in color:
                    color[u] = color[v] ^ 1
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def edges_of(g):
    """Edge list of a library Graph, for feeding the oracles."""
    return [(u, v) for u, v in g.edges()]
