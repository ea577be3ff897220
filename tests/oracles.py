"""Independent verification oracles used across the test suite.

Everything here is deliberately implemented differently from the library:
d-separation by exhaustive path enumeration (the library moralizes),
equivalence classes by enumerating DAG orientations, partial correlation by
regressing out the conditioning set from raw data, total effects by directed
path products, and high-precision tail probabilities via mpmath.  Each
statistical test also has a bit-level reference, the library's former scalar
code, which its kernel must match bit for bit: one submatrix inversion per
call for the Gaussian tests, one full contingency table per call for the
discrete ones (which are also checked by dict counting over the observed
strata only).  The graph steps keep theirs too: unshielded triples by a
loop over each vertex's neighbour pairs, and Meek proposals read from the
whole mark matrix.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations, product

import mpmath
import numpy as np
from scipy.special import gammaincc

from stablepc import (Cpdag, Dag, DegenerateConditioningError, DiscreteSuffStat,
                      GaussianSuffStat, GraphError, SkeletonGraph)
from stablepc.graphs import ARROW, NO_END, TAIL
from stablepc.orientation import _derives

mpmath.mp.dps = 50


def random_dag(p: int, edge_prob: float, rng: np.random.Generator,
               max_edges: int | None = None) -> Dag:
    """Random DAG over a random topological order; optionally rejection-
    sampled to keep the edge count enumerable."""
    while True:
        order = [int(v) for v in rng.permutation(p)]
        parents: list[list[int]] = [[] for _ in range(p)]
        count = 0
        for a in range(p):
            for b in range(a + 1, p):
                if rng.random() < edge_prob:
                    parents[order[b]].append(order[a])
                    count += 1
        if max_edges is None or count <= max_edges:
            return Dag(p, parents)


def dsep_paths(dag: Dag, i: int, j: int, s) -> bool:
    """Path-enumeration d-separation: every simple path must be blocked."""
    s = frozenset(s)
    adj: list[set[int]] = [set() for _ in range(dag.p)]
    for u, v in dag.edges():
        adj[u].add(v)
        adj[v].add(u)
    desc = {v: dag.descendants(v) for v in range(dag.p)}

    def blocked(path: list[int]) -> bool:
        for k in range(1, len(path) - 1):
            prev, mid, nxt = path[k - 1], path[k], path[k + 1]
            collider = prev in dag.parents[mid] and nxt in dag.parents[mid]
            if collider:
                if mid not in s and not (desc[mid] & s):
                    return True
            else:
                if mid in s:
                    return True
        return False

    stack: list[list[int]] = [[i]]
    while stack:
        path = stack.pop()
        last = path[-1]
        for nxt in adj[last]:
            if nxt == j:
                if not blocked(path + [j]):
                    return False
            elif nxt not in path:
                stack.append(path + [nxt])
    return True


def true_skeleton_edges(dag: Dag) -> set[tuple[int, int]]:
    """Pairs with no d-separating subset of the remaining variables."""
    edges = set()
    rest = set(range(dag.p))
    for i in range(dag.p):
        for j in range(i + 1, dag.p):
            others = sorted(rest - {i, j})
            separated = any(
                dsep_paths(dag, i, j, sub)
                for size in range(len(others) + 1)
                for sub in combinations(others, size)
            )
            if not separated:
                edges.add((i, j))
    return edges


def _vstructures(parent_sets: list[set[int]], adjacent) -> frozenset:
    out = set()
    p = len(parent_sets)
    for k in range(p):
        ps = sorted(parent_sets[k])
        for a in range(len(ps)):
            for b in range(a + 1, len(ps)):
                if not adjacent(ps[a], ps[b]):
                    out.add((ps[a], k, ps[b]))
    return frozenset(out)


def equivalence_class_cpdag(dag: Dag) -> Cpdag:
    """CPDAG by brute force: orient the skeleton every possible way, keep
    acyclic orientations with the DAG's v-structures, and mark an edge as
    directed only when every member agrees."""
    edges = sorted(dag.skeleton().edges())
    adjacent_pairs = set(edges)

    def adjacent(a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in adjacent_pairs

    base_parents = [set(ps) for ps in dag.parents]
    base_vs = _vstructures(base_parents, adjacent)

    members: list[list[set[int]]] = []
    for bits in product((0, 1), repeat=len(edges)):
        parent_sets: list[set[int]] = [set() for _ in range(dag.p)]
        for (i, j), bit in zip(edges, bits):
            if bit:
                parent_sets[j].add(i)       # i -> j
            else:
                parent_sets[i].add(j)       # j -> i
        if not _acyclic(parent_sets):
            continue
        if _vstructures(parent_sets, adjacent) != base_vs:
            continue
        members.append(parent_sets)
    assert members, "equivalence class cannot be empty"

    mark = np.zeros((dag.p, dag.p), dtype=np.int8)
    for i, j in edges:
        forward = all(i in m[j] for m in members)
        backward = all(j in m[i] for m in members)
        if forward:
            mark[i, j], mark[j, i] = ARROW, TAIL
        elif backward:
            mark[j, i], mark[i, j] = ARROW, TAIL
        else:
            mark[i, j] = mark[j, i] = TAIL
    return Cpdag(dag.p, mark)


def _acyclic(parent_sets: list[set[int]]) -> bool:
    p = len(parent_sets)
    indegree = [len(ps) for ps in parent_sets]
    children: list[list[int]] = [[] for _ in range(p)]
    for v in range(p):
        for u in parent_sets[v]:
            children[u].append(v)
    queue = [v for v in range(p) if indegree[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for c in children[v]:
            indegree[c] -= 1
            if indegree[c] == 0:
                queue.append(c)
    return seen == p


def validate_cpdag(g: Cpdag) -> None:
    """Check mark consistency, no bidirected edges, acyclic directed part;
    GraphError naming the first fault."""
    for i in range(g.p):
        if g.mark[i, i] != NO_END:
            raise GraphError(f"self mark at {i}")
        for j in range(i + 1, g.p):
            a, b = g.mark[i, j], g.mark[j, i]
            if (a == NO_END) != (b == NO_END):
                raise GraphError(f"half-present edge between {i} and {j}")
            if a == ARROW and b == ARROW:
                raise GraphError(f"bidirected edge between {i} and {j}")
    parent_sets: list[set[int]] = [set() for _ in range(g.p)]
    for i, j in g.directed_edges():
        parent_sets[j].add(i)
    if not _acyclic(parent_sets):
        raise GraphError("directed part has a cycle")


def unshielded_triples_reference(skel: SkeletonGraph) -> list[tuple[int, int, int]]:
    """Every (i, k, j), i < j, with i - k - j and i, j not adjacent, sorted:
    the library's former per-vertex loop over neighbour pairs."""
    out = []
    for k in range(skel.p):
        for i, j in combinations(np.flatnonzero(skel.adj[k]).tolist(), 2):
            if not skel.adj[i, j]:
                out.append((i, k, j))
    return sorted(out)


def meek_proposals_dense(g: Cpdag) -> set[tuple[int, int]]:
    """Every a -> b that one of Meek's rules R1-R4 derives from ``g``: the
    library's former round, which compares the whole mark matrix."""
    tail_back = g.mark.T == TAIL
    directed = (g.mark == ARROW) & tail_back
    adj = [set(np.flatnonzero(row).tolist()) for row in g.mark]
    parents = [set(np.flatnonzero(col).tolist()) for col in directed.T]
    undirected = [set(np.flatnonzero(row).tolist())
                  for row in (g.mark == TAIL) & tail_back]
    return {(a, b) for a in range(g.p) for b in undirected[a]
            if _derives(a, b, adj, parents, undirected, g.ambiguous)}


def pcor_residuals(data: np.ndarray, i: int, j: int, s) -> float:
    """Partial correlation as the Pearson correlation of regression residuals."""
    s = sorted(s)
    yi = data[:, i].astype(float)
    yj = data[:, j].astype(float)
    if s:
        z = np.column_stack([np.ones(len(data)), data[:, s]])
        yi = yi - z @ np.linalg.lstsq(z, yi, rcond=None)[0]
        yj = yj - z @ np.linalg.lstsq(z, yj, rcond=None)[0]
    return float(np.corrcoef(yi, yj)[0, 1])


def total_effect(dag: Dag, weights: dict[tuple[int, int], float],
                 x: int, y: int) -> float:
    """Sum over all directed paths from x to y of the edge-weight products."""
    memo: dict[int, float] = {y: 1.0}

    def from_node(u: int) -> float:
        if u in memo:
            return memo[u]
        acc = 0.0
        for v in dag.children(u):
            acc += weights[(u, v)] * from_node(v)
        memo[u] = acc
        return acc

    if x == y:
        return 1.0
    return from_node(x)


def fisher_p_highprec(r: float, n: int, s_size: int) -> float:
    """Fisher z tail probability in 50-digit arithmetic."""
    effective = n - s_size - 3
    if effective <= 0:
        return 1.0
    clamp = mpmath.mpf(1) - mpmath.mpf(10) ** -12
    rr = mpmath.mpf(r)
    rr = mpmath.sign(rr) * min(abs(rr), clamp)
    z = mpmath.sqrt(effective) * mpmath.atanh(rr)
    return float(mpmath.erfc(abs(z) / mpmath.sqrt(2)))


def chi2_sf_highprec(x: float, dof: float) -> float:
    """Chi-squared upper tail in 50-digit arithmetic."""
    if x <= 0:
        return 1.0
    return float(mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2,
                                 mpmath.inf, regularized=True))


def mi_g_p_highprec(r: float, n: int) -> float:
    g = -mpmath.mpf(n) * mpmath.log(1 - mpmath.mpf(r) ** 2)
    return float(mpmath.gammainc(mpmath.mpf(1) / 2, g / 2, mpmath.inf,
                                 regularized=True))


def normal_sf(z: float) -> float:
    """Upper tail of the standard normal, via erfc."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def chi2_sf(x: float, dof: float) -> float:
    """Upper tail of chi-squared, via the regularized incomplete gamma."""
    if dof <= 0:
        return 1.0
    if x <= 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    return float(gammaincc(dof / 2.0, x / 2.0))


def partial_correlation_reference(stat: GaussianSuffStat, i: int, j: int, s) -> float:
    """Partial correlation from one inversion of the principal submatrix
    over [min(i, j), max(i, j), *sorted(s)]; raises
    DegenerateConditioningError on a singular one."""
    s = tuple(s)
    if not s:
        return float(stat.corr[i, j])
    idx = [min(i, j), max(i, j), *sorted(s)]
    sub = stat.corr[np.ix_(idx, idx)]
    try:
        prec = np.linalg.inv(sub)
    except np.linalg.LinAlgError:
        raise DegenerateConditioningError(idx) from None
    denom = prec[0, 0] * prec[1, 1]
    if not np.isfinite(prec).all() or denom <= 0:
        raise DegenerateConditioningError(idx)
    r = -prec[0, 1] / math.sqrt(denom)
    return min(1.0, max(-1.0, float(r)))


def gaussian_reference(stat: GaussianSuffStat, i: int, j: int, s,
                       mi: bool) -> tuple[float, float, float]:
    """(statistic, p, dof) of the Fisher z test (the Gaussian MI test if
    ``mi``) from one partial correlation; raises
    DegenerateConditioningError on a singular set."""
    r = partial_correlation_reference(stat, i, j, s)
    if mi:
        rem = 1.0 - r * r
        if rem <= 0.0:
            return math.inf, 0.0, 1.0
        g = -stat.n * math.log(rem)
        return g, chi2_sf(g, 1.0), 1.0
    effective = stat.n - len(tuple(s)) - 3
    if effective <= 0:
        return 0.0, 1.0, 0.0
    clamped = math.copysign(min(abs(r), 1.0 - 1e-12), r)
    z = math.sqrt(effective) * math.atanh(clamped)
    return z, 2.0 * normal_sf(abs(z)), 0.0


def sample_binary_network(dag: Dag, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a binary Bayes net with random per-configuration probabilities."""
    codes = np.zeros((n, dag.p), dtype=np.int64)
    order = dag.topological_order()
    assert order is not None
    for v in order:
        ps = dag.parents[v]
        n_configs = 2 ** len(ps)
        probs = rng.uniform(0.15, 0.85, size=n_configs)
        if ps:
            config = np.zeros(n, dtype=np.int64)
            for u in ps:
                config = config * 2 + codes[:, u]
            theta = probs[config]
        else:
            theta = np.full(n, probs[0])
        codes[:, v] = (rng.random(n) < theta).astype(np.int64)
    return codes


def contingency_table(stat: DiscreteSuffStat, i: int, j: int,
                      s: tuple[int, ...]) -> tuple[np.ndarray, float]:
    """Per-stratum i-by-j contingency tables over the full arity product of
    s, strata keyed in the order s is given, and the dof."""
    i, j = (i, j) if i < j else (j, i)
    codes = np.asarray(stat.codes, dtype=np.int64)
    ai, aj = stat.arities[i], stat.arities[j]
    strata = 1
    key = np.zeros(stat.n, dtype=np.int64)
    for k in s:
        key = key * stat.arities[k] + codes[:, k]
        strata *= stat.arities[k]
    flat = (key * ai + codes[:, i]) * aj + codes[:, j]
    counts = np.bincount(flat, minlength=strata * ai * aj).reshape(strata, ai, aj)
    dof = float((ai - 1) * (aj - 1) * strata)
    return counts, dof


def expected_counts(counts: np.ndarray) -> np.ndarray:
    """Independence-model expected counts per stratum; empty strata are zeroed."""
    totals = counts.sum(axis=(1, 2))
    rows = counts.sum(axis=2)
    cols = counts.sum(axis=1)
    safe = np.where(totals > 0, totals, 1)
    expected = rows[:, :, None] * cols[:, None, :] / safe[:, None, None].astype(float)
    expected[totals == 0] = 0.0
    return expected


def discrete_table_reference(stat: DiscreteSuffStat, i: int, j: int, s,
                             pearson: bool) -> tuple[float, float, float]:
    """(statistic, p, dof) of the G-squared (Pearson chi-squared if
    ``pearson``) test from one full table, s taken in ascending order."""
    counts, dof = contingency_table(stat, i, j, tuple(sorted(s)))
    expected = expected_counts(counts)
    if pearson:
        positive = expected > 0
        x = float(np.sum((counts[positive] - expected[positive]) ** 2
                         / expected[positive]))
    else:
        observed = counts > 0
        x = 2.0 * float(np.sum(counts[observed]
                               * np.log(counts[observed] / expected[observed])))
    if dof == 0:
        return x, 1.0, 0.0
    return x, chi2_sf(x, dof), dof


def g_squared_dict(codes: np.ndarray, arities, i: int, j: int, s) -> tuple[float, int]:
    """(G-squared, dof) by counting the observed (stratum, c_i, c_j) cells in
    dicts; the dof is an exact int over the full arity product of s."""
    strata = [tuple(row) for row in np.asarray(codes)[:, list(s)].tolist()]
    ci = np.asarray(codes)[:, i].tolist()
    cj = np.asarray(codes)[:, j].tolist()
    cells = Counter(zip(strata, ci, cj))
    by_i = Counter(zip(strata, ci))
    by_j = Counter(zip(strata, cj))
    totals = Counter(strata)
    g = 2.0 * math.fsum(c * math.log(c * totals[t] / (by_i[t, a] * by_j[t, b]))
                        for (t, a, b), c in cells.items())
    dof = (arities[i] - 1) * (arities[j] - 1) * math.prod(arities[k] for k in s)
    return g, dof


def pc_simple_reference(test, p: int, target: int, alpha: float,
                        max_level: int | None = None
                        ) -> tuple[tuple[int, ...], dict[int, float]]:
    """PC-simple from its definition, one scalar test call at a time.

    At each level every candidate x of the level-start pool is tested
    against the target given the ``level``-subsets of the pool minus x, in
    lexicographic order, the pair passed in ascending order.  The first
    p > alpha removes x once the level is over; a degenerate set counts as
    dependence.  The search stops when the level reaches the pool size or
    passes ``max_level``.  Returns the members and each member's largest
    non-NaN p-value (0.0 when it has none).
    """
    pool = [v for v in range(p) if v != target]
    seen: dict[int, list[float]] = {v: [] for v in pool}
    level = 0
    while level < len(pool) and (max_level is None or level <= max_level):
        removed = set()
        for x in pool:
            pair = (min(x, target), max(x, target))
            for s in combinations([v for v in pool if v != x], level):
                try:
                    value = test(*pair, s).p_value
                except DegenerateConditioningError:
                    continue
                if value > alpha:
                    removed.add(x)
                    break
                seen[x].append(value)
        pool = [v for v in pool if v not in removed]
        level += 1
    return tuple(pool), {v: max(seen[v], default=0.0) for v in pool}
