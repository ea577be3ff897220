"""Skeleton-to-CPDAG orientation: v-structures from sepsets, then closure.

Both passes give the same CPDAG under any relabelling of the variables.
Each unshielded triple i - k - j is decided by a majority vote over the
separating sets the skeleton's final search accepted, read from the map as
two counts: how many sets accepted (i, j), and how many of them hold k.  An
edge that receives opposite arrows stays undirected; Meek's rules run in
synchronous rounds over the present edges' marks, and opposite proposals
cancel.  Orientation is cheap next to CI testing and runs single-threaded.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .graphs import ARROW, NO_END, TAIL, Cpdag, Dag, GraphError, SepsetMap, SkeletonGraph


def _triple(x: int, k: int, y: int) -> tuple[int, int, int]:
    return (x, k, y) if x < y else (y, k, x)


def orient_v_structures(skel: SkeletonGraph, seps: SepsetMap) -> Cpdag:
    """Orient the unshielded triples i - k - j by the majority rule.

    The separating sets of (i, j) are those the skeleton's final search
    accepted, read as the triple's vote (``SepsetMap.votes``); a triple
    without one (a hand-built map, exact sets) falls back to its pair's
    single recorded set.  k in fewer than half of them makes i -> k <- j;
    in more than half, a non-collider; exactly half, or no set at all,
    makes the triple ambiguous.  All collider arrows are collected first,
    and an edge that receives both directions stays undirected, so the
    result does not depend on the order triples are visited in.  The
    returned CPDAG carries the ambiguous triples.  A map sized for another
    p than the skeleton's raises ``GraphError``.
    """
    if seps.p != skel.p:
        raise GraphError(f"sepset map covers {seps.p} variables, skeleton {skel.p}")
    edges = np.argwhere(np.triu(skel.adj, 1))
    present = edges[seps.set_sizes(edges[:, 0], edges[:, 1]) >= 0]
    if len(present):
        a, b = present[0].tolist()
        raise GraphError(
            f"sepset recorded for present edge {a} - {b}; "
            "sepsets must only cover removed edges"
        )
    triples = skel.unshielded_triples()
    inside, total = seps.votes(triples)
    colliders = triples[2 * inside < total]
    arrows = set(map(tuple, np.concatenate([colliders[:, :2], colliders[:, [2, 1]]]).tolist()))
    g = Cpdag.from_skeleton(skel)
    g.ambiguous = frozenset(map(tuple, triples[2 * inside == total].tolist()))
    for a, b in arrows:
        if (b, a) not in arrows:
            g.orient(a, b)
    return g


def _meek_proposals(g: Cpdag, rows: np.ndarray, cols: np.ndarray) -> set[tuple[int, int]]:
    """Every a -> b that one of Meek's rules R1-R4 derives from ``g``, whose
    edges' ends are at (rows[k], cols[k]), row-major."""
    here, back = g.mark[rows, cols], g.mark[cols, rows]

    def by_row(keep: np.ndarray) -> list[set[int]]:
        cuts = np.searchsorted(rows[keep], np.arange(1, g.p))
        return [set(c.tolist()) for c in np.split(cols[keep], cuts)]

    adj = by_row(here != NO_END)
    parents = by_row((here == TAIL) & (back == ARROW))
    undirected = by_row((here == TAIL) & (back == TAIL))
    return {(a, b) for a in range(g.p) for b in undirected[a]
            if _derives(a, b, adj, parents, undirected, g.ambiguous)}


def _derives(a: int, b: int, adj: list[set[int]], parents: list[set[int]],
             undirected: list[set[int]],
             amb: frozenset[tuple[int, int, int]]) -> bool:
    # R1: c -> a - b, c and b non-adjacent
    for c in parents[a]:
        if c not in adj[b] and _triple(c, a, b) not in amb:
            return True
    # R2: a -> c -> b
    if any(a in parents[c] for c in parents[b]):
        return True
    # R3: siblings c, d of a, both pointing at b, mutually non-adjacent
    for c, d in combinations(undirected[a] & parents[b], 2):
        if d not in adj[c] and _triple(c, a, d) not in amb:
            return True
    # R4: sibling c of a with a chain c -> d -> b, a adjacent to d, c and b
    # non-adjacent
    chains = parents[b] & adj[a]
    if chains:
        for c in undirected[a] - adj[b] - {b}:
            if _triple(c, a, b) not in amb and any(c in parents[d] for d in chains):
                return True
    return False


def meek_closure(g: Cpdag) -> Cpdag:
    """Apply Meek's four orientation rules until no rule fires.

    Each round evaluates R1-R4 for every undirected edge against the graph
    as the round found it, then applies all of the round's proposals
    together; an edge proposed in both directions is left alone.  No rule
    fires on the strength of one of ``g.ambiguous``'s triples: R1's and
    R4's c - a - b, R3's c - a - d.  The input is not modified.
    """
    out = g.copy()
    rows, cols = np.nonzero(out.mark)     # orienting changes marks, never edges
    while True:
        proposals = _meek_proposals(out, rows, cols)
        applied = [(a, b) for a, b in proposals if (b, a) not in proposals]
        if not applied:
            return out
        for a, b in applied:
            out.orient(a, b)


def cpdag_from_dag(dag: Dag) -> Cpdag:
    """The CPDAG of the DAG's Markov equivalence class.

    The DAG's skeleton with the arrows of its v-structures i -> k <- j (i
    and j not adjacent), closed under Meek's rules.
    """
    skel = dag.skeleton()
    g = Cpdag.from_skeleton(skel)
    for i, k, j in skel.unshielded_triples().tolist():
        if i in dag.parents[k] and j in dag.parents[k]:
            g.orient(i, k)
            g.orient(j, k)
    return meek_closure(g)
