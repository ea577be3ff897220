"""Graph containers: undirected skeletons, CPDAGs, separating-set maps, DAGs.

Adjacency is stored dense (numpy matrices) because variable counts stay in
the low thousands and the level-synchronized algorithm wants cheap
whole-graph snapshots; each edge or neighbour query reads one mask of the
matrix, and the unshielded triples are enumerated in one place.
Separating sets are not: the map keeps one table per set size, pair codes
ascending, looked up by binary search, and each pair is written once.  Each
container is sized by the variable count p it is built with.
"""

from __future__ import annotations

import heapq
import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

# Edge-mark codes for Cpdag.mark[i, j], read as the mark at j's end of the
# edge between i and j.
NO_END = 0
TAIL = 1
ARROW = 2
# Entries per piece of SepsetMap.json_chunks: bounds the strings alive at once.
JSON_CHUNK_ENTRIES = 1 << 15


class GraphError(ValueError):
    pass


def _check_indices(p: int, low: int, high: int) -> None:
    """GraphError unless the indices from ``low`` to ``high`` lie in [0, p)."""
    if low < 0 or high >= p:
        raise GraphError(f"variable index {low if low < 0 else high} out of range [0, {p})")


def lookup(keys: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row of each ``wanted`` key in the ascending ``keys``, and
    whether it is there."""
    rows = np.searchsorted(keys, wanted)
    found = rows < len(keys)
    found[found] = keys[rows[found]] == wanted[found]
    return rows, found


def _pairs(mask: np.ndarray) -> list[tuple[int, int]]:
    """The (i, j) where ``mask`` holds, in row-major order."""
    return list(map(tuple, np.argwhere(mask).tolist()))


class SkeletonGraph:
    """Symmetric boolean adjacency over p variables, no self loops."""

    def __init__(self, p: int, adj: np.ndarray | None = None):
        if p < 2:
            raise GraphError(f"need at least two variables, got {p}")
        if adj is None:
            adj = np.zeros((p, p), dtype=bool)
        else:
            adj = np.array(adj, dtype=bool)
            if adj.shape != (p, p):
                raise GraphError("adjacency shape mismatch")
            if not np.array_equal(adj, adj.T) or adj.diagonal().any():
                raise GraphError("adjacency must be symmetric with a false diagonal")
        self.p = p
        self.adj = adj

    def unshielded_triples(self) -> np.ndarray:
        """Rows (i, k, j), ascending, of the paths i - k - j with i < j not
        adjacent; built per vertex, so no scratch exceeds a neighbourhood squared."""
        found = [np.empty((0, 3), dtype=np.int64)]
        for k in np.flatnonzero(self.adj.sum(axis=1) >= 2).tolist():
            nb = np.flatnonzero(self.adj[k])
            a, b = np.nonzero(~(self.adj[nb][:, nb] | np.tri(len(nb), dtype=bool)))
            found.append(np.column_stack([nb[a], np.full(len(a), k), nb[b]]))
        triples = np.concatenate(found)
        return triples[np.lexsort(triples.T[::-1])]

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (i, j) with i < j, in ascending order."""
        return _pairs(np.triu(self.adj, 1))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SkeletonGraph)
                and self.p == other.p
                and np.array_equal(self.adj, other.adj))

    def to_json_dict(self) -> dict:
        return {"p": self.p, "edges": [[i, j, "--"] for i, j in self.edges()]}


def complete_graph(p: int) -> SkeletonGraph:
    """Fully connected undirected graph, the skeleton search's start state."""
    if p < 2:
        raise GraphError(f"need at least two variables, got {p}")
    adj = np.ones((p, p), dtype=bool)
    np.fill_diagonal(adj, False)
    return SkeletonGraph(p, adj)


class Cpdag:
    """Partially directed graph over p variables with tail/arrow edge marks.

    ``mark[i, j]`` is the mark at j's end: (TAIL, TAIL) encodes i -- j,
    (TAIL at i, ARROW at j) encodes i -> j.  Bidirected edges are invalid.

    ``ambiguous`` holds the unshielded triples (i, k, j), i < j, whose
    separating sets did not settle whether k is a collider; Meek's rules
    never fire on the strength of one.  ``copy`` keeps them and equality
    ignores them: they qualify the marks but are not part of the graph.
    """

    def __init__(self, p: int, mark: np.ndarray | None = None,
                 ambiguous: Iterable[tuple[int, int, int]] = ()):
        if p < 1:
            raise GraphError("need at least one variable")
        if mark is None:
            mark = np.zeros((p, p), dtype=np.int8)
        else:
            mark = np.array(mark, dtype=np.int8)
            if mark.shape != (p, p):
                raise GraphError("mark shape mismatch")
        self.p = p
        self.mark = mark
        self.ambiguous = frozenset(ambiguous)

    @classmethod
    def from_skeleton(cls, skel: SkeletonGraph) -> "Cpdag":
        mark = np.where(skel.adj, np.int8(TAIL), np.int8(NO_END))
        return cls(skel.p, mark)

    def copy(self) -> "Cpdag":
        return Cpdag(self.p, self.mark, self.ambiguous)

    def has_edge(self, i: int, j: int) -> bool:
        return self.mark[i, j] != NO_END

    def orient(self, i: int, j: int) -> None:
        """Set i -> j, overwriting any previous marks on this edge."""
        if not self.has_edge(i, j):
            raise GraphError(f"no edge between {i} and {j}")
        self.mark[i, j] = ARROW
        self.mark[j, i] = TAIL

    def parents(self, v: int) -> list[int]:
        """Nodes u with u -> v."""
        return np.flatnonzero((self.mark[:, v] == ARROW) & (self.mark[v] == TAIL)).tolist()

    def undirected_neighbors(self, v: int) -> list[int]:
        return np.flatnonzero((self.mark[v] == TAIL) & (self.mark[:, v] == TAIL)).tolist()

    def directed_edges(self) -> list[tuple[int, int]]:
        return _pairs((self.mark == ARROW) & (self.mark.T == TAIL))

    def undirected_edges(self) -> list[tuple[int, int]]:
        return _pairs(np.triu((self.mark == TAIL) & (self.mark.T == TAIL), 1))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Cpdag)
                and self.p == other.p
                and np.array_equal(self.mark, other.mark))

    def edge_records(self) -> list[list]:
        """Sorted edge triples [i, j, "--"|"->"], undirected with i < j: a
        pair has one record at most, so row-major order is sorted order."""
        tails = self.mark.T == TAIL
        arrows = (self.mark == ARROW) & tails
        i, j = np.nonzero(arrows | np.triu((self.mark == TAIL) & tails, 1))
        return [[a, b, ("--", "->")[arrow]]
                for a, b, arrow in zip(i.tolist(), j.tolist(), arrows[i, j].tolist())]

    def to_json_dict(self) -> dict:
        return {"p": self.p, "edges": self.edge_records()}


class SepsetMap:
    """Separating sets recorded for removed edges of p variables, by pair.

    Each removed edge has one first-found set, the one that removed it
    (``set_sizes``, ``to_json_dict``), written once.  Each unshielded
    triple i - k - j may also carry the vote of the separating-set search
    on the final skeleton: how many sets accepted (i, j), and how many of
    them hold k (``set_votes``, one call, and ``votes``).  Orientation reads
    the vote where there is one.  Equality compares both records.

    Both live in arrays, with no object per pair, and take memory in
    proportion to what is recorded.  The first-found sets are one table per
    set size: the pair codes ``i << 32 | j`` (i < j) ascending beside an
    (m, size) array of their sets.  The skeleton removes an edge at one
    level, with a set of that level's size, so each level's removals make
    one table.  The votes are the codes of the voted pairs, ascending, and
    per triple a key ``rank * p + k`` (rank: its pair's place among those
    codes) ascending beside the two counts.  Reads look up by
    ``searchsorted``.  Both records reject an index outside [0, p), and p
    is at most 2**31, so a code is unique and a set fits int32.
    """

    def __init__(self, p: int) -> None:
        if not 2 <= p <= 2**31:
            raise GraphError(f"need between 2 and 2**31 variables, got {p}")
        self.p = p
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # pair codes, triple keys, inside and total counts
        self._votes = tuple(np.empty(0, dtype=np.int64) for _ in range(4))

    def _find(self, low: np.ndarray,
              high: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(sets, rows, found) per table: the row of each pair low[k] < high[k]
        in that table, where ``found[k]``.  A pair outside [0, p) is found
        nowhere: a negative index makes a negative code."""
        wanted = (low.astype(np.int64) << 32) | high
        for codes, sets in self._tables.values():
            rows, found = lookup(codes, wanted)
            yield sets, rows, found & (high < self.p)

    def set_many(self, pairs: np.ndarray, sepsets: np.ndarray) -> None:
        """Record one set per row: ``sepsets[k]`` for the pair ``pairs[k]``.

        ``pairs`` is an (m, 2) array of distinct pairs and ``sepsets`` an
        (m, size) array, one level's removals.  A pair is recorded once: one
        named twice in the call, or already in the map, raises
        ``GraphError`` and leaves the map as it was, as an index outside
        [0, p) does.
        """
        pairs, sepsets = np.asarray(pairs), np.asarray(sepsets)
        if (pairs.ndim != 2 or pairs.shape[1] != 2 or sepsets.ndim != 2
                or len(sepsets) != len(pairs)):
            raise GraphError("set_many needs an (m, 2) pair array and an "
                             "(m, size) set array")
        if not len(pairs):
            return
        low, high = pairs.min(axis=1), pairs.max(axis=1)
        if (low == high).any():
            raise GraphError("sepset pair must be two distinct variables")
        _check_indices(self.p, min(low.min(), sepsets.min(initial=0)),
                       max(high.max(), sepsets.max(initial=0)))
        if (sepsets == low[:, None]).any() or (sepsets == high[:, None]).any():
            raise GraphError("separating set must exclude the pair itself")
        if any(found.any() for _, _, found in self._find(low, high)):
            raise GraphError("set_many names a pair the map already holds")
        codes = low.astype(np.int64)
        codes <<= 32
        codes |= high
        del low, high
        sepsets = sepsets.astype(np.int32)
        if not (codes[1:] > codes[:-1]).all():
            order = np.argsort(codes)
            codes, sepsets = codes[order], sepsets[order]
            if not (codes[1:] > codes[:-1]).all():
                raise GraphError("set_many names a pair twice")
        size = sepsets.shape[1]
        if size in self._tables:
            held, sets = self._tables[size]
            at = np.searchsorted(held, codes)
            codes, sepsets = np.insert(held, at, codes), np.insert(sets, at, sepsets, axis=0)
        self._tables[size] = codes, sepsets

    def set_sizes(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The size of each pair (i[k], j[k])'s set, -1 where it has none."""
        out = np.full(len(i), -1, dtype=np.int64)
        for sets, _, found in self._find(np.minimum(i, j), np.maximum(i, j)):
            out[found] = sets.shape[1]
        return out

    def set_votes(self, triples: np.ndarray, inside: np.ndarray,
                  total: np.ndarray) -> None:
        """Record the search's vote on each triple ``triples[k]`` = (i, k, j),
        i < j: ``total[k]`` sets accepted (i, j), ``inside[k]`` of them hold k.

        The votes are written in one call, each triple once: a triple named
        twice, or a map that already holds votes, raises ``GraphError`` and
        leaves the map as it was, as do an index outside [0, p), i >= j, a
        middle equal to an end, an ``inside`` outside [0, total] and arrays
        of different lengths.
        """
        triples, inside, total = (np.asarray(a, dtype=np.int64)
                                  for a in (triples, inside, total))
        if (triples.ndim != 2 or triples.shape[1] != 3
                or inside.shape != (len(triples),) or total.shape != inside.shape):
            raise GraphError("set_votes needs an (m, 3) triple array and two "
                             "length-m count arrays")
        i, k, j = triples.T
        _check_indices(self.p, triples.min(initial=0), triples.max(initial=0))
        if (i >= j).any():
            raise GraphError("a voted triple (i, k, j) needs i < j")
        if ((k == i) | (k == j)).any():
            raise GraphError("a voted triple's middle must differ from its ends")
        if ((inside < 0) | (inside > total)).any():
            raise GraphError("a triple's inside count must lie in [0, total]")
        codes = (i << 32) | j
        order = np.lexsort((k, codes))
        codes, k = codes[order], k[order]
        if ((codes[1:] == codes[:-1]) & (k[1:] == k[:-1])).any():
            raise GraphError("set_votes names a triple twice")
        if len(self._votes[1]):
            raise GraphError("the map already holds votes")
        pairs, rank = np.unique(codes, return_inverse=True)
        self._votes = pairs, rank * self.p + k, inside[order], total[order]

    def votes(self, triples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(inside, total) per triple (i, k, j): its recorded vote; else the
        one vote of the pair's first-found set, total 1 and inside whether
        the set holds k; else (0, 0).  An index outside [0, p) raises
        ``GraphError``."""
        triples = np.asarray(triples, dtype=np.int64)
        _check_indices(self.p, triples.min(initial=0), triples.max(initial=0))
        i, k, j = triples.T
        low, high = np.minimum(i, j), np.maximum(i, j)
        inside, total = np.zeros((2, len(triples)), dtype=np.int64)
        for sets, rows, found in self._find(low, high):
            total[found] = 1
            inside[found] = (sets[rows[found]] == k[found, None]).any(axis=1)
        pairs, keys, held_inside, held_total = self._votes
        rank, paired = lookup(pairs, (low << 32) | high)
        rows, voted = lookup(keys, rank * self.p + k)
        voted &= paired
        inside[voted], total[voted] = held_inside[rows[voted]], held_total[rows[voted]]
        return inside, total

    def __len__(self) -> int:
        return sum(len(codes) for codes, _ in self._tables.values())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SepsetMap)
                and self.p == other.p
                and all(map(np.array_equal, self._votes, other._votes))
                and self._tables.keys() == other._tables.keys()
                and all(np.array_equal(a, b)
                        for size, table in self._tables.items()
                        for a, b in zip(table, other._tables[size])))

    def to_json_dict(self) -> dict:
        return {f"{i},{j}": members
                for codes, sets in self._tables.values()
                for i, j, members in zip((codes >> 32).tolist(),
                                         (codes & 0xFFFFFFFF).tolist(), sets.tolist())}

    def json_chunks(self) -> Iterator[str]:
        """The text of ``json.dumps(self.to_json_dict(), sort_keys=True,
        indent=2) + "\n"``, in pieces of at most ``JSON_CHUNK_ENTRIES``
        entries each.

        ``sort_keys`` orders the "i,j" strings, and "," sorts before every
        digit, so the order is that of the decimal string of i, then of j:
        a lexsort on each variable's rank among the sorted decimal strings,
        over the tables one after another.
        """
        if not self._tables:
            yield "{}\n"
            return
        tables = list(self._tables.values())
        codes = np.concatenate([codes for codes, _ in tables])
        ends = np.cumsum([len(codes) for codes, _ in tables])
        names = [str(v) for v in range(self.p)]
        rank = np.empty(len(names), dtype=np.int64)
        rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
        order = np.lexsort((rank[codes & 0xFFFFFFFF], rank[codes >> 32]))
        heads = [f'  "{name},' for name in names]
        empty_tails = [f'{name}": []' for name in names]
        yield "{\n"
        for first in range(0, len(order), JSON_CHUNK_ENTRIES):
            rows = order[first:first + JSON_CHUNK_ENTRIES]
            i, j = (codes[rows] >> 32).tolist(), (codes[rows] & 0xFFFFFFFF).tolist()
            tails = list(map(empty_tails.__getitem__, j))
            table = np.searchsorted(ends, rows, side="right")
            for t, (_, sets) in enumerate(tables):
                ks = np.flatnonzero(table == t)
                if not (sets.shape[1] and len(ks)):
                    continue
                picked = sets[rows[ks] - (ends[t] - len(sets))].tolist()
                for k, members in zip(ks.tolist(), picked):
                    items = ",\n    ".join(map(str, members))
                    tails[k] = f'{names[j[k]]}": [\n    {items}\n  ]'
            lines = ",\n".join(map(operator.add, map(heads.__getitem__, i), tails))
            yield lines if first == 0 else ",\n" + lines
        yield "\n}\n"


class Dag:
    """Directed acyclic graph: each variable's parents and children, ascending."""

    def __init__(self, p: int, parents: Sequence[Iterable[int]]):
        if p < 1:
            raise GraphError("need at least one variable")
        if len(parents) != p:
            raise GraphError("parents list length must equal p")
        cleaned = []
        for v, ps in enumerate(parents):
            ps = tuple(sorted(set(int(u) for u in ps)))
            for u in ps:
                if not 0 <= u < p:
                    raise GraphError(f"parent index {u} out of range")
                if u == v:
                    raise GraphError(f"self parent at {v}")
            cleaned.append(ps)
        self.p = p
        self.parents = tuple(cleaned)
        children: list[list[int]] = [[] for _ in range(p)]
        for u, v in self.edges():
            children[u].append(v)
        self._children = tuple(map(tuple, children))
        if self.topological_order() is None:
            raise GraphError("parent structure has a cycle")

    def children(self, v: int) -> list[int]:
        return list(self._children[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for v in range(self.p) for u in self.parents[v]]

    def topological_order(self) -> list[int] | None:
        """Kahn's algorithm, smallest ready index first; None if cyclic."""
        indegree = [len(ps) for ps in self.parents]
        ready = [v for v in range(self.p) if not indegree[v]]   # ascending, so a heap
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for c in self._children[v]:
                indegree[c] -= 1
                if not indegree[c]:
                    heapq.heappush(ready, c)
        return order if len(order) == self.p else None

    def descendants(self, v: int) -> set[int]:
        """All nodes reachable from v by directed paths, excluding v."""
        out: set[int] = set()
        stack = [v]
        while stack:
            for c in self._children[stack.pop()]:
                if c not in out:
                    out.add(c)
                    stack.append(c)
        out.discard(v)
        return out

    def skeleton(self) -> SkeletonGraph:
        adj = np.zeros((self.p, self.p), dtype=bool)
        for v, ps in enumerate(self.parents):
            adj[list(ps), v] = True
        return SkeletonGraph(self.p, adj | adj.T)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Dag) and self.p == other.p and self.parents == other.parents

    def to_json_dict(self) -> dict:
        return {"p": self.p, "edges": [[u, v, "->"] for u, v in sorted(self.edges())]}


def d_separated(dag: Dag, i: int, j: int, s: Iterable[int]) -> bool:
    """d-separation of i and j given s, by reachability along trails on the
    DAG (Bayes-ball: Shachter, UAI 1998).

    The search visits (node, arrived from a child) states from (i, True).
    A node outside s passes a trail on to its children, and to its parents
    when the trail arrived from a child.  A node in s blocks a trail, but
    sends one that arrived from a parent back to its parents; so a collider
    opens when it or one of its descendants is in s.  i and j are
    d-connected when a state of j is reached.  Every node of an active
    trail is an ancestor of i, j or s, so the search stays among those.
    """
    s = frozenset(int(v) for v in s)
    if i == j:
        raise GraphError("i and j must differ")
    if i in s or j in s:
        raise GraphError("conditioning set must exclude i and j")
    _check_indices(dag.p, min(i, j, *s), max(i, j, *s))
    within = {i, j, *s}
    stack = list(within)
    while stack:
        for u in dag.parents[stack.pop()]:
            if u not in within:
                within.add(u)
                stack.append(u)
    seen = set()
    stack = [(i, True)]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        v, from_child = state
        if v == j:
            return False
        if v not in s:
            stack += [(c, False) for c in dag._children[v] if c in within]
        if from_child != (v in s):
            stack += [(u, True) for u in dag.parents[v]]
    return True


def dag_from_json_dict(data: object) -> Dag:
    """The DAG of ``{"p": p, "edges": [[u, v, "->"], ...]}``, p and each u
    and v JSON integers; GraphError naming the edge at fault when ``data``
    does not describe one."""
    try:
        p, edges = data["p"], list(data["edges"])
    except (TypeError, KeyError):
        p = None
    if type(p) is not int:
        raise GraphError('a DAG needs an integer "p" and an "edges" list')
    parents: list[list[int]] = [[] for _ in range(p)]
    for edge in edges:
        try:
            u, v, m = edge
        except (TypeError, ValueError):
            raise GraphError(f"DAG edge {edge!r} is not [u, v, \"->\"]") from None
        if m != "->" or not (type(u) is type(v) is int and 0 <= u < p and 0 <= v < p):
            raise GraphError(f"DAG edge {edge!r} is not [u, v, \"->\"], u and v in [0, {p})")
        parents[v].append(u)
    return Dag(p, parents)
