"""Graph containers: undirected skeletons, CPDAGs, separating-set maps, DAGs.

Adjacency is stored dense (numpy matrices) because variable counts stay in
the low thousands and the level-synchronized algorithm wants cheap
whole-graph snapshots; the unshielded triples are enumerated in one place.
"""

from __future__ import annotations

import operator
from collections import deque
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

    def _check(self, *vs: int) -> None:
        for v in vs:
            if not 0 <= v < self.p:
                raise GraphError(f"variable index {v} out of range [0, {self.p})")

    def add_edge(self, i: int, j: int) -> None:
        self._check(i, j)
        if i == j:
            raise GraphError("no self loops")
        self.adj[i, j] = self.adj[j, i] = True

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

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (i, j) with i < j, in ascending order."""
        for i in range(self.p):
            for j in np.flatnonzero(self.adj[i, i + 1:]):
                yield i, int(j) + i + 1

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
        mark = np.where(skel.adj, TAIL, NO_END).astype(np.int8)
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
        return [u for u in np.flatnonzero(self.mark[:, v] == ARROW).tolist()
                if self.mark[v, u] == TAIL]

    def undirected_neighbors(self, v: int) -> list[int]:
        return [u for u in np.flatnonzero(self.mark[v] == TAIL).tolist()
                if self.mark[u, v] == TAIL]

    def directed_edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.p):
            for j in np.flatnonzero(self.mark[i] == ARROW).tolist():
                if self.mark[j, i] == TAIL:
                    out.append((i, j))
        return out

    def undirected_edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.p):
            for j in np.flatnonzero(self.mark[i] == TAIL).tolist():
                if j > i and self.mark[j, i] == TAIL:
                    out.append((i, j))
        return out

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Cpdag)
                and self.p == other.p
                and np.array_equal(self.mark, other.mark))

    def edge_records(self) -> list[list]:
        """Sorted edge triples [i, j, "--"|"->"], undirected with i < j."""
        records = [[i, j, "--"] for i, j in self.undirected_edges()]
        records += [[i, j, "->"] for i, j in self.directed_edges()]
        records.sort(key=lambda e: (e[0], e[1], e[2]))
        return records

    def to_json_dict(self) -> dict:
        return {"p": self.p, "edges": self.edge_records()}


class SepsetMap:
    """Separating sets recorded for removed edges, keyed by unordered pair.

    Each removed edge has one first-found set, the one that removed it
    (``get``, ``pair_array``, ``to_json_dict``).  A pair may also carry the
    result of the separating-set search on the final skeleton: every set
    that search accepted, possibly none (``set_search``, ``get_search``).
    Orientation votes over the search result where there is one.  Equality
    compares both records.

    The first-found sets live in arrays, with no object per pair, and take
    memory in proportion to the pairs recorded.  Each write (``set_many``)
    keeps its pairs' codes ``i << 32 | j`` (i < j) and its (m, size) array
    of sets.  The first read after a write joins them to the table: each
    pair's latest set, codes ascending, the members of all sets one after
    another.  Reads look pairs up by ``searchsorted``.  The search records
    are a dict: the search covers only the pairs that share a neighbour in
    the final skeleton.
    """

    def __init__(self) -> None:
        # (codes, sets) of each write since the table was last built
        self._writes: list[tuple[np.ndarray, np.ndarray]] = []
        self._codes = np.empty(0, dtype=np.int64)
        self._sizes = np.empty(0, dtype=np.int32)
        self._starts = np.empty(0, dtype=np.int64)
        self._members = np.empty(0, dtype=np.int32)
        self._search: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}

    @staticmethod
    def _key(i: int, j: int) -> tuple[int, int]:
        if i == j:
            raise GraphError("sepset pair must be two distinct variables")
        return (i, j) if i < j else (j, i)

    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(codes, sizes, starts, members): each pair's latest set, codes
        ascending, the members of all sets one after another."""
        if self._writes:
            codes = np.concatenate([self._codes, *(c for c, _ in self._writes)])
            sizes = np.concatenate([self._sizes, *(np.full(len(c), sets.shape[1], np.int32)
                                                   for c, sets in self._writes)])
            members = np.concatenate([self._members,
                                      *(sets.ravel() for _, sets in self._writes)])
            self._writes = []
            order = np.argsort(codes, kind="stable")     # a pair's writes in order
            codes = codes[order]
            latest = np.ones(len(codes), dtype=bool)
            latest[:-1] = codes[1:] != codes[:-1]
            if not latest.all():
                order, codes = order[latest], codes[latest]
            # position of each kept member: its set's start, plus its place
            starts = np.cumsum(sizes) - sizes
            sizes = sizes[order]
            self._starts = np.cumsum(sizes) - sizes
            shift = np.repeat(starts[order] - self._starts, sizes)
            self._codes, self._sizes = codes, sizes
            self._members = members[shift + np.arange(len(shift))]
        return self._codes, self._sizes, self._starts, self._members

    def _records(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """The table row of each pair low[k] < high[k], -1 where it has none."""
        codes = self._table()[0]
        wanted = (low.astype(np.int64) << 32) | high
        rows = np.searchsorted(codes, wanted)
        found = (low >= 0) & (high <= np.iinfo(np.int32).max) & (rows < len(codes))
        found[found] = codes[rows[found]] == wanted[found]
        return np.where(found, rows, -1)

    def set_many(self, pairs: np.ndarray, sepsets: np.ndarray) -> None:
        """Record one set per row: ``sepsets[k]`` for the pair ``pairs[k]``.

        ``pairs`` is an (m, 2) array of distinct pairs and ``sepsets`` an
        (m, size) array, one level's removals.  A later write of a pair
        replaces its set; a pair named twice in one call raises
        ``GraphError`` and leaves the map as it was.
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
        if low.min() < 0:
            raise GraphError(f"variable index {low.min()} is negative")
        if high.max() > np.iinfo(np.int32).max or (sepsets.size and (
                sepsets.min() < 0 or sepsets.max() > np.iinfo(np.int32).max)):
            raise GraphError("variable index out of the int32 range")
        if (sepsets == low[:, None]).any() or (sepsets == high[:, None]).any():
            raise GraphError("separating set must exclude the pair itself")
        codes = low.astype(np.int64)
        codes <<= 32
        codes |= high
        del low, high
        if not (codes[1:] > codes[:-1]).all() and not np.diff(np.sort(codes)).all():
            raise GraphError("set_many names a pair twice")
        self._writes.append((codes, sepsets.astype(np.int32)))

    def get(self, i: int, j: int) -> tuple[int, ...] | None:
        a, b = self._key(i, j)
        row = int(self._records(np.array([a]), np.array([b]))[0])
        if row < 0:
            return None
        _, sizes, starts, members = self._table()
        return tuple(members[starts[row]:starts[row] + sizes[row]].tolist())

    def set_sizes(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The size of each pair (i[k], j[k])'s set, -1 where it has none."""
        rows = self._records(np.minimum(i, j), np.maximum(i, j))
        out = np.full(len(rows), -1, dtype=np.int64)
        found = rows >= 0
        out[found] = self._table()[1][rows[found]]
        return out

    def set_search(self, i: int, j: int,
                   sepsets: Iterable[Iterable[int]]) -> None:
        """Record every set the final search accepted for (i, j)."""
        found = tuple(tuple(s) for s in sepsets)
        if any(i in s or j in s for s in found):
            raise GraphError("separating set must exclude the pair itself")
        self._search[self._key(i, j)] = found

    def get_search(self, i: int, j: int) -> tuple[tuple[int, ...], ...] | None:
        """The search's accepted sets, or None when (i, j) was not searched."""
        return self._search.get(self._key(i, j))

    def pair_array(self) -> np.ndarray:
        """The pairs (i, j), i < j, that have a set, ascending, as an
        (m, 2) array."""
        codes = self._table()[0]
        return np.column_stack([codes >> 32, codes & 0xFFFFFFFF])

    def __len__(self) -> int:
        return len(self._table()[0])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SepsetMap)
                and self._search == other._search
                and all(np.array_equal(a, b)
                        for a, b in zip(self._table(), other._table())))

    def to_json_dict(self) -> dict:
        _, sizes, starts, members = self._table()
        members = members.tolist()
        return {f"{i},{j}": members[start:start + size]
                for (i, j), size, start in zip(self.pair_array().tolist(),
                                               sizes.tolist(), starts.tolist())}

    def json_chunks(self) -> Iterator[str]:
        """The text of ``json.dumps(self.to_json_dict(), sort_keys=True,
        indent=2) + "\n"``, in pieces of at most ``JSON_CHUNK_ENTRIES``
        entries each.

        ``sort_keys`` orders the "i,j" strings, and "," sorts before every
        digit, so the order is that of the decimal string of i, then of j:
        a lexsort on each variable's rank among the sorted decimal strings.
        """
        pairs = self.pair_array()
        _, sizes, starts, members = self._table()
        if not len(pairs):
            yield "{}\n"
            return
        names = [str(v) for v in range(int(pairs.max()) + 1)]
        rank = np.empty(len(names), dtype=np.int64)
        rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
        order = np.lexsort((rank[pairs[:, 1]], rank[pairs[:, 0]]))
        heads = [f'  "{name},' for name in names]
        empty_tails = [f'{name}": []' for name in names]
        yield "{\n"
        for first in range(0, len(order), JSON_CHUNK_ENTRIES):
            rows = order[first:first + JSON_CHUNK_ENTRIES]
            i, j = pairs[rows, 0].tolist(), pairs[rows, 1].tolist()
            tails = list(map(empty_tails.__getitem__, j))
            for k in np.flatnonzero(sizes[rows]).tolist():
                start, size = starts[rows[k]], sizes[rows[k]]
                items = ",\n    ".join(map(str, members[start:start + size].tolist()))
                tails[k] = f'{names[j[k]]}": [\n    {items}\n  ]'
            lines = ",\n".join(map(operator.add, map(heads.__getitem__, i), tails))
            yield lines if first == 0 else ",\n" + lines
        yield "\n}\n"


class Dag:
    """Directed acyclic graph given by per-variable sorted parent lists."""

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
        if self.topological_order() is None:
            raise GraphError("parent structure has a cycle")

    def children(self, v: int) -> list[int]:
        return [c for c in range(self.p) if v in self.parents[c]]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for v in range(self.p) for u in self.parents[v]]

    def topological_order(self) -> list[int] | None:
        """Kahn's algorithm, smallest index first; None if cyclic."""
        indegree = [len(self.parents[v]) for v in range(self.p)]
        children: list[list[int]] = [[] for _ in range(self.p)]
        for v in range(self.p):
            for u in self.parents[v]:
                children[u].append(v)
        ready = sorted(v for v in range(self.p) if indegree[v] == 0)
        order = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            changed = False
            for c in children[v]:
                indegree[c] -= 1
                if indegree[c] == 0:
                    ready.append(c)
                    changed = True
            if changed:
                ready.sort()
        return order if len(order) == self.p else None

    def descendants(self, v: int) -> set[int]:
        """All nodes reachable from v by directed paths, excluding v."""
        out: set[int] = set()
        stack = [v]
        while stack:
            u = stack.pop()
            for c in self.children(u):
                if c not in out:
                    out.add(c)
                    stack.append(c)
        out.discard(v)
        return out

    def skeleton(self) -> SkeletonGraph:
        g = SkeletonGraph(self.p)
        for u, v in self.edges():
            g.add_edge(u, v)
        return g

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Dag) and self.p == other.p and self.parents == other.parents

    def to_json_dict(self) -> dict:
        return {"p": self.p, "edges": [[u, v, "->"] for u, v in sorted(self.edges())]}


def d_separated(dag: Dag, i: int, j: int, s: Iterable[int]) -> bool:
    """d-separation of i and j given s, via the moral ancestral graph.

    Builds the subgraph induced by the ancestors of {i, j} union s, marries
    co-parents, drops directions, and checks that s blocks every undirected
    path (Lauritzen's criterion, equivalent to path-wise d-separation).
    """
    s = frozenset(int(v) for v in s)
    if i == j:
        raise GraphError("i and j must differ")
    if i in s or j in s:
        raise GraphError("conditioning set must exclude i and j")
    for v in (i, j, *s):
        if not 0 <= v < dag.p:
            raise GraphError(f"variable index {v} out of range")

    # Ancestral closure of {i, j} | s.
    anc = set()
    stack = [i, j, *s]
    while stack:
        v = stack.pop()
        if v in anc:
            continue
        anc.add(v)
        stack.extend(dag.parents[v])

    # Moralize: undirected parent-child edges plus married co-parents.
    adj: dict[int, set[int]] = {v: set() for v in anc}
    for v in anc:
        ps = [u for u in dag.parents[v] if u in anc]
        for u in ps:
            adj[u].add(v)
            adj[v].add(u)
        for a in range(len(ps)):
            for b in range(a + 1, len(ps)):
                adj[ps[a]].add(ps[b])
                adj[ps[b]].add(ps[a])

    # Reachability from i avoiding s.
    seen = {i}
    queue = deque([i])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u == j:
                return False
            if u not in seen and u not in s:
                seen.add(u)
                queue.append(u)
    return True


def dag_from_json_dict(data: object) -> Dag:
    """The DAG of ``{"p": p, "edges": [[u, v, "->"], ...]}``; GraphError
    naming the edge at fault when ``data`` does not describe one."""
    try:
        p = int(data["p"])
        edges = list(data["edges"])
    except (TypeError, ValueError, KeyError):
        raise GraphError('a DAG needs an integer "p" and an "edges" list') from None
    parents: list[list[int]] = [[] for _ in range(p)]
    for edge in edges:
        try:
            u, v, m = edge
            u, v = int(u), int(v)
        except (TypeError, ValueError):
            raise GraphError(f"DAG edge {edge!r} is not [u, v, \"->\"]") from None
        if m != "->" or not (0 <= u < p and 0 <= v < p):
            raise GraphError(f"DAG edge {edge!r} is not [u, v, \"->\"], u and v in [0, {p})")
        parents[v].append(u)
    return Dag(p, parents)
