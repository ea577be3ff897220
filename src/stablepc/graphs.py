"""Graph containers: undirected skeletons, CPDAGs, separating-set maps, DAGs.

Adjacency is stored dense (numpy matrices) because variable counts stay in
the low thousands and the level-synchronized algorithm wants cheap
whole-graph snapshots.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence

import numpy as np

# Edge-mark codes for Cpdag.mark[i, j], read as the mark at j's end of the
# edge between i and j.
NO_END = 0
TAIL = 1
ARROW = 2


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

    def copy(self) -> "SkeletonGraph":
        return SkeletonGraph(self.p, self.adj)

    def _check(self, *vs: int) -> None:
        for v in vs:
            if not 0 <= v < self.p:
                raise GraphError(f"variable index {v} out of range [0, {self.p})")

    def has_edge(self, i: int, j: int) -> bool:
        self._check(i, j)
        return bool(self.adj[i, j])

    def add_edge(self, i: int, j: int) -> None:
        self._check(i, j)
        if i == j:
            raise GraphError("no self loops")
        self.adj[i, j] = self.adj[j, i] = True

    def remove_edge(self, i: int, j: int) -> None:
        self._check(i, j)
        self.adj[i, j] = self.adj[j, i] = False

    def neighbors(self, v: int) -> list[int]:
        self._check(v)
        return np.flatnonzero(self.adj[v]).tolist()

    def degree(self, v: int) -> int:
        self._check(v)
        return int(self.adj[v].sum())

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (i, j) with i < j, in ascending order."""
        for i in range(self.p):
            for j in np.flatnonzero(self.adj[i, i + 1:]):
                yield i, int(j) + i + 1

    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2

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

    def is_undirected(self, i: int, j: int) -> bool:
        return self.mark[i, j] == TAIL and self.mark[j, i] == TAIL

    def is_directed(self, i: int, j: int) -> bool:
        """True iff the edge is oriented i -> j."""
        return self.mark[i, j] == ARROW and self.mark[j, i] == TAIL

    def orient(self, i: int, j: int) -> None:
        """Set i -> j, overwriting any previous marks on this edge."""
        if not self.has_edge(i, j):
            raise GraphError(f"no edge between {i} and {j}")
        self.mark[i, j] = ARROW
        self.mark[j, i] = TAIL

    def adjacent(self, v: int) -> list[int]:
        return np.flatnonzero(self.mark[v]).tolist()

    def parents(self, v: int) -> list[int]:
        """Nodes u with u -> v."""
        return [u for u in np.flatnonzero(self.mark[:, v] == ARROW).tolist()
                if self.mark[v, u] == TAIL]

    def children(self, v: int) -> list[int]:
        return [u for u in np.flatnonzero(self.mark[v] == ARROW).tolist()
                if self.mark[u, v] == TAIL]

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

    def skeleton(self) -> SkeletonGraph:
        return SkeletonGraph(self.p, self.mark != NO_END)

    def validate(self) -> None:
        """Check mark consistency, no bidirected edges, acyclic directed part."""
        for i in range(self.p):
            if self.mark[i, i] != NO_END:
                raise GraphError(f"self mark at {i}")
            for j in range(i + 1, self.p):
                a, b = self.mark[i, j], self.mark[j, i]
                if (a == NO_END) != (b == NO_END):
                    raise GraphError(f"half-present edge between {i} and {j}")
                if a == ARROW and b == ARROW:
                    raise GraphError(f"bidirected edge between {i} and {j}")
        if not self.directed_part_acyclic():
            raise GraphError("directed part has a cycle")

    def directed_part_acyclic(self) -> bool:
        indegree = [0] * self.p
        children: list[list[int]] = [[] for _ in range(self.p)]
        for i, j in self.directed_edges():
            children[i].append(j)
            indegree[j] += 1
        queue = deque(v for v in range(self.p) if indegree[v] == 0)
        seen = 0
        while queue:
            v = queue.popleft()
            seen += 1
            for c in children[v]:
                indegree[c] -= 1
                if indegree[c] == 0:
                    queue.append(c)
        return seen == self.p

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
    (``get``, ``pairs``, ``to_json_dict``).  A pair may also carry the
    result of the separating-set search on the final skeleton: every set
    that search accepted, possibly none (``set_search``, ``get_search``).
    Orientation votes over the search result where there is one.  Equality
    compares both records.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int], tuple[int, ...]] = {}
        self._search: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}

    @staticmethod
    def _key(i: int, j: int) -> tuple[int, int]:
        if i == j:
            raise GraphError("sepset pair must be two distinct variables")
        return (i, j) if i < j else (j, i)

    def set(self, i: int, j: int, sepset: Iterable[int]) -> None:
        s = tuple(sepset)
        if i in s or j in s:
            raise GraphError("separating set must exclude the pair itself")
        self._entries[self._key(i, j)] = s

    def get(self, i: int, j: int) -> tuple[int, ...] | None:
        return self._entries.get(self._key(i, j))

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

    def has(self, i: int, j: int) -> bool:
        return self._key(i, j) in self._entries

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SepsetMap)
                and self._entries == other._entries
                and self._search == other._search)

    def to_json_dict(self) -> dict:
        return {f"{i},{j}": list(s) for (i, j), s in sorted(self._entries.items())}


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


def skeleton_from_json_dict(data: dict) -> SkeletonGraph:
    g = SkeletonGraph(int(data["p"]))
    for i, j, m in data["edges"]:
        if m != "--":
            raise GraphError(f"skeleton edge with mark '{m}'")
        g.add_edge(int(i), int(j))
    return g


def dag_from_json_dict(data: dict) -> Dag:
    p = int(data["p"])
    parents: list[list[int]] = [[] for _ in range(p)]
    for edge in data["edges"]:
        u, v, m = edge[0], edge[1], edge[2]
        if m != "->":
            raise GraphError(f"DAG edge with mark '{m}'")
        parents[int(v)].append(int(u))
    return Dag(p, parents)
