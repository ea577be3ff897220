"""Order-independent skeleton learning with level-parallel CI testing.

One level loop, ``stable_levels``, runs the stable rule on a graph: each
level is the conditioning-set size, all CI tests of a level read an
immutable snapshot of the graph taken at level start, and every removal is
applied in a single-threaded merge at level end.  ``skeleton_stable`` runs
it on the complete graph and records the sepsets and level counters from
what it yields; ``inference.pc_simple`` runs it on a star around its target.

One level engine, ``run_level``, evaluates the tasks of a level on a
``LevelExecutor``, which holds the run's ``SkeletonConfig`` (workers, alpha,
byte budget) and CI test.  A task is one row of an integer array, and the row
together with the level's shared snapshot fixes everything that determines
its outcome: a module-level ``decide(shared, rows, test, alpha)`` function,
which decides a block of rows, reads nothing else.  So any worker count and
any slicing produce results identical to the sequential run.  The
engine has two ``decide`` functions: ``decide_edges`` for the levels and
``_search_pairs`` for the separating-set search after the last level.

A ``decide`` function returns its block's decisions as a tuple of numeric
arrays in row order, one entry per row (per common neighbour of each pair
in the search's ``inside``), and ``run_level`` concatenates each array once
over the level's blocks, so no Python object is built per edge.  A level
decides a block in rounds: each round evaluates the next conditioning set
of every undecided edge with one call of the test's batched ``pvalues`` and
updates each of the block's result arrays in one masked statement.  At
level 0 every edge has the one set (), so a block is one ``pvalues`` call
and one comparison.  The search evaluates all sets of one size of a
block's pairs together and counts them with ``bincount``.  A test without
``pvalues`` is called once per set through ``_scalar_pvalues``, in the
same rounds.

A level's rows are cut into contiguous slices, one per worker, or smaller
under a byte budget so a run on a memory-constrained machine does not hold
the whole level in flight.  Each worker takes the next slice as soon as it
replies, so the level end is the only barrier.  Slice boundaries never
influence results, only scheduling.

After the last level, the separating-set search on the final skeleton
counts, for every non-adjacent pair that shares a neighbour, the accepting
sets drawn from the pair's final neighbourhoods, and how many of them hold
each common neighbour of the pair: the votes orientation reads.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, islice
from multiprocessing.connection import Connection, wait
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .citests import CiTest, DegenerateConditioningError
from .data import DiscreteSuffStat
from .graphs import SepsetMap, SkeletonGraph, complete_graph, lookup

DEFAULT_MEM_BUDGET_BYTES = 512 * 1024 * 1024

# Per-task scratch estimates, fixed by rough measurement and frozen: they
# only shape slice boundaries, never results.
GAUSSIAN_TASK_BASE = 512       # task + decision bookkeeping
GAUSSIAN_TASK_CELL = 48        # submatrix entry + inverse + factorization scratch
DISCRETE_TASK_BASE = 512
DISCRETE_TABLE_CELL = 16       # int64 count plus the kernel's scratch per table cell
# Most task rows one ``decide`` call receives, and most sets one ``pvalues``
# call receives.  It caps a block's per-row state (a set generator per edge)
# and the stacked submatrices of a call, whatever the slice size or the
# separating-set search's set count.
MAX_BLOCK_ROWS = 1 << 12
# How long closing an executor waits for an idle worker to exit before it
# terminates the worker.
WORKER_EXIT_TIMEOUT_S = 5.0


class LevelExecutionError(RuntimeError):
    """A worker failed mid-level; the level was aborted before any merge."""


@dataclass(frozen=True)
class SkeletonConfig:
    """Knobs for the skeleton search and its executor.

    ``mem_budget_bytes`` bounds the bytes of the tasks in flight at once and
    is the one slicing input; None gives each worker one slice of a level,
    and 1 byte slices of one task.
    """

    alpha: float = 0.01
    max_level: int | None = None
    num_workers: int = 1
    mem_budget_bytes: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if self.max_level is not None and self.max_level < 0:
            raise ValueError("max_level must be nonnegative")
        if self.mem_budget_bytes is not None and self.mem_budget_bytes < 1:
            raise ValueError("mem_budget_bytes must be positive")


@dataclass(frozen=True)
class LevelStat:
    """One level's counters.  ``degenerate`` counts the tests whose
    conditioning set was degenerate (a NaN p-value), each counted as
    dependence; like ``LevelStats.search_tests`` it stays out of the JSON
    rows."""

    level: int
    tests: int
    removals: int
    degenerate: int
    wall_ms: float


@dataclass(frozen=True)
class LevelStats:
    """Per-level counters plus the most task rows in flight at once in the run.

    ``wall_ms`` is measured wall time, the one field that varies between
    otherwise identical runs.  ``search_tests`` counts the CI tests of the
    final separating-set search, which belong to no level and stay out of
    the JSON rows.
    """

    levels: tuple[LevelStat, ...]
    peak_tasks_in_flight: int
    search_tests: int = 0

    def to_json_list(self) -> list[dict]:
        return [
            {"level": s.level, "tests": s.tests, "removals": s.removals,
             "wall_ms": s.wall_ms}
            for s in self.levels
        ]


def _scalar_pvalues(test: CiTest, i: np.ndarray, j: np.ndarray,
                    s: np.ndarray) -> np.ndarray:
    """The batched form of a test that offers only ``__call__``: one call per
    row, NaN where it raises DegenerateConditioningError."""
    out = np.empty(len(i))
    for k, (a, b, sub) in enumerate(zip(i.tolist(), j.tolist(), s.tolist())):
        try:
            out[k] = test(a, b, tuple(sub)).p_value
        except DegenerateConditioningError:
            out[k] = np.nan
    return out


def _pvalues(test: CiTest) -> Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    batched = getattr(test, "pvalues", None)
    return batched if batched is not None else partial(_scalar_pvalues, test)


def _test_sets(pvalues: Callable, rows: np.ndarray,
               drawn: Iterable[tuple[int, tuple[int, ...]]],
               size: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Test each (k, set) of ``drawn`` for the pair in ``rows[k, :2]``.

    Yields arrays (ks, sets, p) per ``pvalues`` call, in the order drawn;
    a call gets at most ``MAX_BLOCK_ROWS`` sets, all of size ``size``.
    """
    drawn = iter(drawn)
    while chunk := list(islice(drawn, MAX_BLOCK_ROWS)):
        ks, subs = zip(*chunk)
        ks = np.array(ks, dtype=np.intp)
        sets = np.array(subs, dtype=np.int64).reshape(len(ks), size)
        yield ks, sets, pvalues(rows[ks, 0], rows[ks, 1], sets)


def _pair_sets(side_i: tuple[int, ...], side_j: tuple[int, ...],
               size: int) -> Iterator[tuple[int, ...]]:
    """One pair's conditioning sets in test order: the ``size``-subsets of
    i's side in lexicographic order, then those of j's side that i's side
    does not cover, so each distinct set comes once."""
    yield from combinations(side_i, size)
    covered = set(side_i)
    for sub in combinations(side_j, size):
        if not covered.issuperset(sub):
            yield sub


def _without(side: tuple[int, ...], v: int) -> tuple[int, ...]:
    """An ascending tuple without v."""
    k = bisect_left(side, v)
    return side[:k] + side[k + 1:] if k < len(side) and side[k] == v else side


def _neighbours(adj: np.ndarray, rows: np.ndarray) -> dict[int, tuple[int, ...]]:
    """Ascending neighbour tuples of every endpoint in ``rows[:, :2]``."""
    return {v: tuple(np.flatnonzero(adj[v]).tolist())
            for v in set(rows[:, :2].ravel().tolist())}


def decide_edges(shared: tuple[int, np.ndarray], rows: np.ndarray, test: CiTest,
                 alpha: float) -> tuple[np.ndarray, ...]:
    """Decide a block of edges for their level; first acceptance wins.

    ``shared`` is the level and the level-start adjacency matrix; ``rows``
    holds edges (i, j), i < j.  An edge's sets of the level's size come from
    i's neighbourhood minus j in lexicographic order, then from j's minus i,
    skipping sets already covered by i's side.  Round t tests the t-th set
    of every edge still undecided, in one ``pvalues`` call, and updates each
    result array in one masked statement, so each edge runs exactly the
    tests a set-by-set loop would; at level 0 every edge has the one set (),
    and one call and one comparison decide the block.
    A degenerate set (NaN) counts as dependence and enumeration continues.

    Returns five arrays with one entry per edge: whether a set accepted, the
    accepting set (a row of ``level`` ints, zeros when none did), the tests
    run, the degenerate sets among them, and the largest non-NaN p-value of
    the sets that did not accept (NaN when there is none): for an edge that
    stays, the largest p-value of all its sets.
    """
    level, adj = shared
    pvalues = _pvalues(test)
    m = len(rows)
    if not level:
        p = pvalues(rows[:, 0], rows[:, 1], np.empty((m, 0), dtype=np.int64))
        found = p > alpha
        degenerate = np.isnan(p)
        return (found, np.empty((m, 0), dtype=np.int64), np.ones(m, dtype=np.int64),
                degenerate.astype(np.int64), np.where(found | degenerate, np.nan, p))
    nbrs = _neighbours(adj, rows)
    sets = [_pair_sets(_without(nbrs[i], j), _without(nbrs[j], i), level)
            for i, j in rows.tolist()]
    found = np.zeros(m, dtype=bool)
    accepted = np.zeros((m, level), dtype=np.int64)
    tests = np.zeros(m, dtype=np.int64)
    degenerate = np.zeros(m, dtype=np.int64)
    largest = np.full(m, np.nan)
    undecided = range(m)
    while undecided:
        drawn = [(k, sub) for k in undecided
                 if (sub := next(sets[k], None)) is not None]
        undecided = []
        for ks, subs, p in _test_sets(pvalues, rows, drawn, level):
            yes = p > alpha
            found[ks] = yes
            accepted[ks[yes]] = subs[yes]
            tests[ks] += 1
            degenerate[ks] += np.isnan(p)
            largest[ks] = np.fmax(largest[ks], np.where(yes, np.nan, p))
            undecided += ks[~yes].tolist()
    return found, accepted, tests, degenerate, largest


def _search_pairs(adj: np.ndarray, rows: np.ndarray, test: CiTest,
                  alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The votes of each non-adjacent pair's accepting sets, and the tests run.

    ``adj`` is the final adjacency matrix; ``rows`` holds (i, j, min_size,
    max_size).  Each size enumerates like ``decide_edges``, over the pair's
    full neighbourhoods, and the sets of one size of every pair in the block
    are tested together.  A degenerate set does not accept.  Returns per
    pair the number of accepting sets and the tests run, and ``inside``:
    per common neighbour k of each pair, pairs in row order and k
    ascending, how many of the pair's accepting sets hold k.
    """
    pvalues = _pvalues(test)
    nbrs = _neighbours(adj, rows)
    pairs = rows.tolist()
    common = np.fromiter((r * len(adj) + k for r, (i, j, _, _) in enumerate(pairs)
                          for k in sorted(set(nbrs[i]).intersection(nbrs[j]))), dtype=np.int64)
    total, tests = np.zeros((2, len(pairs)), dtype=np.int64)
    inside = np.zeros(len(common), dtype=np.int64)
    sizes = range(int(rows[:, 2].min(initial=0)), int(rows[:, 3].max(initial=-1)) + 1)
    for size in sizes:
        for ks, subs, p in _test_sets(pvalues, rows, _sets_of_size(pairs, nbrs, size),
                                      size):
            tests += np.bincount(ks, minlength=len(pairs))
            yes = p > alpha
            total += np.bincount(ks[yes], minlength=len(pairs))
            at, held = lookup(common, (ks[yes, None] * len(adj) + subs[yes]).ravel())
            inside += np.bincount(at[held], minlength=len(common))
    return total, tests, inside


def _sets_of_size(pairs: list[list[int]], nbrs: dict[int, tuple[int, ...]],
                  size: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(k, set) for the ``size``-sets of every pair k whose range holds size."""
    for k, (i, j, low, high) in enumerate(pairs):
        if low <= size <= high:
            for sub in _pair_sets(nbrs[i], nbrs[j], size):
                yield k, sub


def _search_rows(graph: SkeletonGraph, sepsets: SepsetMap, max_level: int | None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unshielded triples (i, k, j) sorted by (i, j, k); one row (i, j,
    min_size, max_size) per non-adjacent pair (i < j) sharing a neighbour,
    ascending: their ends; and the row of each triple's pair.  So the
    triples are in the order of ``_search_pairs``' ``inside`` column.

    Sizes below the removal level need no test: while the edge was present
    the skeleton tested and rejected every such subset of these (then
    larger) neighbourhoods.
    """
    triples = graph.unshielded_triples()
    triples = triples[np.lexsort(triples.T[[1, 2, 0]])]
    pairs, pair = np.unique(triples[:, [0, 2]], axis=0, return_inverse=True)
    degree = graph.adj.sum(axis=1)
    top = np.maximum(degree[pairs[:, 0]], degree[pairs[:, 1]])
    if max_level is not None:
        top = np.minimum(top, max_level)
    low = sepsets.set_sizes(pairs[:, 0], pairs[:, 1])
    return triples, np.column_stack([pairs, low, top]).astype(np.int64), pair.ravel()


def probe_free_memory() -> int | None:
    """Best-effort free-memory probe; None when the platform offers nothing."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        pages = os.sysconf("SC_AVPHYS_PAGES")
        size = os.sysconf("SC_PAGE_SIZE")
        if pages > 0 and size > 0:
            return pages * size
    except (OSError, ValueError, AttributeError):
        pass
    return None


def estimate_task_cost(level: int, suff: object) -> int:
    """Deterministic per-task memory estimate in bytes for slicing a level.

    Gaussian tasks scale with the (level+2)-square submatrix.  Discrete
    tasks scale with the cells of the largest table a test can build: the
    G-squared and chi-squared kernels count at most min(n, prod of the set's
    arities) strata of a_i * a_j cells, bounded here by the level largest
    arities for the set and the two largest for the pair.  Statistics
    without a recognized kind (the d-separation oracle) fall back to the
    Gaussian formula.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    if isinstance(suff, DiscreteSuffStat):
        largest = sorted(suff.arities, reverse=True)
        strata = 1
        for a in largest[:level]:
            strata = min(strata * a, suff.n)
        return DISCRETE_TASK_BASE + DISCRETE_TABLE_CELL * strata * math.prod(largest[:2])
    side = level + 2
    return GAUSSIAN_TASK_BASE + GAUSSIAN_TASK_CELL * side * side


# ---------------------------------------------------------------------------
# Worker-side machinery.  One set of worker processes per engine run, each
# bound to the CI test and alpha when it starts and talking to the executor
# over its own pipe.  Every slice travels in one format, ``(decide, rows)`` or
# ``(decide, rows, shared)``: the client's module-level decide function
# (pickled by reference), a contiguous block of the integer task rows
# (``_packed``) and the level's shared snapshot, sent with a worker's first
# slice of each dispatch and when it changes, so a worker's later slices of a
# level carry rows alone.  A worker replies ``(True, blocks)``, the columns
# of each block of the slice as ``_packed`` lists (every column, the
# search's too, is numeric), or ``(False, error)`` when the slice raised.

Decide = Callable[[object, np.ndarray, CiTest, float], tuple[np.ndarray, ...]]


def _decide_blocks(decide: Decide, shared: object, rows: np.ndarray, test: CiTest,
                   alpha: float) -> list[tuple[np.ndarray, ...]]:
    """``decide`` over contiguous blocks of at most ``MAX_BLOCK_ROWS`` rows:
    one column tuple per block."""
    return [decide(shared, rows[start:start + MAX_BLOCK_ROWS], test, alpha)
            for start in range(0, len(rows), MAX_BLOCK_ROWS)]


def _packed(columns: tuple[np.ndarray, ...]) -> list:
    """A block's columns for the pipe as (dtype, shape, bytes), which
    pickles several times faster than a small array."""
    return [(c.dtype.str, c.shape, c.tobytes()) for c in columns]


def _unpacked(packed: list) -> tuple[np.ndarray, ...]:
    """The columns that ``_packed`` took apart."""
    return tuple(np.ndarray(shape, dtype, data) for dtype, shape, data in packed)


def _worker_loop(conn: Connection, test: CiTest, alpha: float) -> None:
    """Decide each slice received on ``conn`` until it sends None or closes."""
    shared = None
    while True:
        try:
            message = conn.recv_bytes()
        except EOFError:
            return
        try:
            payload = pickle.loads(message)
            if payload is None:
                return
            decide, rows, *fresh = payload
            if fresh:
                shared, = fresh
            rows, = _unpacked(rows)
            reply = (True, [_packed(columns) for columns in
                            _decide_blocks(decide, shared, rows, test, alpha)])
        except Exception as exc:
            reply = (False, repr(exc))
        conn.send(reply)


class LevelExecutor:
    """Worker pool bound to one run's config and CI test.

    Lazily starts its ``cfg.num_workers`` worker processes on the first
    parallel dispatch, so sequential runs never fork.  Each instance owns
    its workers; concurrent engine runs on distinct inputs use distinct
    executors.  A dispatch sends each idle worker the next slice down its
    pipe as soon as it replies, with no queue or thread in between, and
    returns when every slice is back.  It also keeps the most task rows
    ``run_level`` had in flight through it at once.
    """

    def __init__(self, cfg: SkeletonConfig, test: CiTest):
        self.cfg = cfg
        self.test = test
        self.peak_tasks_in_flight = 0
        self._workers: list[tuple[multiprocessing.Process, Connection]] = []

    def __enter__(self) -> "LevelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        workers, self._workers = self._workers, []
        for _, conn in workers:
            try:
                conn.send(None)
            except OSError:
                pass
            conn.close()
        for proc, _ in workers:
            proc.join(WORKER_EXIT_TIMEOUT_S)
            if proc.is_alive():
                proc.terminate()
                proc.join()

    def _ensure_workers(self) -> list[tuple[multiprocessing.Process, Connection]]:
        if not self._workers:
            for _ in range(self.cfg.num_workers):
                here, there = multiprocessing.Pipe()
                proc = multiprocessing.Process(
                    target=_worker_loop, args=(there, self.test, self.cfg.alpha),
                    daemon=True)
                proc.start()
                there.close()
                self._workers.append((proc, here))
        return self._workers

    def map_slices(self, payloads: Sequence) -> list[list[tuple[np.ndarray, ...]]]:
        """Run one slice per payload ``(decide, shared, rows)``; gather each
        slice's block columns in submission order.  The payloads go out in
        order, each to the next idle worker, and a worker is idle again as
        soon as it replies, so only the last slices are waited for together.
        Each worker gets ``shared`` with its first slice of the call, so a
        snapshot changed in place between calls reaches it afresh."""
        ready = [conn for _, conn in self._ensure_workers()]
        pending = iter(enumerate(payloads))
        busy: dict[Connection, int] = {}    # pipe -> the payload its worker holds
        sent: dict[Connection, object] = {}     # pipe -> the shared it was sent
        results: list[list[tuple[np.ndarray, ...]]] = [[] for _ in payloads]
        try:
            while True:
                for conn, (k, (decide, shared, rows)) in zip(ready, pending):
                    message = (decide, _packed((rows,)))
                    if conn not in sent or sent[conn] is not shared:
                        message += (shared,)
                        sent[conn] = shared
                    conn.send(message)
                    busy[conn] = k
                if not busy:
                    return results
                ready = wait(list(busy))
                for conn in ready:
                    ok, reply = conn.recv()
                    if not ok:
                        raise LevelExecutionError(f"worker failed: {reply}")
                    results[busy.pop(conn)] = [_unpacked(packed) for packed in reply]
        except Exception as exc:
            self.close()
            if isinstance(exc, LevelExecutionError):
                raise
            raise LevelExecutionError(f"worker failed: {exc!r}") from exc


def run_level(ex: LevelExecutor, decide: Decide, shared: object, rows: np.ndarray,
              per_task_cost: int) -> tuple[np.ndarray, ...]:
    """Decide every task row against the shared snapshot, in row order.

    ``decide(shared, rows, test, alpha)`` must be a module-level function so
    that workers can unpickle it; it gets a contiguous block of at most
    ``MAX_BLOCK_ROWS`` rows and returns a tuple of numeric arrays (its
    columns) with entries in row order, one per row or, in a ragged column
    such as the search's ``inside``, any number per row, each depending on
    its row and ``shared`` alone.  The
    m rows are cut into contiguous slices of ceil(m / W) rows for W workers;
    under a byte budget a slice holds at most the tasks of ``per_task_cost``
    bytes each that a worker's share of the budget covers, and at least one.
    So at most W slices are in flight at once.  With one worker the slices
    are decided in-process; with more, ``map_slices`` feeds them to the
    workers, each taking the next as it finishes.  Each column is
    concatenated once over the level's blocks, so the result is that of one
    in-process call on all rows, whatever the slicing.
    """
    if per_task_cost <= 0:
        raise ValueError("per_task_cost must be positive")
    m, workers, budget = len(rows), ex.cfg.num_workers, ex.cfg.mem_budget_bytes
    if not m:
        # no rows: the columns, empty, of an in-process call
        return decide(shared, rows, ex.test, ex.cfg.alpha)
    size = -(-m // workers)
    if budget is not None:
        size = min(size, max(1, budget // (per_task_cost * workers)))
    ex.peak_tasks_in_flight = max(ex.peak_tasks_in_flight, min(m, workers * size))
    slices = [rows[start:start + size] for start in range(0, m, size)]
    if workers == 1:
        decided = [_decide_blocks(decide, shared, s, ex.test, ex.cfg.alpha) for s in slices]
    else:
        decided = ex.map_slices([(decide, shared, s) for s in slices])
    return tuple(np.concatenate(column) for column in zip(*chain.from_iterable(decided)))


def stable_levels(ex: LevelExecutor, suff: object, adj: np.ndarray, edges: np.ndarray
                  ) -> Iterator[tuple[int, np.ndarray, tuple[np.ndarray, ...]]]:
    """The stable rule's levels on the graph ``adj``, which it updates.

    ``edges`` lists every edge of ``adj`` as (i, j), i < j, ascending.  Up to
    ``ex.cfg.max_level``, a level decides the edges with an endpoint of
    degree above the level against ``adj`` as the level found it (nothing
    writes ``adj`` while ``run_level`` runs), removes the accepted ones from
    ``adj`` and yields the level, its edges and ``decide_edges``'s columns;
    ``suff`` sizes the slices.  The filter runs on each level's survivors,
    not at level 0, where every edge gives both its ends degree 1 or more:
    an edge left out has both degrees at most the level, and degrees only
    fall.  Stops at the first level with no edge to test.
    """
    max_level = ex.cfg.max_level
    level = 0
    while len(edges) and (max_level is None or level <= max_level):
        decided = run_level(ex, decide_edges, (level, adj), edges,
                            estimate_task_cost(level, suff))
        found = decided[0]
        gone = edges[found]
        adj[gone[:, 0], gone[:, 1]] = adj[gone[:, 1], gone[:, 0]] = False
        del gone                    # freed before the caller's merge
        yield level, edges, decided
        edges = edges[~found]
        level += 1
        degree = np.bincount(edges.ravel(), minlength=len(adj))
        edges = edges[(degree[edges[:, 0]] > level) | (degree[edges[:, 1]] > level)]


def _suff_dim(suff: object) -> int | None:
    p = getattr(suff, "p", None)
    return int(p) if isinstance(p, int) else None


def skeleton_stable(suff: object, test: CiTest, p: int,
                    cfg: SkeletonConfig) -> tuple[SkeletonGraph, SepsetMap, LevelStats]:
    """Learn the undirected skeleton with the level-synchronized stable rule.

    ``suff`` is the sufficient statistic the test closes over (also consulted
    for per-task cost estimates); ``p`` is the variable count.  Returns the
    skeleton, the separating set recorded for each removed edge, and the
    per-level statistics.

    The levels are ``stable_levels`` on the complete graph: an edge's sets
    come from the level-start neighbourhoods of both endpoints, and the
    first accepted set removes the edge and becomes its sepset.  Removals
    apply at level end, so the output depends neither on variable order nor
    on the parallel schedule.

    A final phase searches the finished skeleton: for each non-adjacent pair
    that shares a neighbour it tests every distinct subset of the pair's
    final neighbourhoods with sizes from the removal level up to the larger
    neighbourhood (capped at ``cfg.max_level``), and records each unshielded
    triple's vote with ``SepsetMap.set_votes``: how many sets accepted its
    ends, and how many of them hold its middle.  It runs on the same
    executor and slicing as a level.  Its tests
    (``LevelStats.search_tests``) usually add a few per cent to the level
    tests, but grow exponentially with the final degree.  The first-found
    sets are left as they are.
    """
    if p < 2:
        raise ValueError(f"need at least two variables, got {p}")
    dim = _suff_dim(suff)
    if dim is not None and dim != p:
        raise ValueError(f"sufficient statistic covers {dim} variables, expected {p}")

    graph = complete_graph(p)
    sepsets = SepsetMap(p)
    level_rows: list[LevelStat] = []
    with LevelExecutor(cfg, test) as ex:
        started = time.perf_counter()
        levels = stable_levels(ex, suff, graph.adj, np.argwhere(np.triu(graph.adj, 1)))
        for level, edges, (found, accepted, tests, degenerate, _) in levels:
            sepsets.set_many(edges[found], accepted[found])
            level_rows.append(LevelStat(
                level=level,
                tests=int(tests.sum()),
                removals=int(found.sum()),
                degenerate=int(degenerate.sum()),
                wall_ms=(time.perf_counter() - started) * 1000.0,
            ))
            started = time.perf_counter()

        triples, rows, pair = _search_rows(graph, sepsets, cfg.max_level)
        cost = estimate_task_cost(int(rows[:, 3].max(initial=0)), suff)
        total, search_tests, inside = run_level(ex, _search_pairs, graph.adj, rows, cost)
        sepsets.set_votes(triples, inside, total[pair])
    return graph, sepsets, LevelStats(tuple(level_rows), ex.peak_tasks_in_flight,
                                      int(search_tests.sum()))
