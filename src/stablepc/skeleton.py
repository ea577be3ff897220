"""Order-independent skeleton learning with level-parallel CI testing.

The search starts from the complete graph and proceeds in levels, where the
level is the conditioning-set size.  All CI tests of one level run against an
immutable snapshot of the graph taken at level start, and every removal is
applied in a single-threaded merge at level end.

One level engine, ``run_level``, evaluates the tasks of a level.  A task is
one row of an integer array, and the row together with the level's shared
snapshot fixes everything that determines its outcome: a module-level
``decide(shared, rows, test, alpha)`` function, which decides a block of
rows, reads nothing else.  So any worker count and any batch partition
produce results identical to the sequential run.  The engine has three
clients, each with its own ``decide``: the skeleton levels
(``decide_edges``), the separating-set search after the last level
(``_search_pairs``) and PC-simple (``inference.decide_candidates``).

A skeleton level decides a block in rounds: each round evaluates the next
conditioning set of every undecided edge with one call of the test's batched
``pvalues``.  The search evaluates all sets of one size of a block's pairs
together.  A test without ``pvalues`` is called once per set through
``_scalar_pvalues``, in the same rounds.

Batching bounds how many tasks are dispatched at once so a run on a
memory-constrained machine does not hold the whole level in flight while
waiting for the merge barrier.  Batch boundaries never influence results,
only scheduling.

After the last level, the separating-set search on the final skeleton
records, for every non-adjacent pair that shares a neighbour, every accepting
set drawn from the pair's final neighbourhoods.  Orientation votes over what
it finds.
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
from itertools import combinations, islice
from multiprocessing.connection import Connection
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .citests import CiTest, DegenerateConditioningError
from .data import DiscreteSuffStat
from .graphs import SepsetMap, SkeletonGraph, complete_graph

DEFAULT_MEM_BUDGET_BYTES = 512 * 1024 * 1024

# Per-task scratch estimates, fixed by rough measurement and frozen: the
# planner only shapes batch boundaries, never results.
GAUSSIAN_TASK_BASE = 512       # task + decision bookkeeping
GAUSSIAN_TASK_CELL = 48        # submatrix entry + inverse + factorization scratch
DISCRETE_TASK_BASE = 512
DISCRETE_TABLE_CELL = 16       # observed count + expected frequency per cell
MAX_TABLE_CELLS = 1 << 20
# Most task rows one ``decide`` call receives, and most sets one ``pvalues``
# call receives.  It caps a block's per-row state (a set generator per edge)
# and the stacked submatrices of a call, whatever the batch size or the
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

    ``force_batch_size`` overrides the planner with a fixed batch size in
    every mode; it exists so equivalence across batch partitions can be
    verified directly.
    """

    alpha: float = 0.01
    max_level: int | None = None
    num_workers: int = 1
    mem_efficient: bool = False
    mem_budget_bytes: int | None = None
    mem_probe: bool = False
    force_batch_size: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if self.max_level is not None and self.max_level < 0:
            raise ValueError("max_level must be nonnegative")
        if self.mem_budget_bytes is not None and self.mem_budget_bytes < 1:
            raise ValueError("mem_budget_bytes must be positive")
        if self.force_batch_size is not None and self.force_batch_size < 1:
            raise ValueError("force_batch_size must be positive")


@dataclass(frozen=True)
class BatchPlan:
    """Ordered partition of a level's task rows into contiguous chunks."""

    batches: tuple[Sequence, ...]

    def __post_init__(self) -> None:
        for b in self.batches:
            if len(b) == 0:
                raise ValueError("batches must be non-empty")


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
    """Per-level counters plus the peak dispatch size of the whole run.

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
               size: int) -> Iterator[tuple[tuple[int, tuple[int, ...]], float]]:
    """Test each (k, set) of ``drawn`` for the pair in ``rows[k, :2]``.

    Yields ((k, set), p) in the order drawn; ``pvalues`` gets one call per
    ``MAX_BLOCK_ROWS`` sets, all of size ``size``.
    """
    drawn = iter(drawn)
    while chunk := list(islice(drawn, MAX_BLOCK_ROWS)):
        ks, subs = zip(*chunk)
        pairs = rows.take(ks, axis=0)
        s = np.array(subs, dtype=np.int64).reshape(len(chunk), size)
        yield from zip(chunk, pvalues(pairs[:, 0], pairs[:, 1], s).tolist())


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
                 alpha: float) -> list[tuple[tuple[int, ...] | None, int, int]]:
    """Decide a block of edges for their level; first acceptance wins.

    ``shared`` is the level and the level-start adjacency matrix; ``rows``
    holds edges (i, j), i < j.  An edge's sets of the level's size come from
    i's neighbourhood minus j in lexicographic order, then from j's minus i,
    skipping sets already covered by i's side.  Round t tests the t-th set
    of every edge still undecided, in one ``pvalues`` call, so each edge
    runs exactly the tests a set-by-set loop would.  A degenerate set (NaN)
    counts as dependence and enumeration continues.  Returns per edge the
    accepting set (None when the edge stays), the tests run and the
    degenerate sets among them.
    """
    level, adj = shared
    pvalues = _pvalues(test)
    edges = rows.tolist()
    if level:
        nbrs = _neighbours(adj, rows)
        sets = [_pair_sets(_without(nbrs[i], j), _without(nbrs[j], i), level)
                for i, j in edges]
    else:
        # every edge has the one set (): its sides need not be built
        sets = [_pair_sets((), (), 0) for _ in edges]
    sepsets: list[tuple[int, ...] | None] = [None] * len(edges)
    tests = [0] * len(edges)
    degenerate = [0] * len(edges)
    undecided = range(len(edges))
    while undecided:
        drawn = [(k, sub) for k in undecided
                 if (sub := next(sets[k], None)) is not None]
        undecided = []
        for (k, sub), p in _test_sets(pvalues, rows, drawn, level):
            tests[k] += 1
            if p > alpha:
                sepsets[k] = sub
            else:
                degenerate[k] += math.isnan(p)
                undecided.append(k)
    return list(zip(sepsets, tests, degenerate))


def _search_pairs(adj: np.ndarray, rows: np.ndarray, test: CiTest,
                  alpha: float) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """Every accepting set of each non-adjacent pair, and the tests run.

    ``adj`` is the final adjacency matrix; ``rows`` holds (i, j, min_size,
    max_size).  Each size enumerates like ``decide_edges``, over the pair's
    full neighbourhoods, and the sets of one size of every pair in the block
    are tested together.  A degenerate set does not accept.
    """
    pvalues = _pvalues(test)
    nbrs = _neighbours(adj, rows)
    pairs = rows.tolist()
    found: list[list[tuple[int, ...]]] = [[] for _ in pairs]
    tests = [0] * len(pairs)
    for size in range(int(rows[:, 2].min()), int(rows[:, 3].max()) + 1):
        for (k, sub), p in _test_sets(pvalues, rows, _sets_of_size(pairs, nbrs, size),
                                      size):
            tests[k] += 1
            if p > alpha:
                found[k].append(sub)
    return [(tuple(f), t) for f, t in zip(found, tests)]


def _sets_of_size(pairs: list[list[int]], nbrs: dict[int, tuple[int, ...]],
                  size: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(k, set) for the ``size``-sets of every pair k whose range holds size."""
    for k, (i, j, low, high) in enumerate(pairs):
        if low <= size <= high:
            for sub in _pair_sets(nbrs[i], nbrs[j], size):
                yield k, sub


def _search_rows(graph: SkeletonGraph, sepsets: SepsetMap,
                 max_level: int | None) -> np.ndarray:
    """One row (i, j, min_size, max_size) per non-adjacent pair (i < j)
    sharing a neighbour, ascending.

    Sizes below the removal level need no test: while the edge was present
    the skeleton tested and rejected every such subset of these (then
    larger) neighbourhoods.
    """
    adj = graph.adj.astype(np.float32)
    shares = (adj @ adj > 0) & ~graph.adj
    degree = graph.adj.sum(axis=1).tolist()
    rows = []
    for i, j in np.argwhere(np.triu(shares, 1)).tolist():
        top = max(degree[i], degree[j])
        if max_level is not None:
            top = min(top, max_level)
        rows.append((i, j, len(sepsets.get(i, j)), top))
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


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
    """Deterministic per-task memory estimate in bytes for batch planning.

    Gaussian tasks scale with the (level+2)-square submatrix; discrete tasks
    with the contingency cells of a worst-case conditioning set (the level
    largest arities), capped.  Statistics without a recognized kind (the
    d-separation oracle) fall back to the Gaussian formula.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    if isinstance(suff, DiscreteSuffStat):
        cells = 1
        for a in sorted(suff.arities, reverse=True)[:level]:
            cells = min(cells * a, MAX_TABLE_CELLS)
        return DISCRETE_TASK_BASE + DISCRETE_TABLE_CELL * cells
    side = level + 2
    return GAUSSIAN_TASK_BASE + GAUSSIAN_TASK_CELL * side * side


def plan_batches(tasks: Sequence, cfg: SkeletonConfig,
                 per_task_cost: int) -> BatchPlan:
    """Partition a level's task rows into contiguous batches.

    Without the memory-efficient flag everything goes into one batch.  With
    it, the batch size is the worker count times the per-worker task count
    that fits the byte budget (explicit, probed, or the 512 MiB default).
    """
    if per_task_cost <= 0:
        raise ValueError("per_task_cost must be positive")
    n = len(tasks)
    if n == 0:
        return BatchPlan(())
    if cfg.force_batch_size is not None:
        size = min(cfg.force_batch_size, n)
    elif not cfg.mem_efficient:
        return BatchPlan((tasks,))
    else:
        budget = cfg.mem_budget_bytes
        if budget is None and cfg.mem_probe:
            budget = probe_free_memory()
        if budget is None:
            budget = DEFAULT_MEM_BUDGET_BYTES
        per_worker = budget // (per_task_cost * cfg.num_workers)
        per_worker = max(1, min(per_worker, n))
        size = min(per_worker * cfg.num_workers, n)
    return BatchPlan(tuple(tasks[k:k + size] for k in range(0, n, size)))


# ---------------------------------------------------------------------------
# Worker-side machinery.  One set of worker processes per engine run, each
# bound to the CI test and alpha when it starts and talking to the executor
# over its own pipe.  Every slice travels in one format, ``(decide, shared,
# rows)``: the client's module-level decide function (pickled by reference),
# the level's shared snapshot and a contiguous block of the integer task rows.
# A worker replies ``(True, results)``, or ``(False, error)`` when the slice
# raised.

Decide = Callable[[object, np.ndarray, CiTest, float], list]


def _decide_blocks(decide: Decide, shared: object, rows: np.ndarray, test: CiTest,
                   alpha: float) -> list:
    """``decide`` over contiguous blocks of at most ``MAX_BLOCK_ROWS`` rows."""
    results: list = []
    for start in range(0, len(rows), MAX_BLOCK_ROWS):
        results.extend(decide(shared, rows[start:start + MAX_BLOCK_ROWS], test, alpha))
    return results


def _worker_loop(conn: Connection, test: CiTest, alpha: float) -> None:
    """Decide each slice received on ``conn`` until it sends None or closes."""
    while True:
        try:
            message = conn.recv_bytes()
        except EOFError:
            return
        try:
            payload = pickle.loads(message)
            if payload is None:
                return
            decide, shared, rows = payload
            reply = (True, _decide_blocks(decide, shared, rows, test, alpha))
        except Exception as exc:
            reply = (False, repr(exc))
        conn.send(reply)


def _even_slices(items: Sequence, parts: int) -> list[Sequence]:
    """Split into at most ``parts`` contiguous slices whose sizes differ by <= 1."""
    n = len(items)
    parts = min(parts, n)
    base, extra = divmod(n, parts)
    out = []
    start = 0
    for k in range(parts):
        size = base + (1 if k < extra else 0)
        out.append(items[start:start + size])
        start += size
    return out


class LevelExecutor:
    """Fork-join worker pool bound to one (test, alpha) pair for one engine run.

    Lazily starts its worker processes on the first parallel dispatch, so
    sequential runs never fork.  Each instance owns its workers; concurrent
    engine runs on distinct inputs use distinct executors.  A dispatch sends
    each worker one slice down its pipe and waits for every reply, with no
    queue or thread in between.  It also keeps the largest batch
    ``run_level`` dispatched through it.
    """

    def __init__(self, num_workers: int, test: CiTest, alpha: float):
        self.num_workers = num_workers
        self.test = test
        self.alpha = alpha
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
            for _ in range(self.num_workers):
                here, there = multiprocessing.Pipe()
                proc = multiprocessing.Process(
                    target=_worker_loop, args=(there, self.test, self.alpha),
                    daemon=True)
                proc.start()
                there.close()
                self._workers.append((proc, here))
        return self._workers

    def map_slices(self, payloads: Sequence) -> list[list]:
        """Run one slice per payload; gather results in submission order."""
        workers = self._ensure_workers()
        results = []
        try:
            for start in range(0, len(payloads), len(workers)):
                wave = payloads[start:start + len(workers)]
                for (_, conn), payload in zip(workers, wave):
                    conn.send(payload)
                for (_, conn), _ in zip(workers, wave):
                    ok, reply = conn.recv()
                    if not ok:
                        raise LevelExecutionError(f"worker failed: {reply}")
                    results.append(reply)
        except LevelExecutionError:
            self.close()
            raise
        except Exception as exc:
            self.close()
            raise LevelExecutionError(f"worker failed: {exc!r}") from exc
        return results


def run_level(ex: LevelExecutor, decide: Decide, shared: object, rows: np.ndarray,
              cfg: SkeletonConfig, per_task_cost: int) -> list:
    """Decide every task row against the shared snapshot, in row order.

    ``decide(shared, rows, test, alpha)`` must be a module-level function so
    that workers can unpickle it; it gets a contiguous block of at most
    ``MAX_BLOCK_ROWS`` rows and returns one result per row, each depending on
    its row and ``shared`` alone.  The rows are split into batches by
    ``plan_batches``.  With one worker a batch is decided in-process; with
    more, each worker gets an even contiguous slice of it, and the gathered
    results are element-for-element those of the in-process run.
    """
    results: list = []
    for batch in plan_batches(rows, cfg, per_task_cost).batches:
        ex.peak_tasks_in_flight = max(ex.peak_tasks_in_flight, len(batch))
        if ex.num_workers == 1:
            results.extend(_decide_blocks(decide, shared, batch, ex.test, ex.alpha))
            continue
        slices = _even_slices(batch, ex.num_workers)
        for chunk in ex.map_slices([(decide, shared, s) for s in slices]):
            results.extend(chunk)
    return results


def _suff_dim(suff: object) -> int | None:
    p = getattr(suff, "p", None)
    return int(p) if isinstance(p, int) else None


def skeleton_stable(suff: object, test: CiTest, p: int,
                    cfg: SkeletonConfig) -> tuple[SkeletonGraph, SepsetMap, LevelStats]:
    """Learn the undirected skeleton with the level-synchronized stable rule.

    ``suff`` is the sufficient statistic the test closes over (also consulted
    for batch cost estimates); ``p`` is the variable count.  Returns the
    skeleton, the separating set recorded for each removed edge, and the
    per-level statistics.

    For each level, every surviving edge is tested against conditioning sets
    of the level's size drawn from the level-start neighborhoods of both
    endpoints; the first accepted set removes the edge and becomes its
    sepset.  Every task of the level reads one snapshot, the level-start
    adjacency matrix.  Removals are applied only after the whole level has
    been decided, which makes the output independent of variable order and
    of the parallel schedule.

    A final phase searches the finished skeleton: for each non-adjacent pair
    that shares a neighbour it tests every distinct subset of the pair's
    final neighbourhoods with sizes from the removal level up to the larger
    neighbourhood (capped at ``cfg.max_level``), and records all accepting
    sets with ``SepsetMap.set_search``.  It runs on the same executor and
    batching as a level.  Its tests (``LevelStats.search_tests``) usually
    add a few per cent to the level tests, but grow exponentially with the
    final degree.  The first-found sets are left as they are.
    """
    if p < 2:
        raise ValueError(f"need at least two variables, got {p}")
    dim = _suff_dim(suff)
    if dim is not None and dim != p:
        raise ValueError(f"sufficient statistic covers {dim} variables, expected {p}")

    graph = complete_graph(p)
    sepsets = SepsetMap()
    level_rows: list[LevelStat] = []
    with LevelExecutor(cfg.num_workers, test, cfg.alpha) as ex:
        level = 0
        while cfg.max_level is None or level <= cfg.max_level:
            started = time.perf_counter()
            degree = graph.adj.sum(axis=1)
            edges = np.argwhere(np.triu(graph.adj, 1))
            edges = edges[(degree[edges[:, 0]] > level) | (degree[edges[:, 1]] > level)]
            if len(edges) == 0:
                break
            decided = run_level(ex, decide_edges, (level, graph.adj.copy()), edges,
                                cfg, estimate_task_cost(level, suff))
            removed = [k for k, (sepset, _, _) in enumerate(decided) if sepset is not None]
            gone = edges[removed]
            graph.adj[gone[:, 0], gone[:, 1]] = graph.adj[gone[:, 1], gone[:, 0]] = False
            for (i, j), k in zip(gone.tolist(), removed):
                sepsets.set(i, j, decided[k][0])
            level_rows.append(LevelStat(
                level=level,
                tests=sum(tests for _, tests, _ in decided),
                removals=len(removed),
                degenerate=sum(nan for _, _, nan in decided),
                wall_ms=(time.perf_counter() - started) * 1000.0,
            ))
            level += 1

        rows = _search_rows(graph, sepsets, cfg.max_level)
        cost = estimate_task_cost(int(rows[:, 3].max(initial=0)), suff)
        search_tests = 0
        for (i, j, _, _), (found, performed) in zip(
                rows.tolist(), run_level(ex, _search_pairs, graph.adj.copy(), rows,
                                         cfg, cost)):
            sepsets.set_search(i, j, found)
            search_tests += performed
    return graph, sepsets, LevelStats(tuple(level_rows), ex.peak_tasks_in_flight,
                                      search_tests)
