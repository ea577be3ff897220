"""Order-independent skeleton learning with level-parallel CI testing.

The search starts from the complete graph and proceeds in levels, where the
level is the conditioning-set size.  All CI tests of one level run against an
immutable snapshot of the graph taken at level start, and every removal is
applied in a single-threaded merge at level end.

One level engine, ``run_level``, evaluates the tasks of a level.  A task is
one row of an integer array, and the row together with the level's shared
snapshot fixes everything that determines its outcome: a module-level
``decide(shared, row, test, alpha)`` function reads nothing else.  So any
worker count and any batch partition produce results identical to the
sequential run.  The engine has three clients, each with its own ``decide``:
the skeleton levels (``decide_edge``), the separating-set search after the
last level (``_search_pair``) and PC-simple (``inference.decide_candidate``).

Batching bounds how many tasks sit in worker queues at once so a run on a
memory-constrained machine does not hold the whole level in flight while
waiting for the merge barrier.  Batch boundaries never influence results,
only scheduling.

After the last level, the separating-set search on the final skeleton
records, for every non-adjacent pair that shares a neighbour, every accepting
set drawn from the pair's final neighbourhoods.  Orientation votes over what
it finds.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, Sequence

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
    level: int
    tests: int
    removals: int
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


def decide_edge(shared: tuple[int, Sequence[tuple[int, ...]]], row: Sequence[int],
                test: CiTest, alpha: float) -> tuple[tuple[int, ...] | None, int]:
    """Run one edge's conditioning sets for its level; first acceptance wins.

    ``shared`` is the level and the level-start neighbour tuples (ascending,
    indexed by variable); ``row`` is the edge (i, j), i < j.  Sets of the
    level's size are drawn from i's neighbourhood (minus j) in lexicographic
    order, then from j's side skipping sets already covered by i's side.  A
    degenerate-conditioning failure counts as dependence for that set and
    enumeration continues.  Returns the accepting set (None when the edge
    stays) and the number of tests run.
    """
    level, nbrs = shared
    i, j = row
    side_i = tuple(v for v in nbrs[i] if v != j)
    side_j = tuple(v for v in nbrs[j] if v != i)
    tests = 0
    for sub in combinations(side_i, level):
        tests += 1
        try:
            outcome = test(i, j, sub)
        except DegenerateConditioningError:
            continue
        if outcome.p_value > alpha:
            return sub, tests
    covered = set(side_i)
    for sub in combinations(side_j, level):
        if all(v in covered for v in sub):
            continue
        tests += 1
        try:
            outcome = test(i, j, sub)
        except DegenerateConditioningError:
            continue
        if outcome.p_value > alpha:
            return sub, tests
    return None, tests


def _search_pair(nbrs: Sequence[tuple[int, ...]], row: Sequence[int], test: CiTest,
                 alpha: float) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Every accepting set of one non-adjacent pair, and the number of tests run.

    ``nbrs`` holds the final neighbour tuples; ``row`` is (i, j, min_size,
    max_size).  Each size enumerates like ``decide_edge``: i's neighbourhood
    in lexicographic order, then j's skipping sets already covered by i's,
    so each distinct set is tested once.  A degenerate set does not accept.
    """
    i, j, min_size, max_size = row
    side_i, side_j = nbrs[i], nbrs[j]
    covered = set(side_i)
    found = []
    tests = 0
    for size in range(min_size, max_size + 1):
        from_j = (sub for sub in combinations(side_j, size)
                  if not all(v in covered for v in sub))
        for sub in chain(combinations(side_i, size), from_j):
            tests += 1
            try:
                outcome = test(i, j, sub)
            except DegenerateConditioningError:
                continue
            if outcome.p_value > alpha:
                found.append(sub)
    return tuple(found), tests


def _search_rows(graph: SkeletonGraph, sepsets: SepsetMap,
                 nbrs: Sequence[tuple[int, ...]], max_level: int | None) -> np.ndarray:
    """One row (i, j, min_size, max_size) per non-adjacent pair (i < j)
    sharing a neighbour, ascending.

    Sizes below the removal level need no test: while the edge was present
    the skeleton tested and rejected every such subset of these (then
    larger) neighbourhoods.
    """
    adj = graph.adj.astype(np.float32)
    shares = (adj @ adj > 0) & ~graph.adj
    rows = []
    for i, j in np.argwhere(np.triu(shares, 1)).tolist():
        top = max(len(nbrs[i]), len(nbrs[j]))
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
# Worker-side machinery.  One process pool per engine run; workers hold the
# CI test and alpha in a module global set by the pool initializer.  Every
# slice travels in one format, ``(decide, shared, rows)``: the client's
# module-level decide function (pickled by reference), the level's shared
# snapshot and a contiguous block of the integer task rows.

_WORKER_CONTEXT: tuple[CiTest, float] | None = None

Decide = Callable[[object, list, CiTest, float], object]


def _init_worker(test: CiTest, alpha: float) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = (test, alpha)


def _run_slice(payload: tuple[Decide, object, np.ndarray]) -> list:
    assert _WORKER_CONTEXT is not None, "worker context missing"
    test, alpha = _WORKER_CONTEXT
    decide, shared, rows = payload
    return [decide(shared, row, test, alpha) for row in rows.tolist()]


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
    """Fork-join pool bound to one (test, alpha) pair for one engine run.

    Lazily spins up the process pool on the first parallel dispatch, so
    sequential runs never fork.  Each instance owns its pool; concurrent
    engine runs on distinct inputs use distinct executors.  It also keeps
    the largest batch ``run_level`` dispatched through it.
    """

    def __init__(self, num_workers: int, test: CiTest, alpha: float):
        self.num_workers = num_workers
        self.test = test
        self.alpha = alpha
        self.peak_tasks_in_flight = 0
        self._pool: ProcessPoolExecutor | None = None

    def __enter__(self) -> "LevelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.num_workers,
                initializer=_init_worker,
                initargs=(self.test, self.alpha),
            )
        return self._pool

    def map_slices(self, payloads: Sequence) -> list[list]:
        """Run one slice per payload; gather results in submission order."""
        pool = self._ensure_pool()
        futures = [pool.submit(_run_slice, payload) for payload in payloads]
        results = []
        try:
            for f in futures:
                results.append(f.result())
        except Exception as exc:
            for f in futures:
                f.cancel()
            self.close()
            raise LevelExecutionError(f"worker failed: {exc!r}") from exc
        return results


def run_level(ex: LevelExecutor, decide: Decide, shared: object, rows: np.ndarray,
              cfg: SkeletonConfig, per_task_cost: int) -> list:
    """Decide every task row against the shared snapshot, in row order.

    ``decide(shared, row, test, alpha)`` must be a module-level function so
    that workers can unpickle it; each row reaches it as a list of ints.  The
    rows are split into batches by ``plan_batches``.  With one worker a batch
    runs in-process; with more, each worker gets an even contiguous slice of
    it, and the gathered results are element-for-element those of the
    in-process loop.
    """
    results: list = []
    for batch in plan_batches(rows, cfg, per_task_cost).batches:
        ex.peak_tasks_in_flight = max(ex.peak_tasks_in_flight, len(batch))
        if ex.num_workers == 1:
            results.extend(decide(shared, row, ex.test, ex.alpha)
                           for row in batch.tolist())
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
    sepset.  Removals are applied only after the whole level has been
    decided, which makes the output independent of variable order and of the
    parallel schedule.

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
            nbrs = [tuple(graph.neighbors(v)) for v in range(p)]
            degree = graph.adj.sum(axis=1)
            edges = np.argwhere(np.triu(graph.adj, 1))
            edges = edges[(degree[edges[:, 0]] > level) | (degree[edges[:, 1]] > level)]
            if len(edges) == 0:
                break
            results = run_level(ex, decide_edge, (level, nbrs), edges, cfg,
                                estimate_task_cost(level, suff))
            tests = removals = 0
            for (i, j), (sepset, performed) in zip(edges.tolist(), results):
                tests += performed
                if sepset is not None:
                    graph.remove_edge(i, j)
                    sepsets.set(i, j, sepset)
                    removals += 1
            level_rows.append(LevelStat(
                level=level,
                tests=tests,
                removals=removals,
                wall_ms=(time.perf_counter() - started) * 1000.0,
            ))
            level += 1

        nbrs = [tuple(graph.neighbors(v)) for v in range(p)]
        rows = _search_rows(graph, sepsets, nbrs, cfg.max_level)
        cost = estimate_task_cost(int(rows[:, 3].max(initial=0)), suff)
        search_tests = 0
        for (i, j, _, _), (found, performed) in zip(
                rows.tolist(), run_level(ex, _search_pair, nbrs, rows, cfg, cost)):
            sepsets.set_search(i, j, found)
            search_tests += performed
    return graph, sepsets, LevelStats(tuple(level_rows), ex.peak_tasks_in_flight,
                                      search_tests)
