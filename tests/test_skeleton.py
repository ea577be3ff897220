"""Tests for the level-synchronized skeleton engine."""

import os
from dataclasses import dataclass

import numpy as np
import pytest

from oracles import random_dag, true_skeleton_edges
from stablepc import (
    Dag,
    Dataset,
    DiscreteSuffStat,
    FisherZTest,
    GaussianSuffStat,
    LevelExecutionError,
    OracleTest,
    SkeletonConfig,
    gaussian_suffstat,
    pc_simple,
    skeleton_stable,
)
from stablepc import skeleton
from stablepc.cli import random_weighted_dag
from stablepc.inference import linear_sem_sample
from stablepc.skeleton import (
    DISCRETE_TABLE_CELL,
    GAUSSIAN_TASK_BASE,
    GAUSSIAN_TASK_CELL,
    LevelExecutor,
    decide_edges,
    estimate_task_cost,
    plan_batches,
    probe_free_memory,
    run_level,
    stable_levels,
)

# byte budgets: each level in one batch; one task per worker per batch; and
# batches of a few dozen tasks at level 0 that shrink as tasks grow
MEM_BUDGETS = (None, 1, 16 * 1024)


def gaussian_case(seed, p=12, n=300, density=0.2):
    rng = np.random.default_rng(seed)
    dag, weights = random_weighted_dag(p, density, rng)
    dataset = linear_sem_sample(dag, weights, n, noise_seed=seed)
    return gaussian_suffstat(dataset)


def run_outputs(suff, test, p, cfg):
    graph, seps, stats = skeleton_stable(suff, test, p, cfg)
    return graph.adj.copy(), seps, stats


class TestConfigValidation:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            SkeletonConfig(alpha=0.0)
        with pytest.raises(ValueError):
            SkeletonConfig(alpha=1.0)

    def test_workers(self):
        with pytest.raises(ValueError):
            SkeletonConfig(num_workers=0)


def adjacency(p, nbrs):
    """Symmetric adjacency matrix holding each listed neighbourhood."""
    adj = np.zeros((p, p), dtype=bool)
    for u, vs in enumerate(nbrs):
        for v in vs:
            adj[u, v] = adj[v, u] = True
    return adj


def decide_one(level, p, nbrs, edge, test):
    """``decide_edges`` on a one-edge block: (sepset or None, tests,
    degenerate, largest p or NaN)."""
    found, accepted, tests, degenerate, largest = decide_edges(
        (level, adjacency(p, nbrs)), np.array([edge], dtype=np.int64), test, 0.01)
    sepset = tuple(accepted[0].tolist()) if found[0] else None
    return sepset, int(tests[0]), int(degenerate[0]), float(largest[0])


def same_columns(a, b):
    """Two ``decide`` results hold equal columns, NaN equal to NaN."""
    return len(a) == len(b) and all(
        np.array_equal(x, y, equal_nan=x.dtype.kind == "f") for x, y in zip(a, b))


class TestDecideEdge:
    def test_level_zero_single_test(self):
        stat = GaussianSuffStat(np.eye(3), 100)
        sepset, tests, _, _ = decide_one(0, 3, [(1, 2), (0, 2)], (0, 1),
                                         FisherZTest(stat))
        assert sepset == () and tests == 1

    def test_enumeration_order_i_side_first(self):
        calls = []

        @dataclass(frozen=True)
        class Spy:
            def __call__(self, i, j, s):
                calls.append(tuple(s))
                from stablepc import CiTestOutcome
                return CiTestOutcome(0.0, 0.0, 0.0)

        decide_one(1, 5, [(1, 2, 4), (0, 3, 4)], (0, 1), Spy())
        # i's side: neighbors of 0 minus 1 -> (2,), (4,); then j's side:
        # neighbors of 1 minus 0 -> (3,), (4,) with (4,) already covered
        assert calls == [(2,), (4,), (3,)]

    def test_dedup_skips_shared_subsets(self):
        stat = GaussianSuffStat(np.eye(5), 100)
        sepset, tests, _, _ = decide_one(1, 5, [(1, 2, 3), (0, 2, 3)], (0, 1),
                                         FisherZTest(stat))
        assert sepset is not None and tests == 1  # first set (2,) accepts

    def test_degenerate_counts_as_dependence(self):
        # variables 0 and 2 are copies, so conditioning on {2} is singular;
        # variable 3 fully explains the 0-1 correlation (0.7 * 0.7 = 0.49)
        corr = np.array([[1.0, 0.49, 1.0, 0.7],
                         [0.49, 1.0, 0.49, 0.7],
                         [1.0, 0.49, 1.0, 0.7],
                         [0.7, 0.7, 0.7, 1.0]])
        stat = GaussianSuffStat(corr, 100)
        sepset, tests, degenerate, largest = decide_one(
            1, 4, [(1, 2, 3), (0, 2, 3)], (0, 1), FisherZTest(stat))
        # sets ordered (2,), (3,): (2,) degenerate -> skipped, (3,) accepts
        assert sepset == (3,)
        assert tests == 2
        assert degenerate == 1
        # the accepting p-value is not counted and the NaN of (2,) is no value
        assert np.isnan(largest)
        # 0 - 3 stays: (1,) rejects with a positive p-value, (2,) is degenerate
        sepset, tests, degenerate, largest = decide_one(
            1, 4, [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)], (0, 3),
            FisherZTest(stat))
        assert (sepset, tests, degenerate) == (None, 2, 1)
        assert largest == FisherZTest(stat)(0, 3, (1,)).p_value > 0.0

    def test_level_zero_nan_rows_are_degenerate_and_stay(self):
        # one pvalues call decides the block; a NaN row is a degenerate set
        # and keeps its edge
        rows = np.array([(i, j) for i in range(6) for j in range(i + 1, 6)],
                        dtype=np.int64)
        found, accepted, tests, degenerate, largest = decide_edges(
            (0, ~np.eye(6, dtype=bool)), rows, _ByPairSum(), 0.01)
        kind = rows.sum(axis=1) % 3
        assert accepted.shape == (len(rows), 0)
        assert found.tolist() == (kind == 1).tolist()
        assert degenerate.tolist() == (kind == 0).astype(int).tolist()
        assert tests.tolist() == [1] * len(rows)
        assert np.isnan(largest[kind != 2]).all() and (largest[kind == 2] == 0.005).all()
        graph, seps, stats = skeleton_stable(None, _ByPairSum(), 6,
                                             SkeletonConfig(max_level=0))
        assert sorted(graph.edges()) == [tuple(r) for r in rows[kind != 1].tolist()]
        assert seps.pair_array().tolist() == rows[kind == 1].tolist()
        assert (stats.levels[0].degenerate, stats.levels[0].removals) == \
            (int((kind == 0).sum()), int((kind == 1).sum()))

    def test_block_equals_one_edge_blocks(self):
        # the rounds of a block leave each edge's decision as it is alone
        suff = gaussian_case(2, p=9)
        shared = (2, adjacency(9, [[v for v in range(9) if v != u] for u in range(9)]))
        rows = np.array([(i, j) for i in range(9) for j in range(i + 1, 9)],
                        dtype=np.int64)
        block = decide_edges(shared, rows, FisherZTest(suff), 0.01)
        alone = [decide_edges(shared, rows[k:k + 1], FisherZTest(suff), 0.01)
                 for k in range(len(rows))]
        assert same_columns(block, [np.concatenate(c) for c in zip(*alone)])
        assert len(set(block[2].tolist())) > 1


class TestPlanBatches:
    def small_tasks(self, count):
        return np.array([(0, k + 1) for k in range(count)], dtype=np.int64)

    def test_single_batch_without_mem_flag(self):
        plan = plan_batches(self.small_tasks(1000), SkeletonConfig(), 64)
        assert len(plan) == 1 and len(plan[0]) == 1000

    def test_budget_partition_sizes(self):
        cfg = SkeletonConfig(mem_budget_bytes=1024, num_workers=2)
        tasks = self.small_tasks(100)
        plan = plan_batches(tasks, cfg, 64)
        # per worker: 1024 // (64*2) = 8 -> batch size 16
        sizes = [len(b) for b in plan]
        assert sizes == [16] * 6 + [4]
        assert np.array_equal(np.concatenate(plan), tasks)

    def test_budget_floor_is_one_per_worker(self):
        cfg = SkeletonConfig(mem_budget_bytes=1, num_workers=3)
        plan = plan_batches(self.small_tasks(10), cfg, 10 ** 9)
        assert [len(b) for b in plan] == [3, 3, 3, 1]

    def test_empty_tasks(self):
        assert plan_batches([], SkeletonConfig(), 64) == ()

    def test_invalid_cost(self):
        with pytest.raises(ValueError):
            plan_batches(self.small_tasks(3), SkeletonConfig(), 0)


class TestEstimateTaskCost:
    def test_gaussian_level_zero(self):
        stat = GaussianSuffStat(np.eye(3), 10)
        assert estimate_task_cost(0, stat) == GAUSSIAN_TASK_BASE + 4 * GAUSSIAN_TASK_CELL

    def test_monotone(self):
        stat = GaussianSuffStat(np.eye(3), 10)
        costs = [estimate_task_cost(level, stat) for level in range(8)]
        assert costs == sorted(costs)
        discrete = DiscreteSuffStat(np.zeros((5, 4), dtype=np.int64), [2, 2, 2, 2])
        dcosts = [estimate_task_cost(level, discrete) for level in range(6)]
        assert dcosts == sorted(dcosts)

    def test_discrete_arity_product(self):
        # min(n, prod of the level largest arities) strata of a1 * a2 cells
        discrete = DiscreteSuffStat(np.zeros((5, 4), dtype=np.int64), [2, 2, 2, 2])
        assert estimate_task_cost(3, discrete) - estimate_task_cost(0, discrete) == \
            DISCRETE_TABLE_CELL * (min(5, 8) - 1) * 2 * 2
        mixed = DiscreteSuffStat(np.zeros((100, 4), dtype=np.int64), [2, 5, 3, 4])
        assert estimate_task_cost(2, mixed) - estimate_task_cost(0, mixed) == \
            DISCRETE_TABLE_CELL * (5 * 4 - 1) * 5 * 4

    def test_probe_returns_plausible_value(self):
        free = probe_free_memory()
        assert free is None or free > 0


def run_engine(decide, shared, rows, test, workers):
    """``run_level`` on a fresh executor with ``workers`` workers."""
    with LevelExecutor(SkeletonConfig(num_workers=workers), test) as ex:
        return run_level(ex, decide, shared, rows, 64)


def _echo_row(shared, rows, test, alpha):
    return (rows,)


def _exit_worker(shared, rows, test, alpha):
    os._exit(3)


class TestRunLevelParallel:
    """The level engine, driven with the skeleton's level-1 edge tasks."""

    def make_level(self, p=8, seed=1):
        suff = gaussian_case(seed, p=p)
        adj = ~np.eye(p, dtype=bool)
        rows = np.array([(i, j) for i in range(p) for j in range(i + 1, p)],
                        dtype=np.int64)
        return (1, adj), rows, FisherZTest(suff)

    def test_worker_counts_agree(self):
        shared, rows, test = self.make_level()
        reference = run_engine(decide_edges, shared, rows, test, 1)
        assert same_columns(reference, decide_edges(shared, rows, test, 0.01))
        for workers in (2, 4, 8):
            assert same_columns(run_engine(decide_edges, shared, rows, test, workers),
                                reference)

    def test_result_order_matches_input(self):
        shared, rows, test = self.make_level()
        out = run_engine(_echo_row, shared, rows, test, 3)
        assert same_columns(out, (rows,))

    def test_empty_tasks(self):
        rows = np.empty((0, 2), dtype=np.int64)
        columns = run_engine(decide_edges, (0, np.zeros((2, 2), dtype=bool)), rows,
                             None, 4)
        assert len(columns) == 5 and all(len(c) == 0 for c in columns)

    def test_worker_failure_aborts_level(self):
        shared, rows, _ = self.make_level(p=4)
        with pytest.raises(LevelExecutionError):
            run_engine(decide_edges, shared, rows, _ExplodingTest(), 2)

    def test_worker_exit_aborts_level_and_executor_recovers(self):
        shared, rows, test = self.make_level(p=4)
        with LevelExecutor(SkeletonConfig(num_workers=2), test) as ex:
            with pytest.raises(LevelExecutionError):
                ex.map_slices([(_exit_worker, shared, rows[:1]),
                               (_echo_row, shared, rows[1:])])
            [[echoed]] = ex.map_slices([(_echo_row, shared, rows[:3])])
            assert same_columns(echoed, (rows[:3],))


@dataclass(frozen=True)
class _ByPairSum:
    """A batched-only stub: by (i + j) mod 3 a degenerate set, independence
    or dependence, whatever the set."""

    def pvalues(self, i, j, s):
        return np.array([np.nan, 0.5, 0.005])[(np.asarray(i) + np.asarray(j)) % 3]


@dataclass(frozen=True)
class _ExplodingTest:
    def __call__(self, i, j, s):
        raise RuntimeError("boom")


@dataclass(frozen=True)
class _ScalarOnly:
    """A CI callable without ``pvalues``, like a user-supplied test."""

    test: FisherZTest

    def __call__(self, i, j, s):
        return self.test(i, j, s)


@dataclass(frozen=True)
class _BatchedOnlyFisherZ(FisherZTest):
    def __call__(self, i, j, s):
        raise AssertionError("scalar Fisher z called during the levels")


def duplicated_column_case(seed=6, p=10):
    """A Gaussian statistic whose last variable copies variable 0 exactly, so
    every set holding both copies is singular."""
    corr = gaussian_case(seed, p=p - 1, density=0.3).corr
    idx = [*range(p - 1), 0]
    dup = corr[np.ix_(idx, idx)].copy()
    np.fill_diagonal(dup, 1.0)
    return GaussianSuffStat(dup, 300)


def counts(stats):
    return ([(s.level, s.tests, s.removals, s.degenerate) for s in stats.levels],
            stats.search_tests)


class TestBatchedPath:
    """Levels, search and PC-simple through ``pvalues`` against the scalar
    adapter."""

    def test_scalar_adapter_matches_batched(self):
        suff = duplicated_column_case()
        reference = run_outputs(suff, FisherZTest(suff), suff.p, SkeletonConfig())
        assert sum(s.degenerate for s in reference[2].levels) > 0
        assert reference[2].search_tests > 0
        for workers in (1, 2):
            for budget in MEM_BUDGETS:
                cfg = SkeletonConfig(num_workers=workers, mem_budget_bytes=budget)
                for test in (FisherZTest(suff), _ScalarOnly(FisherZTest(suff))):
                    adj, seps, stats = run_outputs(suff, test, suff.p, cfg)
                    assert np.array_equal(adj, reference[0])
                    assert seps == reference[1]
                    assert counts(stats) == counts(reference[2])

    def test_small_blocks_keep_results(self, monkeypatch):
        # blocks of 3 rows and pvalues calls of 3 sets change no decision
        suff = duplicated_column_case()
        reference = run_outputs(suff, FisherZTest(suff), suff.p, SkeletonConfig())
        monkeypatch.setattr(skeleton, "MAX_BLOCK_ROWS", 3)
        for workers in (1, 2):
            adj, seps, stats = run_outputs(suff, FisherZTest(suff), suff.p,
                                           SkeletonConfig(num_workers=workers))
            assert np.array_equal(adj, reference[0]) and seps == reference[1]
            assert counts(stats) == counts(reference[2])

    def test_levels_never_call_scalar_fisher_z(self):
        suff = gaussian_case(8, p=12)
        adj, seps, stats = run_outputs(suff, _BatchedOnlyFisherZ(suff), suff.p,
                                       SkeletonConfig())
        reference = run_outputs(suff, FisherZTest(suff), suff.p, SkeletonConfig())
        assert len(stats.levels) > 1 and stats.search_tests > 0
        assert np.array_equal(adj, reference[0]) and seps == reference[1]

    def test_pc_simple_never_calls_scalar_fisher_z(self):
        suff = gaussian_case(8, p=12)
        for target in range(suff.p):
            got = pc_simple(suff, _BatchedOnlyFisherZ(suff), target, 0.01,
                            SkeletonConfig())
            assert got == pc_simple(suff, FisherZTest(suff), target, 0.01,
                                    SkeletonConfig())

    def test_pc_simple_scalar_adapter_matches_batched(self):
        # targets 0 and 9 are copies, so every set holding the other copy
        # is degenerate
        suff = duplicated_column_case()
        for target in (0, 9, 4):
            reference = pc_simple(suff, FisherZTest(suff), target, 0.01,
                                  SkeletonConfig())
            assert reference.members
            for workers in (1, 2):
                for budget in MEM_BUDGETS:
                    cfg = SkeletonConfig(num_workers=workers, mem_budget_bytes=budget)
                    for test in (FisherZTest(suff), _ScalarOnly(FisherZTest(suff))):
                        got = pc_simple(suff, test, target, 0.01, cfg)
                        assert got == reference
                        assert list(got.p_values.items()) == \
                            list(reference.p_values.items())


class TestSkeletonStable:
    def test_identity_correlation_empties_graph(self):
        stat = GaussianSuffStat(np.eye(5), 100)
        graph, seps, stats = skeleton_stable(stat, FisherZTest(stat), 5,
                                             SkeletonConfig(alpha=0.01))
        assert list(graph.edges()) == []
        assert all(seps.get(i, j) == () for i in range(5) for j in range(i + 1, 5))
        assert stats.levels[0].removals == 10

    def test_oracle_chain(self):
        # by-hand oracle simulation: level 0 removes nothing (all pairs
        # marginally dependent), level 1 removes 0-2 with sepset (1,)
        dag = Dag(3, [[], [0], [1]])
        graph, seps, _ = skeleton_stable(dag, OracleTest(dag), 3, SkeletonConfig())
        assert sorted(graph.edges()) == [(0, 1), (1, 2)]
        assert seps.get(0, 2) == (1,)

    def test_oracle_collider(self):
        # 0 and 1 are marginally independent: removed at level 0, sepset ()
        dag = Dag(3, [[], [], [0, 1]])
        graph, seps, _ = skeleton_stable(dag, OracleTest(dag), 3, SkeletonConfig())
        assert sorted(graph.edges()) == [(0, 2), (1, 2)]
        assert seps.get(0, 1) == ()

    def test_oracle_matches_brute_force_skeleton(self):
        rng = np.random.default_rng(0)
        for _ in range(15):
            p = int(rng.integers(3, 8))
            dag = random_dag(p, 0.35, rng)
            graph, _, _ = skeleton_stable(dag, OracleTest(dag), p, SkeletonConfig())
            assert set(graph.edges()) == true_skeleton_edges(dag), dag.parents

    def test_parallel_and_batching_equivalence(self):
        suff = gaussian_case(3)
        reference = run_outputs(suff, FisherZTest(suff), suff.p,
                                SkeletonConfig(num_workers=1))
        for workers in (2, 4):
            for budget in MEM_BUDGETS:
                cfg = SkeletonConfig(num_workers=workers, mem_budget_bytes=budget)
                adj, seps, stats = run_outputs(suff, FisherZTest(suff), suff.p, cfg)
                assert np.array_equal(adj, reference[0])
                assert seps == reference[1]
                assert [(s.tests, s.removals) for s in stats.levels] == \
                    [(s.tests, s.removals) for s in reference[2].levels]

    def test_level_edges_match_a_full_scan(self):
        # each level's edges, taken from the previous level's survivors, are
        # those of a full scan of the level-start graph with its degrees
        suff = gaussian_case(5, p=10, density=0.3)
        adj = ~np.eye(suff.p, dtype=bool)
        start, left_out = adj.copy(), 0
        with LevelExecutor(SkeletonConfig(), FisherZTest(suff)) as ex:
            for level, edges, _ in stable_levels(ex, suff, adj,
                                                 np.argwhere(np.triu(adj, 1))):
                degree = start.sum(axis=1)
                scan = np.argwhere(np.triu(start, 1))
                kept = (degree[scan[:, 0]] > level) | (degree[scan[:, 1]] > level)
                assert np.array_equal(edges, scan[kept]), level
                start, left_out = adj.copy(), left_out + int((~kept).sum())
        assert level >= 2 and left_out > 0

    def test_oracle_chain_search_records_every_separator(self):
        # 0 - 1 - 2 share neighbour 1; sizes run from the removal level 1
        # up to the final neighbourhood size 1, and (1,) is the only set
        dag = Dag(3, [[], [0], [1]])
        _, seps, stats = skeleton_stable(dag, OracleTest(dag), 3, SkeletonConfig())
        assert seps.get_search(0, 2) == ((1,),)
        assert stats.search_tests == 1

    def test_search_records_every_accepting_set(self):
        # 0, 1 and 4 are independent causes of both 2 and 3: only the empty
        # set separates two of the causes, only {0, 1, 4} separates 2 and 3
        dag = Dag(5, [[], [], [0, 1, 4], [0, 1, 4], []])
        graph, seps, _ = skeleton_stable(dag, OracleTest(dag), 5, SkeletonConfig())
        assert sorted(graph.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3),
                                         (2, 4), (3, 4)]
        assert seps.get(0, 1) == ()
        assert seps.get_search(0, 1) == ((),)
        # 2 and 3 are separated by {0, 1, 4}; size 3 is the pool size
        assert seps.get_search(2, 3) == ((0, 1, 4),)
        assert seps.get_search(0, 4) == ((),)

    def test_search_equal_across_workers_and_batches(self):
        suff = gaussian_case(5, p=14, n=200, density=0.3)
        reference = run_outputs(suff, FisherZTest(suff), suff.p,
                                SkeletonConfig(num_workers=1))
        searched = [pair for pair in reference[1].pair_array().tolist()
                    if reference[1].get_search(*pair) is not None]
        assert searched and reference[2].search_tests > 0
        for workers in (1, 2):
            for budget in MEM_BUDGETS:
                cfg = SkeletonConfig(num_workers=workers, mem_budget_bytes=budget)
                _, seps, stats = run_outputs(suff, FisherZTest(suff), suff.p, cfg)
                assert [seps.get_search(*pair) for pair in searched] == \
                    [reference[1].get_search(*pair) for pair in searched]
                assert seps == reference[1]
                assert stats.search_tests == reference[2].search_tests

    def test_max_level_caps_search_sizes(self):
        dag = Dag(5, [[], [], [0, 1, 4], [0, 1, 4], []])
        _, seps, stats = skeleton_stable(dag, OracleTest(dag), 5,
                                         SkeletonConfig(max_level=0))
        # 2 - 3 survives; the pairs of causes are searched at size 0 only
        assert seps.get_search(2, 3) is None
        pairs = seps.pair_array().tolist()
        assert [seps.get_search(*pair) for pair in pairs] == [((),)] * 3
        assert stats.search_tests == 3

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        dag, weights = random_weighted_dag(10, 0.25, rng)
        dataset = linear_sem_sample(dag, weights, 400, noise_seed=5)
        suff = gaussian_suffstat(dataset)
        graph, _, _ = skeleton_stable(suff, FisherZTest(suff), 10, SkeletonConfig())
        perm = [int(v) for v in rng.permutation(10)]
        permuted = Dataset(dataset.values[:, perm],
                           [dataset.names[v] for v in perm],
                           [dataset.kinds[v] for v in perm])
        suff_p = gaussian_suffstat(permuted)
        graph_p, _, _ = skeleton_stable(suff_p, FisherZTest(suff_p), 10,
                                        SkeletonConfig())
        assert np.array_equal(graph_p.adj, graph.adj[np.ix_(perm, perm)])

    def test_max_level_caps_search(self):
        dag = Dag(3, [[], [0], [1]])
        graph, seps, stats = skeleton_stable(dag, OracleTest(dag), 3,
                                             SkeletonConfig(max_level=0))
        # level 1 removal of 0-2 never happens
        assert sorted(graph.edges()) == [(0, 1), (0, 2), (1, 2)]
        assert len(stats.levels) == 1

    def test_level_never_exceeds_p_minus_two(self):
        suff = gaussian_case(9, p=6, n=40)
        _, _, stats = skeleton_stable(suff, FisherZTest(suff), 6,
                                      SkeletonConfig(alpha=0.5))
        assert all(s.level <= 4 for s in stats.levels)

    def test_peak_tasks_in_flight_reflects_batching(self):
        suff = gaussian_case(4, p=10)
        _, _, unbatched = skeleton_stable(suff, FisherZTest(suff), 10,
                                          SkeletonConfig())
        # five level-0 tasks fit the budget; every later task costs more
        cfg = SkeletonConfig(mem_budget_bytes=5 * estimate_task_cost(0, suff))
        _, _, batched = skeleton_stable(suff, FisherZTest(suff), 10, cfg)
        assert unbatched.peak_tasks_in_flight == 45
        assert batched.peak_tasks_in_flight == 5

    def test_wrong_dimension_rejected(self):
        stat = GaussianSuffStat(np.eye(4), 10)
        with pytest.raises(ValueError, match="covers 4"):
            skeleton_stable(stat, FisherZTest(stat), 5, SkeletonConfig())

    def test_levelstats_json_shape(self):
        dag = Dag(3, [[], [0], [1]])
        _, _, stats = skeleton_stable(dag, OracleTest(dag), 3, SkeletonConfig())
        rows = stats.to_json_list()
        assert all(set(r) == {"level", "tests", "removals", "wall_ms"} for r in rows)
        assert [r["level"] for r in rows] == list(range(len(rows)))

    def test_all_correlated_degenerate_retains_edges(self):
        corr = np.full((3, 3), 1.0)
        stat = GaussianSuffStat(corr, 50)
        graph, _, _ = skeleton_stable(stat, FisherZTest(stat), 3,
                                      SkeletonConfig(num_workers=2))
        assert len(list(graph.edges())) == 3

    def test_reentrant_concurrent_runs(self):
        from concurrent.futures import ThreadPoolExecutor

        suffs = [gaussian_case(seed, p=10) for seed in (21, 22, 23)]
        expected = [run_outputs(s, FisherZTest(s), 10, SkeletonConfig(num_workers=1))
                    for s in suffs]
        cfg = SkeletonConfig(num_workers=2)
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(run_outputs, s, FisherZTest(s), 10, cfg)
                       for s in suffs]
            results = [f.result() for f in futures]
        for got, want in zip(results, expected):
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1]
