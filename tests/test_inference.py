"""Tests for PC-simple, IDA, and the linear SEM generators."""

from dataclasses import dataclass

import numpy as np
import pytest

from oracles import (pc_simple_reference, random_dag, sample_binary_network,
                     total_effect)
from stablepc import (
    Cpdag,
    Dag,
    DiscreteSuffStat,
    FisherZTest,
    GSquaredTest,
    GaussianSuffStat,
    LevelExecutionError,
    OracleTest,
    SkeletonConfig,
    SkeletonGraph,
    admissible_parent_sets,
    cpdag_from_dag,
    ida_effects,
    linear_sem_population_cov,
    gaussian_suffstat,
    linear_sem_sample,
    pc_simple,
)
from stablepc.cli import random_weighted_dag
from stablepc.inference import _solve_normal_equations
from stablepc.skeleton import estimate_task_cost


def undirected(p, edges):
    g = SkeletonGraph(p)
    for i, j in edges:
        g.add_edge(i, j)
    return Cpdag.from_skeleton(g)


class TestPcSimple:
    def test_independent_target_no_members(self):
        stat = GaussianSuffStat(np.eye(6), 200)
        from stablepc import FisherZTest
        result = pc_simple(stat, FisherZTest(stat), 0, 0.01, SkeletonConfig())
        assert result.members == ()

    def test_oracle_chain_middle_target(self):
        dag = Dag(3, [[], [0], [1]])
        result = pc_simple(dag, OracleTest(dag), 1, 0.01, SkeletonConfig())
        assert result.members == (0, 2)

    def test_oracle_chain_end_target(self):
        # candidate 0 survives level 0 (marginally dependent on 2) and is
        # removed at level 1 given {1}
        dag = Dag(3, [[], [0], [1]])
        result = pc_simple(dag, OracleTest(dag), 2, 0.01, SkeletonConfig())
        assert result.members == (1,)

    def test_equals_true_adjacency_on_sparse_random_dags(self):
        # same sparse family as the acceptance suite (see its criterion 5
        # comment for why density matters here)
        rng = np.random.default_rng(2024)
        for _ in range(25):
            p = int(rng.integers(3, 9))
            dag = random_dag(p, 0.2, rng)
            target = int(rng.integers(0, p))
            expected = tuple(sorted(set(dag.parents[target]) |
                                    set(dag.children(target))))
            result = pc_simple(dag, OracleTest(dag), target, 0.01, SkeletonConfig())
            assert result.members == expected, (dag.parents, target)

    def test_members_always_cover_true_adjacency(self):
        # true neighbors have no separating set, so they can never be removed,
        # whatever the density
        rng = np.random.default_rng(14)
        for _ in range(25):
            p = int(rng.integers(3, 8))
            dag = random_dag(p, 0.45, rng)
            target = int(rng.integers(0, p))
            adjacency = set(dag.parents[target]) | set(dag.children(target))
            result = pc_simple(dag, OracleTest(dag), target, 0.01, SkeletonConfig())
            assert adjacency.issubset(result.members), (dag.parents, target)

    def test_parallel_equals_sequential(self):
        rng = np.random.default_rng(15)
        dag, weights = random_weighted_dag(10, 0.25, rng)
        dataset = linear_sem_sample(dag, weights, 300, noise_seed=2)
        from stablepc import FisherZTest, gaussian_suffstat
        suff = gaussian_suffstat(dataset)
        reference = pc_simple(suff, FisherZTest(suff), 0, 0.01,
                              SkeletonConfig(num_workers=1))
        for workers in (2, 4):
            got = pc_simple(suff, FisherZTest(suff), 0, 0.01,
                            SkeletonConfig(num_workers=workers))
            assert got == reference

    def test_member_p_values_at_most_alpha(self):
        rng = np.random.default_rng(16)
        dag, weights = random_weighted_dag(8, 0.3, rng)
        dataset = linear_sem_sample(dag, weights, 300, noise_seed=3)
        from stablepc import FisherZTest, gaussian_suffstat
        suff = gaussian_suffstat(dataset)
        result = pc_simple(suff, FisherZTest(suff), 2, 0.01, SkeletonConfig())
        assert result.target not in result.members
        for member in result.members:
            assert 0.0 <= result.p_values[member] <= 0.01

    def test_target_out_of_range(self):
        dag = Dag(3, [[], [0], [1]])
        with pytest.raises(ValueError):
            pc_simple(dag, OracleTest(dag), 3, 0.01, SkeletonConfig())

    def test_alpha_must_match_cfg(self):
        from stablepc import FisherZTest
        stat = GaussianSuffStat(np.eye(4), 100)
        with pytest.raises(ValueError, match="cfg.alpha"):
            pc_simple(stat, FisherZTest(stat), 0, 0.9, SkeletonConfig(alpha=0.01))

    def test_worker_failure_raises(self):
        stat = GaussianSuffStat(np.eye(4), 100)
        with pytest.raises(LevelExecutionError):
            pc_simple(stat, _ExplodingTest(), 0, 0.01, SkeletonConfig(num_workers=2))

    def test_peak_tasks_in_flight_outside_result(self):
        stat = GaussianSuffStat(np.eye(6), 200)
        from stablepc import FisherZTest
        whole = pc_simple(stat, FisherZTest(stat), 0, 0.01, SkeletonConfig())
        # a budget of two level-0 tasks
        budget = 2 * estimate_task_cost(0, stat)
        batched = pc_simple(stat, FisherZTest(stat), 0, 0.01,
                            SkeletonConfig(mem_budget_bytes=budget))
        assert (whole.peak_tasks_in_flight, batched.peak_tasks_in_flight) == (5, 2)
        assert whole == batched
        assert "peak_tasks_in_flight" not in whole.to_json_dict()



def fisher_case(seed, p=10, n=300, density=0.3):
    rng = np.random.default_rng(seed)
    dag, weights = random_weighted_dag(p, density, rng)
    suff = gaussian_suffstat(linear_sem_sample(dag, weights, n, noise_seed=seed))
    return suff, FisherZTest(suff)


def g_squared_case(seed, p=8, n=500, density=0.3):
    rng = np.random.default_rng(seed)
    suff = DiscreteSuffStat(sample_binary_network(random_dag(p, density, rng), n, rng),
                            [2] * p)
    return suff, GSquaredTest(suff)


class TestPcSimpleAgainstReference:
    """``pc_simple`` equals the scalar loop of ``oracles.pc_simple_reference``
    exactly: the same members and bit-identical p-values."""

    def check(self, suff, test, target, alpha=0.01, max_level=None):
        members, p_values = pc_simple_reference(test, suff.p, target, alpha, max_level)
        for workers in (1, 2):
            cfg = SkeletonConfig(alpha=alpha, max_level=max_level, num_workers=workers)
            result = pc_simple(suff, test, target, alpha, cfg)
            assert result.members == members, (target, workers)
            assert dict(result.p_values) == p_values, (target, workers)
        return members

    @pytest.mark.parametrize("seed", [3, 8, 21])
    def test_fisher_z(self, seed):
        suff, test = fisher_case(seed)
        sizes = [len(self.check(suff, test, target)) for target in range(suff.p)]
        assert max(sizes) >= 2

    @pytest.mark.parametrize("seed", [5, 12])
    def test_g_squared(self, seed):
        suff, test = g_squared_case(seed)
        sizes = [len(self.check(suff, test, target)) for target in range(suff.p)]
        assert max(sizes) >= 2

    def test_max_level(self):
        suff, test = fisher_case(3)
        for max_level in (0, 1):
            for target in range(suff.p):
                self.check(suff, test, target, max_level=max_level)

    def test_two_variables(self):
        suff, test = fisher_case(4, p=2, density=1.0)
        assert self.check(suff, test, 0) == (1,)
        assert self.check(suff, test, 1) == (0,)

    def test_pool_empties(self):
        stat = GaussianSuffStat(np.eye(5), 200)
        assert self.check(stat, FisherZTest(stat), 2) == ()


@dataclass(frozen=True)
class _ExplodingTest:
    def __call__(self, i, j, s):
        raise RuntimeError("boom")


class TestKnownSupersetBoundary:
    """The local search can keep a non-neighbor when all of its separators
    need variables that already left the candidate set.

    Here every separator of (1, 2) contains {4, 6}, but 4 (a co-parent of 6)
    is marginally independent of the target and is eliminated at level 0, so
    1 is unreachable for removal.  A full skeleton run removes the edge
    because it also draws conditioning sets from 1's own neighborhood.
    """

    DAG = Dag(7, [(3,), (4, 6), (0,), (), (), (), (0, 2, 3, 4)])

    def test_candidate_pool_keeps_grandchild(self):
        result = pc_simple(self.DAG, OracleTest(self.DAG), 2, 0.01,
                           SkeletonConfig())
        assert result.members == (0, 1, 6)  # (0, 6) is the true adjacency

    def test_full_skeleton_projection_is_exact(self):
        from stablepc import skeleton_stable
        graph, _, _ = skeleton_stable(self.DAG, OracleTest(self.DAG), 7,
                                      SkeletonConfig())
        assert np.flatnonzero(graph.adj[2]).tolist() == [0, 6]

    def test_every_separator_needs_the_eliminated_spouse(self):
        from stablepc import d_separated
        from itertools import combinations
        others = sorted(set(range(7)) - {1, 2})
        separators = [set(s) for k in range(len(others) + 1)
                      for s in combinations(others, k)
                      if d_separated(self.DAG, 1, 2, s)]
        assert separators and all({4, 6} <= s for s in separators)


class TestAdmissibleParentSets:
    def test_no_siblings_returns_certain_parents(self):
        g = undirected(4, [(0, 1), (0, 2), (0, 3)])
        g.orient(1, 0)
        g.orient(2, 0)
        g.orient(3, 0)
        assert admissible_parent_sets(g, 0) == [(1, 2, 3)]

    def test_nonadjacent_siblings_exclude_joint_set(self):
        g = undirected(3, [(0, 1), (0, 2)])
        assert admissible_parent_sets(g, 0) == [(), (1,), (2,)]

    def test_adjacent_siblings_allow_all_subsets(self):
        g = undirected(3, [(0, 1), (0, 2), (1, 2)])
        assert admissible_parent_sets(g, 0) == [(), (1,), (2,), (1, 2)]

    def test_sibling_must_be_adjacent_to_certain_parent(self):
        # 1 -> 0 certain, 2 sibling of 0 not adjacent to 1: orienting 2 -> 0
        # would create the new collider 1 -> 0 <- 2
        g = undirected(3, [(0, 1), (0, 2)])
        g.orient(1, 0)
        assert admissible_parent_sets(g, 0) == [(1,)]

    def test_certain_parents_always_first(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            dag = random_dag(6, 0.4, rng)
            g = cpdag_from_dag(dag)
            x = int(rng.integers(0, 6))
            sets = admissible_parent_sets(g, x)
            assert sets[0] == tuple(sorted(g.parents(x)))
            assert len(set(sets)) == len(sets)


class TestIdaEffects:
    def test_directed_edge_recovers_coefficient(self):
        dag = Dag(2, [[], [0]])
        weights = {(0, 1): 1.7}
        cov = linear_sem_population_cov(dag, weights)
        g = cpdag_from_dag(dag)
        g.orient(0, 1)  # pin the direction: treat as known 0 -> 1
        out = ida_effects(g, cov, 0, 1)
        assert len(out.effects) == 1
        assert out.effects[0].effect == pytest.approx(1.7, abs=1e-12)

    def test_undirected_edge_gives_effect_and_zero(self):
        dag = Dag(2, [[], [0]])
        weights = {(0, 1): 1.7}
        cov = linear_sem_population_cov(dag, weights)
        g = cpdag_from_dag(dag)  # single undirected edge
        out = ida_effects(g, cov, 0, 1)
        by_parents = {e.parents: e.effect for e in out.effects}
        assert by_parents[()] == pytest.approx(1.7, abs=1e-12)
        assert by_parents[(1,)] == 0.0

    def test_outcome_in_every_parent_set_gives_zeros(self):
        g = undirected(2, [(0, 1)])
        g.orient(1, 0)
        cov = np.eye(2)
        out = ida_effects(g, cov, 0, 1)
        assert [e.effect for e in out.effects] == [0.0]

    def test_population_recovery_on_random_dags(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            p = int(rng.integers(3, 8))
            dag, weights = random_weighted_dag(p, 0.4, rng)
            cov = linear_sem_population_cov(dag, weights)
            g = cpdag_from_dag(dag)
            x, y = (int(v) for v in rng.choice(p, size=2, replace=False))
            truth = total_effect(dag, weights, x, y)
            out = ida_effects(g, cov, x, y)
            values = [e.effect for e in out.effects if e.effect is not None]
            assert values, "every admissible set degenerate"
            assert min(abs(v - truth) for v in values) <= 1e-8

    def test_multiset_size_matches_admissible_sets(self):
        rng = np.random.default_rng(18)
        dag, weights = random_weighted_dag(6, 0.4, rng)
        g = cpdag_from_dag(dag)
        cov = linear_sem_population_cov(dag, weights)
        out = ida_effects(g, cov, 0, 5)
        assert len(out.effects) == len(admissible_parent_sets(g, 0))

    def test_json_shape(self):
        g = undirected(2, [(0, 1)])
        out = ida_effects(g, np.eye(2), 0, 1)
        data = out.to_json_dict()
        assert data["cause"] == 0 and data["outcome"] == 1
        assert all(set(e) == {"parents", "effect"} for e in data["effects"])

    def test_validation(self):
        g = undirected(2, [(0, 1)])
        with pytest.raises(ValueError):
            ida_effects(g, np.eye(2), 0, 0)
        with pytest.raises(ValueError):
            ida_effects(g, np.eye(3), 0, 1)


class TestSolveNormalEquations:
    def test_pd_system(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        b = np.array([1.0, 2.0])
        beta = _solve_normal_equations(a, b)
        np.testing.assert_allclose(a @ beta, b, atol=1e-12)

    def test_singular_consistent_is_degenerate(self):
        # rank-deficient: the coefficient is not identified
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert _solve_normal_equations(a, np.array([1.0, 1.0])) is None

    def test_singular_inconsistent_is_degenerate(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert _solve_normal_equations(a, np.array([1.0, 0.0])) is None

    def test_degenerate_entry_does_not_fail_query(self):
        # parents 1 and 2 are perfect copies, so adjusting for both makes the
        # regression rank-deficient; the entry is flagged, the query survives
        g = undirected(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        g.orient(1, 0)
        g.orient(2, 0)
        g.orient(0, 3)
        cov = np.array([[1.0, 0.5, 0.5, 1.0],
                        [0.5, 1.0, 1.0, 0.5],
                        [0.5, 1.0, 1.0, 0.5],
                        [1.0, 0.5, 0.5, 2.0]])
        out = ida_effects(g, cov, 0, 3)
        assert [e.effect for e in out.effects] == [None]


class TestLinearSem:
    def test_single_variable_unit_variance(self):
        dag = Dag(1, [[]])
        cov = linear_sem_population_cov(dag, {})
        np.testing.assert_allclose(cov, [[1.0]])

    def test_two_node_population_cov(self):
        dag = Dag(2, [[], [0]])
        cov = linear_sem_population_cov(dag, {(0, 1): 2.0})
        np.testing.assert_allclose(cov, [[1.0, 2.0], [2.0, 5.0]], atol=1e-12)

    def test_sample_matches_population(self):
        dag = Dag(2, [[], [0]])
        weights = {(0, 1): 2.0}
        ds = linear_sem_sample(dag, weights, 1_000_000, noise_seed=0)
        sample_cov = np.cov(ds.values.T)
        np.testing.assert_allclose(sample_cov, [[1.0, 2.0], [2.0, 5.0]], rtol=0.01)

    def test_seeded_determinism(self):
        dag = Dag(3, [[], [0], [0, 1]])
        weights = {(0, 1): 1.0, (0, 2): -0.5, (1, 2): 2.0}
        a = linear_sem_sample(dag, weights, 100, noise_seed=9)
        b = linear_sem_sample(dag, weights, 100, noise_seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_weights_must_cover_edges(self):
        dag = Dag(2, [[], [0]])
        with pytest.raises(ValueError, match="missing"):
            linear_sem_population_cov(dag, {})
        with pytest.raises(ValueError, match="unexpected"):
            linear_sem_population_cov(dag, {(0, 1): 1.0, (1, 0): 1.0})
