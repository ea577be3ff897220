"""Tests for graph containers and d-separation."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import dsep_paths, random_dag
from stablepc import (
    Cpdag,
    Dag,
    GraphError,
    SepsetMap,
    SkeletonGraph,
    complete_graph,
    d_separated,
)
from stablepc.graphs import dag_from_json_dict, skeleton_from_json_dict


class TestSkeletonGraph:
    def test_complete_graph_p3(self):
        g = complete_graph(3)
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_complete_graph_p2(self):
        assert sorted(complete_graph(2).edges()) == [(0, 1)]

    def test_complete_graph_p1_rejected(self):
        with pytest.raises(GraphError):
            complete_graph(1)

    def test_neighbors_complete(self):
        assert complete_graph(3).neighbors(1) == [0, 2]

    def test_neighbors_empty(self):
        g = SkeletonGraph(4)
        assert all(g.neighbors(v) == [] for v in range(4))

    def test_neighbors_after_removal(self):
        g = complete_graph(3)
        g.remove_edge(0, 1)
        assert g.neighbors(0) == [2]

    def test_neighbors_out_of_range(self):
        with pytest.raises(GraphError):
            complete_graph(3).neighbors(3)

    def test_symmetry_audit_after_mutations(self):
        g = complete_graph(5)
        g.remove_edge(1, 3)
        g.remove_edge(4, 0)
        g.add_edge(1, 3)
        assert np.array_equal(g.adj, g.adj.T)
        assert g.has_edge(3, 1) and not g.has_edge(0, 4)

    def test_json_round_trip(self):
        g = complete_graph(4)
        g.remove_edge(0, 3)
        back = skeleton_from_json_dict(g.to_json_dict())
        assert back == g


class TestCpdag:
    def test_orient_and_queries(self):
        g = Cpdag.from_skeleton(complete_graph(3))
        g.orient(0, 1)
        assert g.is_directed(0, 1) and not g.is_directed(1, 0)
        assert g.parents(1) == [0] and g.children(0) == [1]
        assert g.undirected_neighbors(2) == [0, 1]

    def test_orient_missing_edge(self):
        g = Cpdag.from_skeleton(SkeletonGraph(3))
        with pytest.raises(GraphError):
            g.orient(0, 1)

    def test_acyclicity_check(self):
        g = Cpdag.from_skeleton(complete_graph(3))
        g.orient(0, 1)
        g.orient(1, 2)
        g.orient(2, 0)
        assert not g.directed_part_acyclic()
        with pytest.raises(GraphError, match="cycle"):
            g.validate()

    def test_edge_records_sorted(self):
        g = Cpdag.from_skeleton(complete_graph(3))
        g.orient(2, 1)
        assert g.edge_records() == [[0, 1, "--"], [0, 2, "--"], [2, 1, "->"]]


class TestSepsetMap:
    def test_set_get(self):
        m = SepsetMap()
        m.set(3, 1, [2])
        assert m.get(1, 3) == (2,)
        assert m.has(3, 1)
        assert m.pairs() == [(1, 3)]

    def test_rejects_pair_in_set(self):
        m = SepsetMap()
        with pytest.raises(GraphError):
            m.set(0, 1, [1])

    def test_json_shape(self):
        m = SepsetMap()
        m.set(0, 2, [1])
        assert m.to_json_dict() == {"0,2": [1]}


class TestDag:
    def test_cycle_rejected(self):
        with pytest.raises(GraphError, match="cycle"):
            Dag(2, [[1], [0]])

    def test_self_parent_rejected(self):
        with pytest.raises(GraphError):
            Dag(2, [[0], []])

    def test_topological_order_deterministic(self):
        dag = Dag(4, [[], [0], [0], [1, 2]])
        assert dag.topological_order() == [0, 1, 2, 3]

    def test_descendants(self):
        dag = Dag(4, [[], [0], [1], []])
        assert dag.descendants(0) == {1, 2}
        assert dag.descendants(3) == set()

    def test_skeleton(self):
        dag = Dag(3, [[], [0], [1]])
        assert sorted(dag.skeleton().edges()) == [(0, 1), (1, 2)]

    def test_json_round_trip(self):
        dag = Dag(4, [[], [0], [0, 1], [2]])
        assert dag_from_json_dict(dag.to_json_dict()) == dag


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        dag = Dag(3, [[], [0], [1]])
        assert d_separated(dag, 0, 2, {1})
        assert not d_separated(dag, 0, 2, set())

    def test_collider_rules(self):
        dag = Dag(3, [[], [], [0, 1]])
        assert d_separated(dag, 0, 1, set())
        assert not d_separated(dag, 0, 1, {2})

    def test_collider_descendant_opens_path(self):
        # 0 -> 2 <- 1, 2 -> 3: conditioning on the collider's child opens it
        dag = Dag(4, [[], [], [0, 1], [2]])
        assert not d_separated(dag, 0, 1, {3})

    def test_index_validation(self):
        dag = Dag(3, [[], [0], [1]])
        with pytest.raises(GraphError):
            d_separated(dag, 0, 0, set())
        with pytest.raises(GraphError):
            d_separated(dag, 0, 1, {0})
        with pytest.raises(GraphError):
            d_separated(dag, 0, 5, set())

    def test_against_path_enumeration_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            p = int(rng.integers(3, 7))
            dag = random_dag(p, 0.4, rng)
            for i in range(p):
                for j in range(i + 1, p):
                    others = sorted(set(range(p)) - {i, j})
                    for size in range(len(others) + 1):
                        for sub in combinations(others, size):
                            assert d_separated(dag, i, j, sub) == \
                                dsep_paths(dag, i, j, sub), (dag.parents, i, j, sub)

    @given(st.integers(0, 10_000))
    def test_symmetric_in_endpoints(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 8))
        dag = random_dag(p, 0.35, rng)
        i, j = rng.choice(p, size=2, replace=False)
        others = sorted(set(range(p)) - {int(i), int(j)})
        k = int(rng.integers(0, len(others) + 1))
        sub = tuple(int(v) for v in rng.choice(others, size=k, replace=False)) if k else ()
        assert d_separated(dag, int(i), int(j), sub) == \
            d_separated(dag, int(j), int(i), sub)
