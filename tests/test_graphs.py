"""Tests for graph containers and d-separation."""

import json
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import dsep_paths, random_dag, unshielded_triples_reference, validate_cpdag
from stablepc import (
    Cpdag,
    Dag,
    GraphError,
    SepsetMap,
    SkeletonGraph,
    complete_graph,
    d_separated,
)
from stablepc import graphs
from stablepc.graphs import dag_from_json_dict


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
        assert np.flatnonzero(complete_graph(3).adj[1]).tolist() == [0, 2]

    def test_neighbors_empty(self):
        assert not SkeletonGraph(4).adj.any()

    def test_neighbors_after_removal(self):
        g = complete_graph(3)
        g.adj[0, 1] = g.adj[1, 0] = False
        assert np.flatnonzero(g.adj[0]).tolist() == [2]

    def test_symmetry_audit_after_mutations(self):
        g = complete_graph(5)
        g.adj[1, 3] = g.adj[3, 1] = g.adj[4, 0] = g.adj[0, 4] = False
        g.add_edge(1, 3)
        assert np.array_equal(g.adj, g.adj.T)
        assert g.adj[3, 1] and not g.adj[0, 4]

    def test_unshielded_triples_match_the_pair_loop(self):
        rng = np.random.default_rng(16)
        star = SkeletonGraph(7)
        for leaf in range(1, 7):
            star.add_edge(0, leaf)
        graphs = [star, complete_graph(9)]
        for p in (2, 3, 10, 40, 120):
            for density in (0, 0.05, 0.3, 0.8, 1):
                upper = np.triu(rng.random((p, p)) < density, 1)
                graphs.append(SkeletonGraph(p, upper | upper.T))
        for g in graphs:
            triples = g.unshielded_triples()
            assert triples.shape[1:] == (3,) and triples.dtype == np.int64
            assert list(map(tuple, triples.tolist())) == unshielded_triples_reference(g)
        assert len(graphs[0].unshielded_triples()) == 15  # pairs of 6 leaves
        assert len(graphs[1].unshielded_triples()) == 0

    def test_unshielded_triples_scratch_is_one_neighbourhood(self):
        # near-complete p = 300: 13.4 M neighbour pairs, 298 triples; all
        # pairs at once would take hundreds of MB
        g = complete_graph(300)
        g.adj[0, 1] = g.adj[1, 0] = False
        tracemalloc.start()
        try:
            triples = g.unshielded_triples()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert triples.tolist() == [[0, k, 1] for k in range(2, 300)]
        assert peak <= 8 << 20, peak

    def test_json_round_trip(self):
        g = complete_graph(4)
        g.adj[0, 3] = g.adj[3, 0] = False
        data = g.to_json_dict()
        assert data == {"p": 4, "edges": [[0, 1, "--"], [0, 2, "--"], [1, 2, "--"],
                                          [1, 3, "--"], [2, 3, "--"]]}
        back = SkeletonGraph(data["p"])
        for i, j, _ in data["edges"]:
            back.add_edge(i, j)
        assert back == g


class TestCpdag:
    def test_orient_and_queries(self):
        g = Cpdag.from_skeleton(complete_graph(3))
        g.orient(0, 1)
        assert g.directed_edges() == [(0, 1)]
        assert g.parents(1) == [0] and g.parents(0) == []
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
        with pytest.raises(GraphError, match="cycle"):
            validate_cpdag(g)

    def test_edge_records_sorted(self):
        g = Cpdag.from_skeleton(complete_graph(3))
        g.orient(2, 1)
        assert g.edge_records() == [[0, 1, "--"], [0, 2, "--"], [2, 1, "->"]]


def record(seps, i, j, sepset):
    """Record one pair's set as a one-row ``set_many``."""
    seps.set_many(np.array([[i, j]]), np.array([sepset], dtype=np.int64))


class TestSepsetMap:
    def test_set_get(self):
        m = SepsetMap()
        record(m, 3, 1, [2])
        assert m.get(1, 3) == (2,)
        assert m.get(3, 1) == (2,) and m.get(1, 2) is None
        assert m.pair_array().tolist() == [[1, 3]]

    def test_rejects_pair_in_set(self):
        m = SepsetMap()
        with pytest.raises(GraphError):
            record(m, 0, 1, [1])

    def test_json_shape(self):
        m = SepsetMap()
        record(m, 0, 2, [1])
        assert m.to_json_dict() == {"0,2": [1]}


def random_removals(p, count, rng):
    """Distinct random pairs (i < j) in ascending order, each with a set of
    0-3 other variables, sorted."""
    pairs = np.sort(rng.integers(0, p, size=(count, 2)), axis=1)
    pairs = np.unique(pairs[pairs[:, 0] < pairs[:, 1]], axis=0)
    sets = []
    for i, j in pairs.tolist():
        drawn = rng.choice(p, size=min(p, 5), replace=False)
        size = int(rng.integers(0, min(4, p - 1)))
        sets.append(np.sort(drawn[(drawn != i) & (drawn != j)][:size]))
    return pairs, sets


def filled_maps(p, count, seed):
    """The same removals recorded pair by pair, in bulk per set size, and
    mixed: bulk adds of some sizes with one-row writes in between."""
    pairs, sets = random_removals(p, count, np.random.default_rng(seed))
    sizes = np.array([len(s) for s in sets])
    single, bulk, mixed = SepsetMap(), SepsetMap(), SepsetMap()
    for (i, j), s in zip(pairs.tolist(), sets):
        record(single, j, i, s.tolist())
    for size in range(4):
        rows = np.flatnonzero(sizes == size)
        chosen = np.array([sets[k] for k in rows], dtype=np.int64).reshape(len(rows), size)
        bulk.set_many(pairs[rows], chosen)
        if size % 2:
            for k in rows.tolist():
                record(mixed, *pairs[k].tolist(), sets[k].tolist())
        else:
            mixed.set_many(pairs[rows][:, ::-1], chosen)
    return single, bulk, mixed


class TestSepsetMapArrays:
    """The array-backed map against its pair-by-pair meaning."""

    @pytest.mark.parametrize("p", [2, 11, 101, 1001])
    def test_bulk_equals_pair_by_pair(self, p):
        single, bulk, mixed = filled_maps(p, 3000, seed=p)
        assert len(single) > 0
        for other in (bulk, mixed):
            assert other == single
            assert other.pair_array().tolist() == single.pair_array().tolist()
            assert len(other) == len(single)
            assert other.to_json_dict() == single.to_json_dict()
            assert [other.get(j, i) for i, j in single.pair_array().tolist()] == \
                [single.get(i, j) for i, j in single.pair_array().tolist()]
        assert single.to_json_dict() == {f"{i},{j}": list(single.get(i, j))
                                         for i, j in single.pair_array().tolist()}

    @pytest.mark.parametrize("p", [2, 11, 101, 1001, 12345])
    def test_json_chunks_match_json_dumps(self, p, monkeypatch):
        for seps in filled_maps(p, 3000, seed=7 * p):
            want = json.dumps(seps.to_json_dict(), sort_keys=True, indent=2) + "\n"
            for entries in (1, 7, 1 << 15):
                monkeypatch.setattr(graphs, "JSON_CHUNK_ENTRIES", entries)
                assert "".join(seps.json_chunks()) == want

    def test_json_chunks_of_empty_map(self):
        assert "".join(SepsetMap().json_chunks()) == \
            json.dumps({}, sort_keys=True, indent=2) + "\n"

    def test_later_write_wins(self):
        m = SepsetMap()
        m.set_many(np.array([[0, 3], [1, 2]]), np.array([[1], [3]]))
        record(m, 3, 0, [2])
        m.set_many(np.array([[2, 1]]), np.array([[0]]))
        assert m.get(0, 3) == (2,) and m.get(1, 2) == (0,)
        assert len(m) == 2 and m.pair_array().tolist() == [[0, 3], [1, 2]]
        assert m.set_sizes(np.array([3, 0, 0]), np.array([0, 1, 9])).tolist() == [1, -1, -1]

    def test_memory_follows_pairs_not_indices(self):
        # a dense p x p index would need exabytes for these two pairs
        m = SepsetMap()
        record(m, 1, 50000, ())
        record(m, 2**31 - 1, 2, [5])
        assert m.pair_array().tolist() == [[1, 50000], [2, 2**31 - 1]]
        assert m.get(2, 2**31 - 1) == (5,) and m.get(1, 50000) == ()
        # (0, 2**32 + 50000) would share the code of (1, 50000)
        assert m.get(0, 2**32 + 50000) is None
        with pytest.raises(GraphError):
            record(m, 0, 2**31, ())

    def test_set_many_rejects_bad_rows_and_keeps_the_map(self):
        m = SepsetMap()
        record(m, 0, 1, [2])
        before = m.to_json_dict()
        for pairs, sets in (([[0, 1], [1, 0]], [[2], [3]]),     # a pair twice
                            ([[2, 3]], [[3]]),                  # set holds the pair
                            ([[4, 4]], [[1]])):                 # not a pair
            with pytest.raises(GraphError):
                m.set_many(np.array(pairs), np.array(sets))
            assert m.to_json_dict() == before and len(m) == 1


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
