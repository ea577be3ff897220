"""Tests for graph containers and d-separation."""

import json
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (children_reference, dsep_moral, dsep_paths, first_found, random_dag,
                     sepset_pairs, topological_order_reference, unshielded_triples_reference,
                     validate_cpdag)
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
        g.adj[1, 3] = g.adj[3, 1] = True
        assert np.array_equal(g.adj, g.adj.T)
        assert g.adj[3, 1] and not g.adj[0, 4]

    def test_unshielded_triples_match_the_pair_loop(self):
        rng = np.random.default_rng(16)
        star = SkeletonGraph(7)
        star.adj[0, 1:] = star.adj[1:, 0] = True
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
            back.adj[i, j] = back.adj[j, i] = True
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

    def test_from_skeleton_builds_int8_marks_only(self):
        # an int64 temporary of the marks would take 8 p² bytes on its own
        p = 2000
        upper = np.triu(np.random.default_rng(0).random((p, p)) < 0.001, 1)
        skel = SkeletonGraph(p, upper | upper.T)
        tracemalloc.start()
        try:
            g = Cpdag.from_skeleton(skel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.mark.dtype == np.int8
        assert np.array_equal(g.mark, np.where(skel.adj, graphs.TAIL, graphs.NO_END))
        assert peak <= 3 * p * p, peak


def record(seps, i, j, sepset):
    """Record one pair's set as a one-row ``set_many``."""
    seps.set_many(np.array([[i, j]]), np.array([sepset], dtype=np.int64))


class TestSepsetMap:
    def test_set_get(self):
        m = SepsetMap(4)
        record(m, 3, 1, [2])
        assert first_found(m, 1, 3) == (2,)
        assert first_found(m, 3, 1) == (2,) and first_found(m, 1, 2) is None
        assert sepset_pairs(m) == [[1, 3]]

    def test_rejects_pair_in_set(self):
        m = SepsetMap(3)
        with pytest.raises(GraphError):
            record(m, 0, 1, [1])

    def test_json_shape(self):
        m = SepsetMap(3)
        record(m, 0, 2, [1])
        assert m.to_json_dict() == {"0,2": [1]}

    @pytest.mark.parametrize("p", [-1, 0, 1, 2**31 + 1, 2**40])
    def test_size_outside_two_to_two_to_the_31_rejected(self, p):
        with pytest.raises(GraphError, match="between 2 and 2"):
            SepsetMap(p)

    def test_sizes_at_the_bounds_and_equality_reads_p(self):
        assert SepsetMap(2).p == 2 and SepsetMap(2**31).p == 2**31
        assert SepsetMap(3) == SepsetMap(3) and SepsetMap(3) != SepsetMap(4)

    def test_index_outside_p_rejected_and_the_map_kept(self):
        m = SepsetMap(100)
        record(m, 0, 1, [2])
        m.set_votes(np.array([[3, 5, 4]]), [1], [2])
        before = m.to_json_dict()
        held = np.array([[3, 5, 4], [0, 2, 1], [1, 0, 5]])
        votes = [c.tolist() for c in m.votes(held)]
        assert votes == [[1, 1, 0], [2, 1, 0]]
        for pairs, sets, bad in (([[1, 2**31 - 1]], [[0]], 2**31 - 1),
                                 ([[1, 100]], [[0]], 100),
                                 ([[-1, 5]], [[0]], -1),
                                 ([[1, 5]], [[100]], 100),
                                 ([[1, 5]], [[-3]], -3),
                                 ([[1, 5], [2, 100]], [[0], [0]], 100)):
            with pytest.raises(GraphError, match=rf"index {bad} out of range \[0, 100\)"):
                m.set_many(np.array(pairs), np.array(sets))
            assert m.to_json_dict() == before and len(m) == 1
        for triples, bad in (([[1, 0, 2**31 - 1]], 2**31 - 1), ([[1, 0, 100]], 100),
                             ([[-1, 0, 5]], -1), ([[1, 100, 5]], 100),
                             ([[1, 0, 5], [1, -2, 3]], -2)):
            with pytest.raises(GraphError, match=rf"index {bad} out of range \[0, 100\)"):
                m.set_votes(np.array(triples), [0] * len(triples), [1] * len(triples))
            assert [c.tolist() for c in m.votes(held)] == votes
        assert m.to_json_dict() == before


class TestSepsetMapVotes:
    """The search's votes: one write per triple, read with the pair's
    first-found set as the fallback."""

    @staticmethod
    def voted_map(voted=True):
        m = SepsetMap(8)
        record(m, 0, 1, [2])
        record(m, 3, 4, [])
        if voted:
            m.set_votes(np.array([[0, 5, 1], [2, 3, 6]]), [1, 0], [3, 2])
        return m

    @pytest.mark.parametrize("triples, inside, total, problem", [
        ([[0, 2, 8]], [0], [1], r"index 8 out of range \[0, 8\)"),
        ([[1, -1, 3]], [0], [1], r"index -1 out of range \[0, 8\)"),
        ([[3, 2, 1]], [0], [1], "needs i < j"),
        ([[2, 1, 2]], [0], [1], "needs i < j"),
        ([[1, 1, 3]], [0], [1], "middle must differ"),
        ([[1, 3, 3]], [0], [1], "middle must differ"),
        ([[1, 2, 3]], [-1], [1], r"inside count must lie in \[0, total\]"),
        ([[1, 2, 3]], [2], [1], r"inside count must lie in \[0, total\]"),
        ([[1, 2, 3], [1, 4, 3]], [0], [1, 1], "length-m count arrays"),
        ([[1, 2, 3]], [0, 0], [1], "length-m count arrays"),
        ([[1, 2, 3]], [0], [[1]], "length-m count arrays"),
        ([1, 2, 3], [0], [1], r"\(m, 3\) triple array"),
        ([[1, 2, 3], [4, 5, 6], [1, 2, 3]], [0, 0, 0], [1, 1, 1], "a triple twice"),
    ])
    def test_bad_votes_rejected_and_the_map_kept(self, triples, inside, total, problem):
        m = self.voted_map(voted=False)
        with pytest.raises(GraphError, match=problem):
            m.set_votes(np.array(triples), np.array(inside), np.array(total))
        assert m == self.voted_map(voted=False)

    def test_second_write_rejected_and_the_map_kept(self):
        m = self.voted_map()
        for triples in ([[1, 2, 3]], [[0, 5, 1]], np.empty((0, 3))):
            with pytest.raises(GraphError, match="already holds votes"):
                m.set_votes(np.array(triples), [0] * len(triples), [0] * len(triples))
            assert m == self.voted_map()

    def test_votes_fall_back_to_the_first_found_set(self):
        inside, total = self.voted_map().votes(np.array(
            [[0, 5, 1], [1, 5, 0], [2, 3, 6],   # voted, in either order
             [0, 2, 1], [0, 3, 1], [3, 0, 4],   # first-found (2,) and ()
             [2, 5, 6], [1, 0, 2]]))            # neither
        assert inside.tolist() == [1, 1, 0, 1, 0, 0, 0, 0]
        assert total.tolist() == [3, 3, 2, 1, 1, 1, 0, 0]
        assert [c.tolist() for c in SepsetMap(3).votes(np.empty((0, 3)))] == [[], []]
        with pytest.raises(GraphError, match=r"index 8 out of range \[0, 8\)"):
            self.voted_map().votes(np.array([[0, 8, 1]]))

    def test_votes_read_back_in_any_order_and_count_in_equality(self):
        triples = np.array([[0, 4, 8], [1, 2, 3], [0, 2, 8], [5, 6, 7], [0, 1, 2]])
        inside, total = np.array([0, 1, 2, 0, 1]), np.array([1, 1, 3, 0, 4])
        m, other = SepsetMap(9), SepsetMap(9)
        m.set_votes(triples, inside, total)
        other.set_votes(triples, inside, total + 1)
        assert m != other and m != SepsetMap(9)
        for rows in ([4, 3, 2, 1, 0], [2], [0, 0, 3]):
            assert [c.tolist() for c in m.votes(triples[rows])] == \
                [inside[rows].tolist(), total[rows].tolist()]


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
    single, bulk, mixed = SepsetMap(p), SepsetMap(p), SepsetMap(p)
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
            assert sepset_pairs(other) == sepset_pairs(single)
            assert len(other) == len(single)
            assert other.to_json_dict() == single.to_json_dict()
            assert [first_found(other, j, i) for i, j in sepset_pairs(single)] == \
                [first_found(single, i, j) for i, j in sepset_pairs(single)]
        assert single.to_json_dict() == {f"{i},{j}": list(first_found(single, i, j))
                                         for i, j in sepset_pairs(single)}

    @pytest.mark.parametrize("p", [2, 11, 101, 1001, 12345])
    def test_json_chunks_match_json_dumps(self, p, monkeypatch):
        for seps in filled_maps(p, 3000, seed=7 * p):
            want = json.dumps(seps.to_json_dict(), sort_keys=True, indent=2) + "\n"
            for entries in (1, 7, 1 << 15):
                monkeypatch.setattr(graphs, "JSON_CHUNK_ENTRIES", entries)
                assert "".join(seps.json_chunks()) == want

    def test_json_chunks_of_empty_map(self):
        assert "".join(SepsetMap(2).json_chunks()) == \
            json.dumps({}, sort_keys=True, indent=2) + "\n"

    def test_second_write_of_a_pair_raises_and_keeps_the_map(self):
        m = SepsetMap(10)
        m.set_many(np.array([[0, 3], [1, 2]]), np.array([[1], [3]]))
        record(m, 4, 5, [])
        before = m.to_json_dict()
        for pairs, sets in (([[3, 0]], [[2]]),                  # same size
                            ([[2, 1]], [[0, 4]]),               # another size
                            ([[5, 4]], [[1]]),                  # held at size 0
                            ([[6, 7], [1, 2], [8, 9]], [[0], [0], [0]])):  # one row repeats
            with pytest.raises(GraphError, match="already holds"):
                m.set_many(np.array(pairs), np.array(sets))
            assert m.to_json_dict() == before and len(m) == 3
        assert first_found(m, 0, 3) == (1,) and first_found(m, 1, 2) == (3,)
        assert first_found(m, 6, 7) is None
        assert sepset_pairs(m) == [[0, 3], [1, 2], [4, 5]]
        assert m.set_sizes(np.array([3, 0, 0, 5]), np.array([0, 1, 9, 4])).tolist() == \
            [1, -1, -1, 0]

    def test_memory_follows_pairs_not_indices(self):
        # a dense p x p index would need exabytes for these two pairs; the
        # map is never written out, since its text names every index
        m = SepsetMap(2**31)
        record(m, 1, 50000, ())
        record(m, 2**31 - 1, 2, [5])
        assert sepset_pairs(m) == [[1, 50000], [2, 2**31 - 1]]
        assert first_found(m, 2, 2**31 - 1) == (5,) and first_found(m, 1, 50000) == ()
        # (0, 2**32 + 50000) would share the code of (1, 50000)
        assert first_found(m, 0, 2**32 + 50000) is None
        # so would (0, 2**33 + 2**31 - 1) with (2, 2**31 - 1)
        outside = np.array([2**32 + 50000, 2**33 + 2**31 - 1, 2, 2**31])
        assert m.set_sizes(np.array([0, 0, -1, 1]), outside).tolist() == [-1] * 4
        assert m.set_sizes(np.array([50000, 2]), np.array([1, 2**31 - 1])).tolist() == [0, 1]
        with pytest.raises(GraphError):
            record(m, 0, 2**31, ())

    def test_set_many_rejects_bad_rows_and_keeps_the_map(self):
        m = SepsetMap(7)
        record(m, 0, 1, [2])
        before = m.to_json_dict()
        for pairs, sets in (([[0, 1], [1, 0]], [[2], [3]]),     # a pair twice
                            ([[5, 6], [2, 3], [6, 5]], [[1], [1], [0]]),  # a new pair twice
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

    def test_skeleton_joins_each_parent_to_its_child(self):
        rng = np.random.default_rng(20)
        for p in (2, 5, 30):
            dag = random_dag(p, 0.3, rng)
            assert dag.skeleton().edges() == \
                sorted((min(u, v), max(u, v)) for u, v in dag.edges())

    def test_children_order_and_descendants_match_the_former_loops(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            p = int(rng.integers(2, 61))
            dag = random_dag(p, rng.uniform(0.5, 4.0) / p, rng)
            children = [children_reference(dag, v) for v in range(p)]
            assert [dag.children(v) for v in range(p)] == children
            assert dag.topological_order() == topological_order_reference(dag)
            for v in range(p):
                below, stack = set(), [v]
                while stack:
                    fresh = set(children[stack.pop()]) - below
                    below |= fresh
                    stack += fresh
                assert dag.descendants(v) == below - {v}

    def test_json_round_trip(self):
        dag = Dag(4, [[], [0], [0, 1], [2]])
        assert dag_from_json_dict(dag.to_json_dict()) == dag

    @pytest.mark.parametrize("data, named", [
        ({"p": 3.7, "edges": []}, '"p"'),
        ({"p": "3", "edges": []}, '"p"'),
        ({"p": True, "edges": []}, '"p"'),
        ({"p": 3, "edges": [[0.9, 1.6, "->"]]}, "[0.9, 1.6, '->']"),
        ({"p": 3, "edges": [["0", "2", "->"]]}, "['0', '2', '->']"),
        ({"p": 3, "edges": [[True, 2, "->"]]}, "[True, 2, '->']"),
    ], ids=["float-p", "string-p", "bool-p", "float-endpoints", "string-endpoints",
            "bool-endpoint"])
    def test_json_needs_integers(self, data, named):
        with pytest.raises(GraphError) as err:
            dag_from_json_dict(data)
        assert named in str(err.value)


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

    def test_against_moral_graph_reference(self):
        rng = np.random.default_rng(16)
        answers = []
        for _ in range(1000):
            p = int(rng.integers(2, 61))
            dag = random_dag(p, rng.uniform(0.5, 4.0) / p, rng)
            for _ in range(10):
                i, j, *sub = rng.choice(p, size=2 + int(rng.integers(0, min(6, p - 2) + 1)),
                                        replace=False).tolist()
                answers.append(d_separated(dag, i, j, sub))
                assert answers[-1] == dsep_moral(dag, i, j, sub), (dag.parents, i, j, sub)
        assert 0.2 < np.mean(answers) < 0.8

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
