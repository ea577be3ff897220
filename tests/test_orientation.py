"""Tests for v-structure orientation, Meek closure, and CPDAG ground truth."""

import numpy as np
import pytest

from oracles import (equivalence_class_cpdag, meek_proposals_dense, random_dag,
                     unshielded_triples_reference, validate_cpdag)
from stablepc import (
    Cpdag,
    Dag,
    GraphError,
    OracleTest,
    SepsetMap,
    SkeletonGraph,
    SkeletonConfig,
    complete_graph,
    cpdag_from_dag,
    meek_closure,
    orient_v_structures,
    skeleton_stable,
)
from stablepc.orientation import _meek_proposals


def record(seps, i, j, sepset):
    """Record one pair's set as a one-row ``set_many``."""
    seps.set_many(np.array([[i, j]]), np.array([sepset], dtype=np.int64))


def skeleton_with(p, edges):
    g = SkeletonGraph(p)
    for i, j in edges:
        g.add_edge(i, j)
    return g


class TestOrientVStructures:
    def test_collider_detected(self):
        skel = skeleton_with(3, [(0, 2), (1, 2)])
        seps = SepsetMap()
        record(seps, 0, 1, [])
        g = orient_v_structures(skel, seps)
        assert {(0, 2), (1, 2)} <= set(g.directed_edges())

    def test_chain_not_oriented(self):
        skel = skeleton_with(3, [(0, 1), (1, 2)])
        seps = SepsetMap()
        record(seps, 0, 2, [1])
        g = orient_v_structures(skel, seps)
        assert {(0, 1), (1, 2)} <= set(g.undirected_edges())

    def test_triangle_untouched(self):
        skel = complete_graph(3)
        g = orient_v_structures(skel, SepsetMap())
        assert g.undirected_edges() == [(0, 1), (0, 2), (1, 2)]

    def test_sepset_for_present_edge_rejected(self):
        skel = complete_graph(3)
        seps = SepsetMap()
        record(seps, 0, 1, [])
        with pytest.raises(GraphError, match="present edge"):
            orient_v_structures(skel, seps)

    def test_sepset_pair_out_of_range_rejected(self):
        seps = SepsetMap()
        record(seps, 0, 5, [])
        with pytest.raises(GraphError, match="variable index 5 out of range"):
            orient_v_structures(skeleton_with(3, [(0, 1)]), seps)

    def test_missing_sepset_skips_triple(self):
        skel = skeleton_with(3, [(0, 2), (1, 2)])
        g = orient_v_structures(skel, SepsetMap())
        assert {(0, 2), (1, 2)} <= set(g.undirected_edges())

    def test_conflict_resolved_by_last_writer(self):
        # triple (0,1,2) orients 0->1<-2; triple (1,0,3) orients 1->0<-3.
        # The fixture is symmetric under swapping 0<->1 and 2<->3, so no
        # rule that reads the data alone can prefer one arrow on 0-1: the
        # conflicting edge stays undirected, the uncontested arrows stand.
        skel = skeleton_with(4, [(0, 1), (1, 2), (0, 3)])
        seps = SepsetMap()
        record(seps, 0, 2, [])
        record(seps, 1, 3, [])
        record(seps, 2, 3, [0, 1])
        g = orient_v_structures(skel, seps)
        assert (0, 1) in g.undirected_edges()
        assert (3, 0) in g.directed_edges()
        assert (2, 1) in g.directed_edges()


class TestMajorityRule:
    # unshielded triple 0 - 2 - 1 (3 and 4 isolated); the search's
    # accepted sets for (0, 1) decide it, whatever the first-found set says
    def orient(self, searched, first=(2,)):
        skel = skeleton_with(5, [(0, 2), (1, 2)])
        seps = SepsetMap()
        record(seps, 0, 1, first)
        if searched is not None:
            seps.set_search(0, 1, searched)
        return orient_v_structures(skel, seps)

    def test_minority_membership_is_collider(self):
        g = self.orient([(3,), (4,), (2, 3)])
        assert {(0, 2), (1, 2)} <= set(g.directed_edges())
        assert (0, 2, 1) not in g.ambiguous

    def test_majority_membership_is_non_collider(self):
        g = self.orient([(2,), (2, 3), (4,)], first=())
        assert {(0, 2), (1, 2)} <= set(g.undirected_edges())
        assert (0, 2, 1) not in g.ambiguous

    def test_tie_is_ambiguous(self):
        g = self.orient([(2,), (3,)])
        assert {(0, 2), (1, 2)} <= set(g.undirected_edges())
        assert (0, 2, 1) in g.ambiguous

    def test_no_set_found_is_ambiguous(self):
        g = self.orient([])
        assert {(0, 2), (1, 2)} <= set(g.undirected_edges())
        assert g.ambiguous == {(0, 2, 1)}

    def test_unsearched_pair_uses_its_single_set(self):
        assert (0, 2) in self.orient(None, first=()).directed_edges()
        assert (0, 2) in self.orient(None, first=(2,)).undirected_edges()

    def test_ambiguous_triples_survive_closure_and_copy(self):
        g = self.orient([])
        assert meek_closure(g).ambiguous == g.ambiguous
        assert g.copy().ambiguous == g.ambiguous
        assert g == Cpdag(g.p, g.mark)  # equality ignores them


class TestMeekClosure:
    def test_r1(self):
        g = Cpdag.from_skeleton(skeleton_with(3, [(0, 1), (1, 2)]))
        g.orient(0, 1)
        out = meek_closure(g)
        assert (1, 2) in out.directed_edges()

    def test_r2(self):
        g = Cpdag.from_skeleton(complete_graph(3))
        g.orient(0, 1)
        g.orient(1, 2)
        out = meek_closure(g)
        assert (0, 2) in out.directed_edges()

    def test_r3(self):
        # 0-1, 0-2, 0-3, 2->1, 3->1, 2 and 3 non-adjacent => 0->1
        g = Cpdag.from_skeleton(
            skeleton_with(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
        g.orient(2, 1)
        g.orient(3, 1)
        out = meek_closure(g)
        assert (0, 1) in out.directed_edges()

    def test_r4(self):
        # 0-1, 0-2, 2->3, 3->1, 0-3 adjacent, 2,1 non-adjacent => 0->1
        g = Cpdag.from_skeleton(
            skeleton_with(4, [(0, 1), (0, 2), (0, 3), (2, 3), (1, 3)]))
        g.orient(2, 3)
        g.orient(3, 1)
        out = meek_closure(g)
        assert (0, 1) in out.directed_edges()

    def test_r1_blocked_by_ambiguous_triple(self):
        g = Cpdag.from_skeleton(skeleton_with(3, [(0, 1), (1, 2)]))
        g.orient(0, 1)
        g.ambiguous = frozenset({(0, 1, 2)})
        assert (1, 2) in meek_closure(g).undirected_edges()

    def test_r3_blocked_by_ambiguous_triple(self):
        g = Cpdag.from_skeleton(
            skeleton_with(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
        g.orient(2, 1)
        g.orient(3, 1)
        g.ambiguous = frozenset({(2, 0, 3)})
        assert (0, 1) in meek_closure(g).undirected_edges()

    def test_r4_blocked_by_ambiguous_triple(self):
        # test_r4's graph, where R4 alone derives 0 -> 1, through c - a - b
        # = 2 - 0 - 1
        g = Cpdag.from_skeleton(
            skeleton_with(4, [(0, 1), (0, 2), (0, 3), (2, 3), (1, 3)]))
        g.orient(2, 3)
        g.orient(3, 1)
        g.ambiguous = frozenset({(1, 0, 2)})
        assert (0, 1) in meek_closure(g).undirected_edges()

    def test_opposite_proposals_leave_edge_undirected(self):
        # 2 -> 0 - 1 <- 3 with 2, 3 non-adjacent to the far end: R1
        # proposes 0 -> 1 and 1 -> 0 in the same round
        g = Cpdag.from_skeleton(skeleton_with(4, [(0, 1), (0, 2), (1, 3)]))
        g.orient(2, 0)
        g.orient(3, 1)
        out = meek_closure(g)
        assert (0, 1) in out.undirected_edges()
        assert {(2, 0), (3, 1)} <= set(out.directed_edges())

    def test_rounds_apply_against_snapshot(self):
        # 0 -> 1 - 2 - 3: round one orients 1 -> 2 only; 2 -> 3 follows in
        # round two from the new arrow
        g = Cpdag.from_skeleton(skeleton_with(4, [(0, 1), (1, 2), (2, 3)]))
        g.orient(0, 1)
        out = meek_closure(g)
        assert out.directed_edges() == [(0, 1), (1, 2), (2, 3)]

    def test_fixpoint_on_undirected_chain(self):
        g = Cpdag.from_skeleton(skeleton_with(3, [(0, 1), (1, 2)]))
        out = meek_closure(g)
        assert out == g

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            dag = random_dag(int(rng.integers(3, 8)), 0.4, rng)
            once = cpdag_from_dag(dag)
            assert meek_closure(once) == once

    def test_preserves_adjacencies(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            dag = random_dag(6, 0.4, rng)
            g, seps, _ = skeleton_stable(dag, OracleTest(dag), 6, SkeletonConfig())
            oriented = orient_v_structures(g, seps)
            closed = meek_closure(oriented)
            assert np.array_equal(closed.mark != 0, oriented.mark != 0)
            # only tails become arrows, never the reverse
            assert set(closed.undirected_edges()) <= set(oriented.undirected_edges())

    def test_input_not_mutated(self):
        g = Cpdag.from_skeleton(skeleton_with(3, [(0, 1), (1, 2)]))
        g.orient(0, 1)
        before = g.mark.copy()
        meek_closure(g)
        assert np.array_equal(g.mark, before)


class TestMeekAgainstDenseRounds:
    @staticmethod
    def voted_cpdag(p, density, rng):
        """``orient_v_structures`` over a random skeleton, each pair sharing
        a neighbour given zero to three random accepted sets, so that
        colliders, ties and conflicting arrows all occur."""
        upper = np.triu(rng.random((p, p)) < density, 1)
        skel = SkeletonGraph(p, upper | upper.T)
        seps = SepsetMap()
        for i, j in sorted({(i, j) for i, _, j in unshielded_triples_reference(skel)}):
            others = np.array([v for v in range(p) if v not in (i, j)])
            seps.set_search(i, j, [others[rng.random(len(others)) < 0.5].tolist()
                                   for _ in range(rng.integers(0, 4))])
        return orient_v_structures(skel, seps)

    def test_every_round_proposes_what_the_dense_round_does(self):
        rng = np.random.default_rng(12)
        ambiguous = cancelled = later_rounds = 0
        for trial in range(60):
            p = int(rng.integers(4, 30))
            g = self.voted_cpdag(p, (0.1, 0.2, 0.5, 0.7)[trial % 4], rng)
            closed = meek_closure(g)
            ambiguous += len(g.ambiguous)
            rows, cols = np.nonzero(g.mark)
            for round_ in range(p * p):
                proposals = _meek_proposals(g, rows, cols)
                assert proposals == meek_proposals_dense(g), (trial, round_)
                applied = [(a, b) for a, b in proposals if (b, a) not in proposals]
                cancelled += len(proposals) - len(applied)
                if not applied:
                    break
                later_rounds += round_ > 0
                for a, b in applied:
                    g.orient(a, b)
            assert np.array_equal(g.mark, closed.mark), trial
        assert ambiguous and cancelled and later_rounds


class TestCpdagFromDag:
    def test_chain_fully_undirected(self):
        dag = Dag(3, [[], [0], [1]])
        g = cpdag_from_dag(dag)
        assert g.edge_records() == [[0, 1, "--"], [1, 2, "--"]]

    def test_collider_fully_directed(self):
        dag = Dag(3, [[], [], [0, 1]])
        g = cpdag_from_dag(dag)
        assert {(0, 2), (1, 2)} <= set(g.directed_edges())

    def test_single_edge_undirected(self):
        dag = Dag(2, [[], [0]])
        assert cpdag_from_dag(dag).edge_records() == [[0, 1, "--"]]

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            p = int(rng.integers(3, 8))
            dag = random_dag(p, 0.35, rng, max_edges=12)
            assert cpdag_from_dag(dag) == equivalence_class_cpdag(dag), dag.parents

    def test_directed_part_acyclic(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            dag = random_dag(7, 0.4, rng)
            validate_cpdag(cpdag_from_dag(dag))

    def test_oracle_pipeline_permutation_equivariant(self):
        # with exact CI information every recorded sepset is a true
        # separator, whose membership pattern at unshielded triples is
        # label-free, so the full CPDAG relabels cleanly (finite-sample
        # runs relabel too, since orientation votes over every accepting
        # set of the final search; criterion 2 checks that)
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = 7
            dag = random_dag(p, 0.35, rng)
            g, seps, _ = skeleton_stable(dag, OracleTest(dag), p, SkeletonConfig())
            reference = meek_closure(orient_v_structures(g, seps))
            perm = [int(v) for v in rng.permutation(p)]
            relabeled = Dag(p, [sorted(perm.index(u) for u in dag.parents[perm[v]])
                                for v in range(p)])
            g2, seps2, _ = skeleton_stable(relabeled, OracleTest(relabeled), p,
                                           SkeletonConfig())
            permuted = meek_closure(orient_v_structures(g2, seps2))
            assert np.array_equal(permuted.mark,
                                  reference.mark[np.ix_(perm, perm)])
