"""Tests for the CI tests: frozen oracle values, invariants, fuzzing.

Expected values were computed first with the independent oracles in
oracles.py (mpmath at 50 digits, residual regression) and then frozen here.
"""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

import stablepc.citests as citests
from oracles import (
    chi2_sf,
    contingency_table,
    discrete_table_reference,
    fisher_p_highprec,
    gaussian_reference,
    g_squared_dict,
    mi_g_p_highprec,
    pcor_residuals,
    random_dag,
)
from stablepc import (
    ChiSquaredTest,
    CiTestOutcome,
    Dag,
    Dataset,
    Continuous,
    DegenerateConditioningError,
    DiscreteSuffStat,
    FisherZTest,
    GaussianMiTest,
    GaussianSuffStat,
    GSquaredTest,
    OracleTest,
    d_separated,
    gaussian_suffstat,
    make_citest,
    partial_correlation,
)
from stablepc.skeleton import estimate_task_cost


def identity_stat(p, n=50):
    return GaussianSuffStat(np.eye(p), n)


def stat_from_corr(values, n=100):
    corr = np.array(values, dtype=float)
    return GaussianSuffStat(corr, n)


def dataset_with_exact_corr(target, n=64, seed=0):
    """Data whose sample correlation equals ``target`` to rounding error.

    Orthonormalizes centered Gaussian columns, then mixes with the Cholesky
    factor of the target matrix.
    """
    target = np.array(target, dtype=float)
    p = target.shape[0]
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, p))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    q -= q.mean(axis=0)
    q /= np.sqrt((q ** 2).sum(axis=0))
    mixed = q @ np.linalg.cholesky(target).T
    return Dataset(mixed, [f"v{k}" for k in range(p)], [Continuous()] * p)


SPEC_CORR = [[1.0, 0.9, 0.8],
             [0.9, 1.0, 0.72],
             [0.8, 0.72, 1.0]]
# (0.9 - 0.8*0.72) / sqrt((1 - 0.64) * (1 - 0.5184)), via the |s|=1 recursion
PCOR_SPEC_VALUE = 0.7781270639007172


class TestPartialCorrelation:
    def test_empty_set_returns_entry_unchanged(self):
        stat = stat_from_corr([[1.0, 0.3], [0.3, 1.0]])
        assert partial_correlation(stat, 0, 1, []) == 0.3

    def test_recursion_formula_value(self):
        stat = stat_from_corr(SPEC_CORR)
        got = partial_correlation(stat, 0, 1, [2])
        assert got == pytest.approx(PCOR_SPEC_VALUE, abs=1e-12)

    def test_residual_regression_on_exact_corr_data(self):
        ds = dataset_with_exact_corr(SPEC_CORR)
        stat = gaussian_suffstat(ds)
        np.testing.assert_allclose(stat.corr, SPEC_CORR, atol=1e-12)
        got = partial_correlation(stat, 0, 1, [2])
        oracle = pcor_residuals(ds.values, 0, 1, [2])
        assert got == pytest.approx(oracle, abs=1e-10)
        assert got == pytest.approx(PCOR_SPEC_VALUE, abs=1e-9)

    def test_matches_residual_oracle_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            p = int(rng.integers(4, 9))
            data = rng.standard_normal((40, p)) @ (
                np.eye(p) + 0.3 * rng.standard_normal((p, p)))
            ds = Dataset(data, [f"v{k}" for k in range(p)], [Continuous()] * p)
            stat = gaussian_suffstat(ds)
            i, j = (int(v) for v in rng.choice(p, size=2, replace=False))
            others = sorted(set(range(p)) - {i, j})
            size = int(rng.integers(0, min(3, len(others)) + 1))
            s = sorted(int(v) for v in rng.choice(others, size=size, replace=False))
            got = partial_correlation(stat, i, j, s)
            assert got == pytest.approx(pcor_residuals(ds.values, i, j, s),
                                        abs=1e-10)

    def test_symmetric_in_pair(self):
        stat = stat_from_corr(SPEC_CORR)
        assert partial_correlation(stat, 0, 1, [2]) == \
            partial_correlation(stat, 1, 0, [2])

    def test_singular_submatrix_raises(self):
        corr = np.array([[1.0, 1.0, 0.5],
                         [1.0, 1.0, 0.5],
                         [0.5, 0.5, 1.0]])
        stat = GaussianSuffStat(corr, 30)
        with pytest.raises(DegenerateConditioningError) as err:
            partial_correlation(stat, 2, 0, [1])
        assert err.value.variables == (0, 2, 1)

    def test_validation(self):
        stat = identity_stat(4)
        with pytest.raises(ValueError):
            partial_correlation(stat, 1, 1, [])
        with pytest.raises(ValueError):
            partial_correlation(stat, 0, 1, [0])
        with pytest.raises(ValueError):
            partial_correlation(stat, 0, 1, [9])


class TestFisherZ:
    def test_zero_correlation(self):
        test = FisherZTest(identity_stat(4, n=30))
        out = test(0, 1, [2])
        assert out.statistic == 0.0 and out.p_value == 1.0 and out.dof == 0.0

    def test_small_sample_cannot_reject(self):
        # n=10 with |s|=7: effective sample n - |s| - 3 = 0
        test = FisherZTest(identity_stat(10, n=10))
        out = test(0, 1, [2, 3, 4, 5, 6, 7, 8])
        assert out.p_value == 1.0 and out.statistic == 0.0

    def test_frozen_point_value(self):
        # r=0.5, n=103, |s|=0: z = 10*atanh(0.5), p computed via mpmath
        stat = stat_from_corr([[1.0, 0.5], [0.5, 1.0]], n=103)
        out = FisherZTest(stat)(0, 1, [])
        assert out.statistic == pytest.approx(5.4930614433405485, rel=1e-14)
        assert out.p_value == pytest.approx(3.950252784999222e-08, rel=1e-9)

    def test_matches_highprec_evaluator(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            r = float(rng.uniform(-0.95, 0.95))
            n = int(rng.integers(10, 500))
            s_size = int(rng.integers(0, 5))
            corr = np.eye(2 + s_size)
            corr[0, 1] = corr[1, 0] = r
            stat = GaussianSuffStat(corr, n)
            s = list(range(2, 2 + s_size))
            out = FisherZTest(stat)(0, 1, s)
            effective_r = partial_correlation(stat, 0, 1, s)
            expected = fisher_p_highprec(effective_r, n, s_size)
            if expected > 0:
                assert out.p_value == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_r(self):
        n = 60
        previous = 2.0
        for r in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9):
            out = FisherZTest(stat_from_corr([[1, r], [r, 1]], n))(0, 1, [])
            assert out.p_value < previous or r == 0.0
            previous = out.p_value


class TestGaussianMi:
    def test_zero_correlation(self):
        out = GaussianMiTest(identity_stat(3, n=50))(0, 1, [])
        assert out.statistic == 0.0 and out.p_value == 1.0 and out.dof == 1.0

    def test_frozen_point_value(self):
        # G = -100 ln(0.75), p via mpmath chi2(1) tail
        stat = stat_from_corr([[1.0, 0.5], [0.5, 1.0]], n=100)
        out = GaussianMiTest(stat)(0, 1, [])
        assert out.statistic == pytest.approx(28.768207245178093, rel=1e-14)
        assert out.p_value == pytest.approx(8.157935737645077e-08, rel=1e-9)
        assert out.dof == 1.0

    def test_matches_highprec_evaluator(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            r = float(rng.uniform(-0.9, 0.9))
            n = int(rng.integers(20, 400))
            out = GaussianMiTest(stat_from_corr([[1, r], [r, 1]], n))(0, 1, [])
            expected = mi_g_p_highprec(r, n)
            if expected > 0:
                assert out.p_value == pytest.approx(expected, rel=1e-9)

    def test_perfect_correlation_degenerates_to_zero_p(self):
        out = GaussianMiTest(stat_from_corr([[1.0, 1.0], [1.0, 1.0]]))(0, 1, [])
        assert out.p_value == 0.0 and out.statistic == math.inf
        # data-derived correlation of proportional columns lands within an ulp
        ds = Dataset(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]),
                     ["a", "b"], [Continuous()] * 2)
        out = GaussianMiTest(gaussian_suffstat(ds))(0, 1, [])
        assert out.p_value < 1e-6

    def test_monotone(self):
        p1 = GaussianMiTest(stat_from_corr([[1, 0.2], [0.2, 1]], 80))(0, 1, []).p_value
        p2 = GaussianMiTest(stat_from_corr([[1, 0.6], [0.6, 1]], 80))(0, 1, []).p_value
        assert p1 > p2


def discrete_stat(columns, arities):
    return DiscreteSuffStat(np.array(columns, dtype=np.int64).T, arities)


class TestGSquared:
    def test_copied_column(self):
        col = [0] * 50 + [1] * 50
        stat = discrete_stat([col, list(col)], [2, 2])
        out = GSquaredTest(stat)(0, 1, [])
        assert out.statistic == pytest.approx(138.62943611198906, rel=1e-12)
        assert out.dof == 1.0
        assert out.p_value < 1e-20

    def test_balanced_independent_table(self):
        a = [0] * 50 + [1] * 50
        b = ([0] * 25 + [1] * 25) * 2
        out = GSquaredTest(discrete_stat([a, b], [2, 2]))(0, 1, [])
        assert out.statistic == pytest.approx(0.0, abs=1e-12)
        assert out.p_value == 1.0

    def test_dof_with_binary_conditioning(self):
        rng = np.random.default_rng(0)
        cols = [rng.integers(0, 2, 200) for _ in range(4)]
        out = GSquaredTest(discrete_stat(cols, [2, 2, 2, 2]))(0, 1, [2, 3])
        assert out.dof == 4.0

    def test_empty_strata_skipped(self):
        # conditioning column never takes value 1 in stratum with arity 3
        a = [0, 1, 0, 1, 0, 1]
        b = [0, 0, 1, 1, 0, 0]
        c = [0, 0, 0, 2, 2, 2]
        out = GSquaredTest(discrete_stat([a, b, c], [2, 2, 3]))(0, 1, [2])
        assert math.isfinite(out.statistic)
        assert out.dof == 3.0  # full arity product, no empty-stratum adjustment

    def test_dof_zero_gives_p_one(self):
        a = [0, 0, 0, 0]
        b = [0, 1, 0, 1]
        out = GSquaredTest(discrete_stat([a, b], [1, 2]))(0, 1, [])
        assert out.p_value == 1.0 and out.dof == 0.0


class TestChiSquared:
    def test_balanced_independent_table(self):
        a = [0] * 50 + [1] * 50
        b = ([0] * 25 + [1] * 25) * 2
        out = ChiSquaredTest(discrete_stat([a, b], [2, 2]))(0, 1, [])
        assert out.statistic == 0.0 and out.p_value == 1.0

    def test_hand_computed_table(self):
        # [[30, 10], [10, 30]]: X2 = 80*(30*30 - 10*10)^2 / 40^4 = 20
        a = [0] * 40 + [1] * 40
        b = [0] * 30 + [1] * 10 + [0] * 10 + [1] * 30
        out = ChiSquaredTest(discrete_stat([a, b], [2, 2]))(0, 1, [])
        assert out.statistic == pytest.approx(20.0, rel=1e-12)
        assert out.p_value == pytest.approx(7.744216431044084e-06, rel=1e-9)

    def test_close_to_g_squared_large_sample(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = 2000
            a = rng.integers(0, 2, n)
            flip = rng.random(n) < 0.35
            b = np.where(flip, 1 - a, a)
            stat = discrete_stat([a.tolist(), b.tolist()], [2, 2])
            g = GSquaredTest(stat)(0, 1, []).statistic
            x = ChiSquaredTest(stat)(0, 1, []).statistic
            assert abs(g - x) <= 0.05 * max(g, x)


class TestOracleTest:
    def test_chain(self):
        dag = Dag(3, [[], [0], [1]])
        test = OracleTest(dag)
        assert test(0, 2, [1]).p_value == 1.0
        assert test(0, 2, []).p_value == 0.0

    def test_collider(self):
        dag = Dag(3, [[], [], [0, 1]])
        assert OracleTest(dag)(0, 1, [2]).p_value == 0.0

    def test_pvalues_equal_scalar_calls_and_d_separated(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            p = int(rng.integers(3, 61))
            dag = random_dag(p, rng.uniform(0.5, 4.0) / p, rng)
            test = OracleTest(dag)
            size = int(rng.integers(0, min(6, p - 2) + 1))
            rows = np.stack([rng.choice(p, size=size + 2, replace=False) for _ in range(25)])
            got = test.pvalues(rows[:, 0], rows[:, 1], rows[:, 2:])
            for (i, j, *s), value in zip(rows.tolist(), got.tolist()):
                outcome = test(i, j, s)
                assert (outcome.statistic, outcome.dof) == (0.0, 0.0)
                assert value == outcome.p_value == float(d_separated(dag, i, j, s))


class TestOutcomeAndRegistry:
    def test_outcome_validation(self):
        with pytest.raises(ValueError):
            CiTestOutcome(0.0, 1.5, 0.0)
        with pytest.raises(ValueError):
            CiTestOutcome(0.0, 0.5, -1.0)

    def test_registry(self):
        g = identity_stat(3)
        assert isinstance(make_citest("fisher-z", gaussian=g), FisherZTest)
        assert isinstance(make_citest("mi-g", gaussian=g), GaussianMiTest)
        d = discrete_stat([[0, 1], [1, 0]], [2, 2])
        assert isinstance(make_citest("g-sq", discrete=d), GSquaredTest)
        assert isinstance(make_citest("x-sq", discrete=d), ChiSquaredTest)
        dag = Dag(2, [[], [0]])
        assert isinstance(make_citest("oracle", dag=dag), OracleTest)
        with pytest.raises(ValueError):
            make_citest("nope")
        with pytest.raises(ValueError):
            make_citest("fisher-z")


class TestInvariants:
    @given(st.integers(0, 10_000))
    def test_symmetry_and_range_gaussian(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 7))
        data = rng.standard_normal((25, p))
        ds = Dataset(data, [f"v{k}" for k in range(p)], [Continuous()] * p)
        stat = gaussian_suffstat(ds)
        i, j = (int(v) for v in rng.choice(p, size=2, replace=False))
        others = sorted(set(range(p)) - {i, j})
        size = int(rng.integers(0, min(3, len(others)) + 1))
        s = [int(v) for v in rng.choice(others, size=size, replace=False)]
        for factory in (FisherZTest, GaussianMiTest):
            test = factory(stat)
            a, b = test(i, j, s), test(j, i, s)
            assert a == b
            assert 0.0 <= a.p_value <= 1.0

    @given(st.integers(0, 10_000))
    def test_symmetry_and_range_discrete(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 6))
        arities = [int(a) for a in rng.integers(2, 4, size=p)]
        codes = np.column_stack([rng.integers(0, a, 40) for a in arities])
        stat = DiscreteSuffStat(codes, arities)
        i, j = (int(v) for v in rng.choice(p, size=2, replace=False))
        others = sorted(set(range(p)) - {i, j})
        size = int(rng.integers(0, len(others) + 1))
        s = [int(v) for v in rng.choice(others, size=size, replace=False)]
        permuted = [s[k] for k in rng.permutation(len(s))]
        for factory in (GSquaredTest, ChiSquaredTest):
            test = factory(stat)
            a, b = test(i, j, s), test(j, i, s)
            assert a == b
            assert test(i, j, permuted) == a
            assert 0.0 <= a.p_value <= 1.0


def scalar_pvalues(test, i, j, s):
    """The scalar calls row by row; NaN where a call raises
    DegenerateConditioningError."""
    out = []
    for a, b, sub in zip(i, j, s):
        try:
            out.append(test(int(a), int(b), [int(v) for v in sub]).p_value)
        except DegenerateConditioningError:
            out.append(math.nan)
    return np.array(out)


def random_rows(rng, p, size, count):
    drawn = np.array([rng.choice(p, size=size + 2, replace=False)
                      for _ in range(count)], dtype=np.int64)
    return drawn[:, 0], drawn[:, 1], drawn[:, 2:]


def outcomes_or_none(call, i, j, s):
    """``call(a, b, sub)`` per row as a tuple, None where it raises
    DegenerateConditioningError."""
    out = []
    for a, b, sub in zip(i.tolist(), j.tolist(), s.tolist()):
        try:
            out.append(tuple(call(a, b, sub)))
        except DegenerateConditioningError:
            out.append(None)
    return out


def mixed_arity_stat(seed, n=40, p=10):
    """Codes of arities 1-4 with some dependences: column 0 has arity 1 (a
    dof-0 pair), column 1 has arity 4 but never takes code 3 (an empty
    stratum whenever it is conditioned on)."""
    rng = np.random.default_rng(seed)
    arities = [1, 4] + [int(a) for a in rng.integers(2, 5, size=p - 2)]
    codes = np.column_stack([rng.integers(0, a, n) for a in arities])
    codes[:, 1] = rng.integers(0, 3, n)
    codes[:, 3] = (codes[:, 2] + (rng.random(n) < 0.2)) % arities[3]
    codes[:, 5] = (codes[:, 3] + codes[:, 4]) % arities[5]
    return DiscreteSuffStat(codes, arities)


def make_test(factory, p=4):
    """``factory`` over a statistic of its kind with p variables."""
    if factory in DISCRETE_TESTS:
        return factory(DiscreteSuffStat(np.arange(10 * p).reshape(10, p) % 2, [2] * p))
    return factory(identity_stat(p))


DISCRETE_TESTS = (GSquaredTest, ChiSquaredTest)


class TestBatchedPvalues:
    """``pvalues`` against the scalar call, bit for bit (NaN for degenerate)."""

    @pytest.mark.parametrize("factory", [FisherZTest, GaussianMiTest])
    @pytest.mark.parametrize("level", range(5))
    def test_bit_identical_to_scalar(self, factory, level):
        # both forms against the former scalar code, singular sets included
        rng = np.random.default_rng(100 + level)
        data = rng.standard_normal((40, 12))
        data[:, 5] += 2.0 * data[:, 3]       # strong and weak dependences
        data[:, 7] += 0.3 * data[:, 5]
        ds = Dataset(data, [f"v{k}" for k in range(12)], [Continuous()] * 12)
        corr = gaussian_suffstat(ds).corr.copy()
        corr[9], corr[:, 9] = corr[8], corr[8]  # 9 copies 8: r = 1 for the pair,
        stat = GaussianSuffStat(corr, 40)       # and a set holding both is singular
        test = factory(stat)
        i, j, s = random_rows(rng, 12, level, 400)
        reference = outcomes_or_none(
            partial(gaussian_reference, stat, mi=factory is GaussianMiTest), i, j, s)
        expected = np.array([math.nan if o is None else o[1] for o in reference])
        got = test.pvalues(i, j, s)
        assert got.shape == (400,)
        assert np.array_equal(got, expected, equal_nan=True)
        assert outcomes_or_none(lambda *row: vars(test(*row)).values(), i, j, s) == reference
        # without a singular matrix the stack is inverted in one call
        regular = ~np.isnan(expected)
        assert np.array_equal(test.pvalues(i[regular], j[regular], s[regular]),
                              expected[regular])
        assert regular.all() if level == 0 else not regular.all()
        assert any(sorted((a, b)) == [8, 9] for a, b in zip(i.tolist(), j.tolist()))

    @pytest.mark.parametrize("factory", [FisherZTest, GaussianMiTest])
    def test_singular_submatrix_gives_nan(self, factory):
        # 0 and 1 are copies: any set holding the other copy is singular
        corr = np.array([[1.0, 1.0, 0.5, 0.2],
                         [1.0, 1.0, 0.5, 0.2],
                         [0.5, 0.5, 1.0, 0.3],
                         [0.2, 0.2, 0.3, 1.0]])
        test = factory(GaussianSuffStat(corr, 30))
        i = np.array([0, 2, 2, 0])
        j = np.array([2, 3, 0, 3])
        s = np.array([[1], [0], [3], [2]])
        with pytest.raises(DegenerateConditioningError) as err:
            test(2, 0, [1])
        assert err.value.variables == (0, 2, 1)     # the canonical row
        got = test.pvalues(i, j, s)
        assert np.isnan(got[0]) and not np.isnan(got[1:]).any()
        assert np.array_equal(got, scalar_pvalues(test, i, j, s), equal_nan=True)

    def test_effective_sample_exhausted(self):
        # n=5 with |s|=3: n - |s| - 3 < 0, so no row can reject, but a
        # singular set (0 and 1 are copies) stays NaN as the scalar raises
        corr = np.eye(6)
        corr[0, 1] = corr[1, 0] = 1.0
        test = FisherZTest(GaussianSuffStat(corr, 5))
        s = np.array([[1, 3, 4], [1, 3, 4]])
        got = test.pvalues(np.array([0, 2]), np.array([5, 5]), s)
        assert np.isnan(got[0]) and got[1] == 1.0
        assert np.array_equal(got, scalar_pvalues(test, [0, 2], [5, 5], s),
                              equal_nan=True)

    @pytest.mark.parametrize("factory", DISCRETE_TESTS)
    @pytest.mark.parametrize("level", range(5))
    def test_discrete_bit_identical_to_table_reference(self, factory, level):
        stat = mixed_arity_stat(200 + level)
        pearson = factory is ChiSquaredTest
        test = factory(stat)
        rng = np.random.default_rng(300 + level)
        i, j, s = random_rows(rng, stat.p, level, 300)
        reference = [discrete_table_reference(stat, a, b, sub, pearson)
                     for a, b, sub in zip(i.tolist(), j.tolist(), s.tolist())]
        got = test.pvalues(i, j, s)
        assert np.array_equal(got, np.array([p for _, p, _ in reference]))
        assert [tuple(vars(test(a, b, sub)).values())
                for a, b, sub in zip(i.tolist(), j.tolist(), s.tolist())] == reference
        # the call mixes table shapes and holds dof-0 rows; above level 0
        # it holds empty strata, from level 3 on rows with more strata
        # than samples
        ar = np.array(stat.arities)
        shapes = {(ar[a], ar[b], math.prod(ar[sub])) for a, b, sub in zip(i, j, s)}
        assert len(shapes) > 1
        assert any(dof == 0.0 for _, _, dof in reference)
        if level:
            assert any(1 in sub for sub in s.tolist())
        if level >= 3:
            assert any(math.prod(ar[sub]) > stat.n for sub in s)

    @pytest.mark.parametrize("factory", DISCRETE_TESTS)
    def test_table_bounded_by_samples(self, factory):
        # arity 32 at level 3 with n=200: the full table would hold
        # 32**3 * 32 * 32 (33.5M) cells, the bounded one 200 * 32 * 32
        rng = np.random.default_rng(5)
        n, p, level = 200, 5, 3
        stat = DiscreteSuffStat(rng.integers(0, 32, (n, p)), [32] * p)
        test = factory(stat)
        cells = min(n, 32 ** level) * 32 * 32
        one = (np.array([0]), np.array([1]), np.array([[2, 3, 4]]))
        test.pvalues(*one)                      # warm-up call, untraced
        tracemalloc.start()
        try:
            p_value = test.pvalues(*one)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 <= p_value <= 1.0
        # one int64 count per bounded cell, and no more than as much again
        # in scratch: what the batch planner budgets for the task
        assert peak <= 2 * 8 * cells
        assert peak <= estimate_task_cost(level, stat)

    def test_huge_arity_product_matches_dict_reference(self):
        # 32**14 strata: an int64 stratum key would overflow
        rng = np.random.default_rng(6)
        codes = rng.integers(0, 32, (50, 16))
        codes[:, 1] = (codes[:, 0] + (rng.random(50) < 0.3)) % 32
        stat = DiscreteSuffStat(codes, [32] * 16)
        s = range(2, 16)
        g, dof = g_squared_dict(codes, stat.arities, 0, 1, s)
        out = GSquaredTest(stat)(0, 1, s)
        assert out.statistic == pytest.approx(g, rel=1e-12)
        assert out.dof == float(dof)
        assert 0.0 <= out.p_value <= 1.0
        assert out.p_value == pytest.approx(chi2_sf(g, float(dof)), abs=1e-12)
        batched = GSquaredTest(stat).pvalues(np.array([0]), np.array([1]),
                                             np.array([list(s)]))
        assert batched[0] == out.p_value

    @pytest.mark.parametrize("factory", [FisherZTest, GaussianMiTest, *DISCRETE_TESTS])
    @pytest.mark.parametrize("i, j, s", [
        ([0, 1], [1, 1], [[2], [3]]),      # i == j
        ([0, 1], [1, 2], [[2], [1]]),      # set holds i
        ([0, 1], [1, 2], [[1], [3]]),      # set holds j
        ([0, 1], [1, 4], [[2], [3]]),      # out of range
        ([0, -1], [1, 2], [[2], [3]]),     # negative
        ([0, 1], [1, 2], [[2, 3], [3, 3]]),  # duplicate entry
    ])
    def test_invalid_rows_raise_like_scalar(self, factory, i, j, s):
        test = make_test(factory)
        with pytest.raises(ValueError):
            scalar_pvalues(test, i, j, s)
        with pytest.raises(ValueError):
            test.pvalues(np.array(i), np.array(j), np.array(s))

    def test_shapes_and_dtype_checked(self):
        test = FisherZTest(identity_stat(4))
        with pytest.raises(ValueError):
            test.pvalues(np.array([0]), np.array([1, 2]), np.array([[2], [3]]))
        with pytest.raises(ValueError):
            test.pvalues(np.array([0]), np.array([1]), np.array([2]))
        with pytest.raises(ValueError):
            test.pvalues(np.array([0.0]), np.array([1.0]), np.array([[2.0]]))

    def test_empty_batch(self):
        empty = np.empty(0, dtype=np.int64)
        for factory in (FisherZTest, GaussianMiTest, *DISCRETE_TESTS):
            test = make_test(factory)
            got = test.pvalues(empty, empty, np.empty((0, 2), dtype=np.int64))
            assert got.shape == (0,)


def uniform_stat(n, arity, p=7, seed=0):
    codes = np.random.default_rng(seed).integers(0, arity, (n, p))
    return DiscreteSuffStat(codes, [arity] * p)


# The counting path of one row per (n, arity), level 0 to 4: "b" bitsets,
# "k" radix keys and bincount, "r" ranked strata.  Every path appears, so a
# moved crossover that leaves one uncovered fails here first.
PINNED_PATHS = {
    (30, 2): "bkkkk", (30, 3): "kkkkr", (30, 4): "kkkrr",
    (100, 2): "bbkkk", (100, 3): "bkkkk", (100, 4): "kkkkr",
    (500, 2): "bbbbk", (500, 3): "bbkkk", (500, 4): "bkkkk",
    (4000, 2): "bbbbb", (4000, 3): "bbbkk", (4000, 4): "bbkkk",
}


def canonical_cols(rng, arities, level):
    """One random row [*s, i, j] in radix order (i < j, s ascending)."""
    i, j, *s = rng.choice(len(arities), level + 2, replace=False).tolist()
    return np.array([*sorted(s), min(i, j), max(i, j)])


class TestCountingPaths:
    """Bitsets, bincount and ranked strata count the same tables."""

    def test_paths_count_identical_tables(self):
        # arities 1-4; n = 24 fills less than one word, so sets of three or
        # more variables have more strata than samples and the ranked path
        # has rows to count too; n = 130 and 1000 leave padding bits in the
        # last word
        for n in (24, 130, 1000):
            self.check_paths_on(n)

    def check_paths_on(self, n):
        rng = np.random.default_rng(9 + n)
        arities = [2, 3, 2, 4, 3, 2, 1, 3]
        stat = DiscreteSuffStat(np.column_stack([rng.integers(0, a, n) for a in arities]),
                                arities)
        codes_t = stat.codes.T
        ranked_rows = 0
        for level in range(6):
            for _ in range(12):
                cols = canonical_cols(rng, arities, level)
                *s, i, j = cols.tolist()
                shape = tuple(arities[v] for v in cols)
                reference, _ = contingency_table(stat, i, j, tuple(s))
                full = reference.reshape(-1)
                bits = citests._bitset_counts(stat, cols[None], shape)[0]
                keys = citests._bincount_counts(codes_t, cols[None], np.array([shape]),
                                                full.size)[0]
                assert np.array_equal(bits, full) and np.array_equal(keys, full)
                key, count = citests._ranked_cell_keys(codes_t, stat.arities, cols, stat.n)
                ranked = np.bincount(key, minlength=count * shape[-2] * shape[-1]).reshape(
                    count, *shape[-2:])
                # the ranks keep the strata in key order; empty ones may go
                occupied = ranked.sum(axis=(1, 2)) > 0
                assert np.array_equal(ranked[occupied],
                                      reference[reference.sum(axis=(1, 2)) > 0])
                ranked_rows += count < len(reference)
                for pearson in (False, True):
                    expected = discrete_table_reference(stat, i, j, s, pearson)[0]
                    for counts in (bits.reshape(reference.shape), ranked):
                        got = citests._table_statistics(counts[None], pearson)[0]
                        assert got * (1.0 if pearson else 2.0) == expected
        assert ranked_rows > 0 or n > 24

    @pytest.mark.parametrize("n", [24, 130, 1000])
    def test_chunk_of_rows_counts_each_row_alone(self, n):
        # many rows of one shape counted together, in the cell-major blocks
        # of the bitsets and behind the row offsets of the narrow keys, give
        # each row the table it has alone; the shapes hold arity-1 columns
        rng = np.random.default_rng(12 + n)
        arities = [3, 1, 3, 2, 3, 1, 3, 2]
        stat = DiscreteSuffStat(np.column_stack([rng.integers(0, a, n) for a in arities]),
                                arities)
        by_shape: dict[tuple[int, ...], list[np.ndarray]] = {}
        for level in range(4):
            for _ in range(150):
                cols = canonical_cols(rng, arities, level)
                by_shape.setdefault(tuple(arities[v] for v in cols), []).append(cols)
        tested = 0
        for shape, rows in by_shape.items():
            if len(rows) < 2:
                continue
            cols = np.array(rows)
            cells = math.prod(shape)
            expected = np.array([contingency_table(stat, c[-2], c[-1], tuple(c[:-2]))[0]
                                 .reshape(-1) for c in cols.tolist()])
            bits = citests._bitset_counts(stat, cols, shape)
            keys = citests._bincount_counts(stat.codes.T, cols,
                                            np.array(shape)[None].repeat(len(cols), 0), cells)
            assert np.array_equal(bits, expected) and np.array_equal(keys, expected)
            tested += 1
        assert tested >= 10 and any(1 in shape for shape in by_shape)

    def test_narrow_keys_wrap_back_exact(self):
        # keys up to 255 are uint8, one row of 256 cells; its arity of 256
        # wraps to 0 in uint8 and multiplies the arity-1 column's zero key
        assert citests._key_dtype(255) is np.uint8
        assert citests._key_dtype(256) is np.uint16
        assert citests._key_dtype(2 ** 32) is np.int64
        rng = np.random.default_rng(15)
        codes = np.column_stack([np.zeros(300, dtype=int), rng.integers(0, 256, 300),
                                 rng.integers(0, 2, 300)])
        stat = DiscreteSuffStat(codes, [1, 256, 2])
        assert stat.codes.dtype == np.uint8
        for cols, shape in (([0, 1], (1, 256)), ([1, 0, 2], (256, 1, 2))):
            cols = np.array([cols])
            keys = citests._bincount_counts(stat.codes.T, cols, np.array([shape]),
                                            math.prod(shape))
            *s, i, j = cols[0].tolist()
            assert np.array_equal(keys[0], contingency_table(stat, i, j, tuple(s))[0]
                                  .reshape(-1))

    @pytest.mark.parametrize("factory", DISCRETE_TESTS)
    @pytest.mark.parametrize("bitsets", [True, False])
    @pytest.mark.parametrize("level", range(5))
    def test_forced_path_matches_table_reference(self, monkeypatch, factory, bitsets, level):
        # every table on one path, arity-1 columns and empty strata included;
        # a call of one row has one exact shape, the only kind the bitsets
        # take, and a call of mixed shapes counts on bincount
        monkeypatch.setattr(citests, "_bitset_path", lambda *size: bitsets)
        stat = mixed_arity_stat(400 + level)
        rng = np.random.default_rng(500 + level)
        i, j, s = random_rows(rng, stat.p, level, 200)
        pearson = factory is ChiSquaredTest
        expected = [discrete_table_reference(stat, a, b, sub, pearson)[1]
                    for a, b, sub in zip(i.tolist(), j.tolist(), s.tolist())]
        test = factory(stat)
        one_by_one = [test.pvalues(i[k:k + 1], j[k:k + 1], s[k:k + 1])[0] for k in range(len(i))]
        assert np.array_equal(one_by_one, np.array(expected))
        assert np.array_equal(test.pvalues(i, j, s), np.array(expected))

    @pytest.mark.parametrize("n, arity", sorted(PINNED_PATHS))
    def test_pinned_path(self, monkeypatch, n, arity):
        seen = []
        for name, label in (("_bitset_counts", "b"), ("_bincount_counts", "k"),
                            ("_ranked_cell_keys", "r")):
            real = getattr(citests, name)
            monkeypatch.setattr(citests, name,
                                lambda *args, real=real, label=label: seen.append(label)
                                or real(*args))
        test = GSquaredTest(uniform_stat(n, arity))
        for level in range(5):
            test.pvalues(np.array([0]), np.array([1]), np.arange(2, 2 + level)[None])
        assert "".join(seen) == PINNED_PATHS[n, arity]

    def test_pinned_paths_cover_every_path(self):
        assert set("".join(PINNED_PATHS.values())) == set("bkr")

    def test_arity_above_bitset_cap_counts_on_keys(self, monkeypatch):
        # cells = 60 at level 1 would take the bitsets, but arity 60 has none
        rng = np.random.default_rng(10)
        codes = np.column_stack([rng.integers(0, 60, 4000), np.zeros((4000, 2), dtype=int),
                                 rng.integers(0, 2, 4000)])
        stat = DiscreteSuffStat(codes, [60, 1, 1, 2])
        assert stat.bit_rows.tolist() == [-1, 0, 1, 2]
        assert citests._bitset_path(60, 63)
        monkeypatch.setattr(citests, "_bitset_counts", None)
        got = GSquaredTest(stat).pvalues(np.array([0]), np.array([1]), np.array([[2]]))
        assert got[0] == discrete_table_reference(stat, 0, 1, [2], False)[1]

    @pytest.mark.parametrize("words", [1, 63, 1 << 12, 1 << 18])
    def test_bitset_cap_is_the_rule_s_reach(self, words):
        # a table holding a variable of arity a and a partner of arity >= 2
        # has at least 2 * a cells, the fewest at level 0, and the rule takes
        # fewer cells only; above the cap no such table takes the bitsets,
        # at any n
        above = citests.BITSET_MAX_ARITY + 1
        assert not citests._bitset_path(2 * above, words)
        assert citests._bitset_path(2 * citests.BITSET_MAX_ARITY, 1 << 18)
        assert not citests._bitset_path(4, (1 << 18) + 1)

    def test_bitset_scratch_bounded_by_chunk(self, monkeypatch):
        # 2000 level-2 rows hold 2000 * 81 cells of 63 words, 82 MB of cell
        # bitsets, 32 MB of keys, 1.3 MB of counts, and their statistics
        # take about nine times their counts; counted a chunk at a time and
        # summed a block at a time, they stay within a few CHUNK_BYTES on
        # either path, levels 0-2
        rng = np.random.default_rng(11)
        test = GSquaredTest(uniform_stat(4000, 3, p=8))
        for bitsets in (True, False):
            monkeypatch.setattr(citests, "_bitset_path", lambda *size: bitsets)
            for level in (0, 1, 2):
                i, j, s = random_rows(rng, 8, level, 2000)
                test.pvalues(i, j, s)                   # warm-up call, untraced
                tracemalloc.start()
                try:
                    test.pvalues(i, j, s)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak <= 3 * citests.CHUNK_BYTES + 200 * len(i), (bitsets, level)

    def test_statistics_block_bounded(self):
        # one statistics pass over a block of dense tables takes about nine
        # times the block's counts, and a block's counts take STATISTICS_BYTES
        rng = np.random.default_rng(16)
        rows = citests.STATISTICS_BYTES // (8 * 81)
        counts = rng.multinomial(4000, np.full(81, 1 / 81), size=rows).reshape(rows, 9, 3, 3)
        for pearson in (False, True):
            citests._table_statistics(counts, pearson)
            tracemalloc.start()
            try:
                citests._table_statistics(counts, pearson)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert counts.nbytes <= citests.STATISTICS_BYTES
            assert peak <= 10 * citests.STATISTICS_BYTES <= 2 * citests.CHUNK_BYTES


class TestRowSums:
    """Each row's statistic adds its terms as ``np.add.reduce`` adds them."""

    def test_segments_reduce_like_add_reduce(self):
        # runs of 0 to 300 terms cross numpy's pairwise cut-offs at 8 and
        # 128; the two long ones cross its 8192-element buffer
        rng = np.random.default_rng(13)
        lengths = np.concatenate((rng.permutation(301), [9000, 20000]))
        terms = rng.standard_normal(lengths.sum()) * 10.0 ** rng.uniform(-3, 3, lengths.sum())
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        got = citests._row_sums(terms, starts)
        expected = [np.add.reduce(terms[a:a + m]) for a, m in zip(starts, lengths)]
        assert np.array_equal(got, expected)
        # the order matters: adding each run in order would differ
        assert any(np.cumsum(terms[a:a + m])[-1] != e
                   for a, m, e in zip(starts, lengths, expected) if m)

    @pytest.mark.parametrize("pearson", [False, True])
    def test_statistic_adds_its_compacted_terms(self, pearson):
        # one call of 301 rows whose tables hold 0 to 300 observed cells:
        # each row's statistic is np.add.reduce of its terms in C order,
        # the terms of a row computed here one stratum at a time
        rng = np.random.default_rng(14)
        strata, ai, aj = 4, 4, 20
        counts = np.zeros((301, strata * ai * aj), dtype=np.int64)
        for row, observed in enumerate(rng.permutation(301).tolist()):
            counts[row, rng.choice(counts.shape[1], observed, replace=False)] = \
                rng.integers(1, 50, observed)
        counts = counts.reshape(301, strata, ai, aj)
        got = citests._table_statistics(counts, pearson)
        lengths = []
        for row, tables in enumerate(counts):
            terms = []
            for table in tables:
                total = table.sum()
                if total == 0:
                    continue
                expected = table.sum(axis=1)[:, None] * table.sum(axis=0)[None, :] / total
                keep = expected > 0 if pearson else table > 0
                o, e = table[keep], expected[keep]
                terms.append((o - e) ** 2 / e if pearson else o * np.log(o / e))
            terms = np.concatenate(terms) if terms else np.empty(0)
            lengths.append(len(terms))
            assert got[row] == np.add.reduce(terms)
        assert min(lengths) < 8 and max(lengths) > 128
