"""Tests for the CI tests: frozen oracle values, invariants, fuzzing.

Expected values were computed first with the independent oracles in
oracles.py (mpmath at 50 digits, residual regression) and then frozen here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    fisher_p_highprec,
    mi_g_p_highprec,
    pcor_residuals,
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
    gaussian_suffstat,
    make_citest,
    partial_correlation,
)


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
            partial_correlation(stat, 0, 2, [1])
        assert 1 in err.value.variables

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
        for factory in (GSquaredTest, ChiSquaredTest):
            test = factory(stat)
            a, b = test(i, j, s), test(j, i, s)
            assert a == b
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


class TestBatchedPvalues:
    """``pvalues`` against the scalar call, bit for bit (NaN for degenerate)."""

    @pytest.mark.parametrize("factory", [FisherZTest, GaussianMiTest])
    @pytest.mark.parametrize("level", range(5))
    def test_bit_identical_to_scalar(self, factory, level):
        rng = np.random.default_rng(100 + level)
        data = rng.standard_normal((40, 12))
        data[:, 5] += 2.0 * data[:, 3]       # strong and weak dependences
        data[:, 7] += 0.3 * data[:, 5]
        ds = Dataset(data, [f"v{k}" for k in range(12)], [Continuous()] * 12)
        test = factory(gaussian_suffstat(ds))
        i, j, s = random_rows(rng, 12, level, 400)
        got = test.pvalues(i, j, s)
        assert got.shape == (400,)
        assert np.array_equal(got, scalar_pvalues(test, i, j, s))

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
        with pytest.raises(DegenerateConditioningError):
            test(0, 2, [1])
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

    @pytest.mark.parametrize("factory", [FisherZTest, GaussianMiTest])
    @pytest.mark.parametrize("i, j, s", [
        ([0, 1], [1, 1], [[2], [3]]),      # i == j
        ([0, 1], [1, 2], [[2], [1]]),      # set holds i
        ([0, 1], [1, 2], [[1], [3]]),      # set holds j
        ([0, 1], [1, 4], [[2], [3]]),      # out of range
        ([0, -1], [1, 2], [[2], [3]]),     # negative
        ([0, 1], [1, 2], [[2, 3], [3, 3]]),  # duplicate entry
    ])
    def test_invalid_rows_raise_like_scalar(self, factory, i, j, s):
        test = factory(identity_stat(4))
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
        test = GaussianMiTest(identity_stat(4))
        empty = np.empty(0, dtype=np.int64)
        assert test.pvalues(empty, empty, np.empty((0, 2), dtype=np.int64)).shape == (0,)
