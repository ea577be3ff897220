"""Conditional-independence tests behind a single pluggable callable contract.

A CI test is a callable ``test(i, j, s) -> CiTestOutcome`` closed over an
immutable sufficient statistic, symmetric in (i, j), and safe to invoke from
any number of workers concurrently.  Four concrete tests are provided
(Fisher z and a Gaussian mutual-information test for continuous data, the
G-squared and Pearson chi-squared tests for discrete data) plus an exact
d-separation oracle used for verification.  The callable contract is the
extension point for further tests.

A test may also offer ``pvalues(i, j, s) -> ndarray``, the batched form the
skeleton engine prefers: int arrays of shapes (m,), (m,) and (m, l) in, one
p-value per row out, NaN where the scalar call would raise
``DegenerateConditioningError``.  The two Gaussian tests offer it, and their
batched p-values are bit-identical to the scalar ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np
from scipy.special import gammaincc

from .data import DiscreteSuffStat, GaussianSuffStat
from .graphs import Dag, d_separated

# |r| is clamped below 1 by this margin before atanh to keep z finite.
ATANH_CLAMP = 1.0 - 1e-12

TEST_IDS = ("fisher-z", "mi-g", "g-sq", "x-sq", "oracle")


class DegenerateConditioningError(Exception):
    """Singular conditioning submatrix; carries the offending variable set."""

    def __init__(self, variables: Sequence[int]):
        self.variables = tuple(variables)
        super().__init__(f"degenerate conditioning on variables {self.variables}")


@dataclass(frozen=True)
class CiTestOutcome:
    statistic: float
    p_value: float
    dof: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value {self.p_value} outside [0, 1]")
        if self.dof < 0:
            raise ValueError(f"dof {self.dof} must be nonnegative")


class CiTest(Protocol):
    def __call__(self, i: int, j: int, s: Sequence[int]) -> CiTestOutcome: ...


# The scalar path's own libm calls, applied elementwise, so that batched
# p-values match scalar ones bit for bit (numpy's and scipy's vectorized
# atanh, erfc and log differ from them in the last digits).
_atanh = np.frompyfunc(math.atanh, 1, 1)
_erfc = np.frompyfunc(math.erfc, 1, 1)
_log = np.frompyfunc(math.log, 1, 1)


def normal_sf(z: float) -> float:
    """Upper tail of the standard normal, via erfc."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def chi2_sf(x: float, dof: float) -> float:
    """Upper tail of chi-squared, via the regularized incomplete gamma."""
    if dof <= 0:
        return 1.0
    if x <= 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    return float(gammaincc(dof / 2.0, x / 2.0))


def _validate_triplet(p: int, i: int, j: int, s: Sequence[int]) -> tuple[int, ...]:
    s = tuple(int(v) for v in s)
    if i == j:
        raise ValueError("i and j must differ")
    if i in s or j in s:
        raise ValueError("conditioning set must exclude i and j")
    for v in (i, j, *s):
        if not 0 <= v < p:
            raise ValueError(f"variable index {v} out of range [0, {p})")
    if len(set(s)) != len(s):
        raise ValueError("conditioning set has duplicate entries")
    return s


def _canonical_rows(p: int, i: object, j: object, s: object) -> np.ndarray:
    """Rows [min(i, j), max(i, j), *sorted(s)] as an (m, l + 2) int64 array,
    the scalar call's canonical order, after ``_validate_triplet``'s checks
    on every row at once: the first bad row raises the scalar call's error."""
    i, j, s = np.asarray(i), np.asarray(j), np.asarray(s)
    if i.ndim != 1 or j.shape != i.shape or s.ndim != 2 or len(s) != len(i):
        raise ValueError("index arrays must have shapes (m,), (m,) and (m, l)")
    for a in (i, j, s):
        if a.dtype.kind not in "iu" and a.size:
            raise ValueError("variable indices must be integers")
    rows = np.concatenate((i[:, None], j[:, None], s), axis=1).astype(np.int64)
    # Read as unsigned, a negative index sorts last, so one bound check
    # catches both ends of [0, p); a repeated index sorts next to itself.
    ordered = np.sort(rows.view(np.uint64), axis=1)
    if (np.count_nonzero(ordered[:, -1:] >= p)
            or np.count_nonzero(ordered[:, 1:] == ordered[:, :-1])):
        bad = (ordered[:, -1] >= p) | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        k = int(bad.argmax())
        _validate_triplet(p, int(i[k]), int(j[k]), s[k].tolist())
    rows[:, :2].sort(axis=1)
    rows[:, 2:].sort(axis=1)
    return rows


def partial_correlation(stat: GaussianSuffStat, i: int, j: int, s: Sequence[int]) -> float:
    """Partial correlation of i and j given s.

    Inverts the principal submatrix of the correlation matrix over
    {i, j} | s and reads the normalized off-diagonal of the precision
    matrix: r = -P[i,j] / sqrt(P[i,i] * P[j,j]).  Cubic in |s| and
    independent of evaluation order, which is what the parallel executor
    needs.  Raises DegenerateConditioningError on a singular submatrix.
    """
    s = _validate_triplet(stat.p, i, j, s)
    if not s:
        return float(stat.corr[i, j])
    # canonical pair order makes the outcome bit-identical under (i, j) swap
    idx = [min(i, j), max(i, j), *sorted(s)]
    sub = stat.corr[np.ix_(idx, idx)]
    try:
        prec = np.linalg.inv(sub)
    except np.linalg.LinAlgError:
        raise DegenerateConditioningError(idx) from None
    denom = prec[0, 0] * prec[1, 1]
    if not np.isfinite(prec).all() or denom <= 0:
        raise DegenerateConditioningError(idx)
    r = -prec[0, 1] / math.sqrt(denom)
    return min(1.0, max(-1.0, float(r)))


def _inverse_or_nan(sub: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(sub)
    except np.linalg.LinAlgError:
        return np.full_like(sub, np.nan)


def _partial_correlations(stat: GaussianSuffStat, i: object, j: object,
                          s: object) -> np.ndarray:
    """``partial_correlation`` of every row, NaN where it raises
    DegenerateConditioningError.

    The rows' submatrices, in the scalar call's canonical order, are
    inverted as one stack; if one of them is exactly singular the stack is
    inverted matrix by matrix instead.  Each matrix takes the scalar call's
    LAPACK path, so every value is bit-identical to the scalar one.
    """
    idx = _canonical_rows(stat.p, i, j, s)
    if idx.shape[1] == 2:
        return stat.corr[idx[:, 0], idx[:, 1]]  # exactly symmetric
    sub = stat.corr[idx[:, :, None], idx[:, None, :]]
    try:
        prec = np.linalg.inv(sub)
    except np.linalg.LinAlgError:
        prec = np.stack([_inverse_or_nan(m) for m in sub])
    denom = prec[:, 0, 0] * prec[:, 1, 1]
    ok = np.isfinite(prec).all(axis=(1, 2)) & (denom > 0)
    # NaN in the rows that are not ok; dividing by it raises no warning
    root = np.sqrt(denom, out=np.full(len(denom), np.nan), where=ok)
    r = np.divide(-prec[:, 0, 1], root, out=root)
    return np.minimum(1.0, np.maximum(-1.0, r, out=r), out=r)


@dataclass(frozen=True)
class FisherZTest:
    """Fisher z transform of the partial correlation, standard normal tail.

    With fewer than |s| + 4 samples the test cannot reject and returns
    p = 1, statistic = 0.
    """

    stat: GaussianSuffStat

    def __call__(self, i: int, j: int, s: Sequence[int]) -> CiTestOutcome:
        r = partial_correlation(self.stat, i, j, s)
        effective = self.stat.n - len(tuple(s)) - 3
        if effective <= 0:
            return CiTestOutcome(0.0, 1.0, 0.0)
        clamped = math.copysign(min(abs(r), ATANH_CLAMP), r)
        z = math.sqrt(effective) * math.atanh(clamped)
        return CiTestOutcome(z, 2.0 * normal_sf(abs(z)), 0.0)

    def pvalues(self, i: object, j: object, s: object) -> np.ndarray:
        """One p-value per row of (i, j, s), NaN for a degenerate set; each
        equals the scalar call's bit for bit."""
        r = _partial_correlations(self.stat, i, j, s)
        effective = self.stat.n - np.shape(s)[1] - 3
        if effective <= 0:
            return np.where(np.isnan(r), np.nan, 1.0)
        clamped = np.copysign(np.minimum(np.abs(r), ATANH_CLAMP), r)
        z = math.sqrt(effective) * _atanh(clamped).astype(float)
        return 2.0 * (0.5 * _erfc(np.abs(z) / math.sqrt(2.0)).astype(float))


@dataclass(frozen=True)
class GaussianMiTest:
    """Mutual-information-style likelihood test: G = -n * ln(1 - r^2), chi2(1)."""

    stat: GaussianSuffStat

    def __call__(self, i: int, j: int, s: Sequence[int]) -> CiTestOutcome:
        r = partial_correlation(self.stat, i, j, s)
        rem = 1.0 - r * r
        if rem <= 0.0:
            return CiTestOutcome(math.inf, 0.0, 1.0)
        g = -self.stat.n * math.log(rem)
        return CiTestOutcome(g, chi2_sf(g, 1.0), 1.0)

    def pvalues(self, i: object, j: object, s: object) -> np.ndarray:
        """One p-value per row of (i, j, s), NaN for a degenerate set; each
        equals the scalar call's bit for bit."""
        r = _partial_correlations(self.stat, i, j, s)
        rem = 1.0 - r * r
        out = np.where(rem <= 0.0, 0.0, np.nan)
        live = rem > 0.0
        g = -self.stat.n * _log(rem[live]).astype(float)
        # chi2_sf(g, 1.0): the upper tail is 1 at g <= 0
        out[live] = np.where(g > 0.0, gammaincc(0.5, g / 2.0), 1.0)
        return out


def _contingency(stat: DiscreteSuffStat, i: int, j: int,
                 s: tuple[int, ...]) -> tuple[np.ndarray, float]:
    """Per-stratum i-by-j contingency tables and the dof of the stratified test.

    Strata are the joint configurations of s.  The dof uses the full arity
    product over s; strata that happen to be empty do not reduce it.  The
    pair is canonicalized so a swapped call takes the identical code path.
    """
    i, j = (i, j) if i < j else (j, i)
    codes = stat.codes
    ai, aj = stat.arities[i], stat.arities[j]
    strata = 1
    key = np.zeros(stat.n, dtype=np.int64)
    for k in s:
        key = key * stat.arities[k] + codes[:, k]
        strata *= stat.arities[k]
    flat = (key * ai + codes[:, i]) * aj + codes[:, j]
    counts = np.bincount(flat, minlength=strata * ai * aj).reshape(strata, ai, aj)
    dof = float((ai - 1) * (aj - 1) * strata)
    return counts, dof


def _expected(counts: np.ndarray) -> np.ndarray:
    """Independence-model expected counts per stratum; empty strata are zeroed."""
    totals = counts.sum(axis=(1, 2))
    rows = counts.sum(axis=2)
    cols = counts.sum(axis=1)
    safe = np.where(totals > 0, totals, 1)
    expected = rows[:, :, None] * cols[:, None, :] / safe[:, None, None].astype(float)
    expected[totals == 0] = 0.0
    return expected


@dataclass(frozen=True)
class GSquaredTest:
    """Stratified likelihood-ratio test for discrete data."""

    stat: DiscreteSuffStat

    def __call__(self, i: int, j: int, s: Sequence[int]) -> CiTestOutcome:
        s = _validate_triplet(self.stat.p, i, j, s)
        counts, dof = _contingency(self.stat, i, j, s)
        expected = _expected(counts)
        observed = counts > 0
        g = 2.0 * float(np.sum(counts[observed]
                               * np.log(counts[observed] / expected[observed])))
        if dof == 0:
            return CiTestOutcome(g, 1.0, 0.0)
        return CiTestOutcome(g, chi2_sf(g, dof), dof)


@dataclass(frozen=True)
class ChiSquaredTest:
    """Stratified Pearson chi-squared test for discrete data."""

    stat: DiscreteSuffStat

    def __call__(self, i: int, j: int, s: Sequence[int]) -> CiTestOutcome:
        s = _validate_triplet(self.stat.p, i, j, s)
        counts, dof = _contingency(self.stat, i, j, s)
        expected = _expected(counts)
        positive = expected > 0
        x2 = float(np.sum((counts[positive] - expected[positive]) ** 2
                          / expected[positive]))
        if dof == 0:
            return CiTestOutcome(x2, 1.0, 0.0)
        return CiTestOutcome(x2, chi2_sf(x2, dof), dof)


@dataclass(frozen=True)
class OracleTest:
    """Exact test answering from d-separation on a known ground-truth DAG."""

    dag: Dag

    def __call__(self, i: int, j: int, s: Sequence[int]) -> CiTestOutcome:
        s = _validate_triplet(self.dag.p, i, j, s)
        independent = d_separated(self.dag, i, j, s)
        return CiTestOutcome(0.0, 1.0 if independent else 0.0, 0.0)


def make_citest(test_id: str, *, gaussian: GaussianSuffStat | None = None,
                discrete: DiscreteSuffStat | None = None,
                dag: Dag | None = None) -> CiTest:
    """Build a CI test by string id from the matching sufficient statistic."""
    if test_id == "fisher-z" or test_id == "mi-g":
        if gaussian is None:
            raise ValueError(f"test '{test_id}' needs a Gaussian sufficient statistic")
        return FisherZTest(gaussian) if test_id == "fisher-z" else GaussianMiTest(gaussian)
    if test_id == "g-sq" or test_id == "x-sq":
        if discrete is None:
            raise ValueError(f"test '{test_id}' needs a discrete sufficient statistic")
        return GSquaredTest(discrete) if test_id == "g-sq" else ChiSquaredTest(discrete)
    if test_id == "oracle":
        if dag is None:
            raise ValueError("test 'oracle' needs a ground-truth DAG")
        return OracleTest(dag)
    raise ValueError(f"unknown test id '{test_id}'; known: {TEST_IDS}")
