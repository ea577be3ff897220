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
``DegenerateConditioningError``.  Each of the five shipped tests is one
kernel: canonical rows [min(i, j), max(i, j), *sorted(s)] in, each row's
statistic, p-value and dof out, NaN p for a degenerate set.  ``pvalues`` is
that kernel on every row, and the scalar call is the kernel on one row, so
the two forms agree bit for bit; the oracle's p is 1 or 0 by ``d_separated``.
The G-squared and chi-squared tests count contingency tables on one of
three paths: popcounts of ANDed per-value bitsets, laid out cell by cell,
for tables of fewer than about a hundred cells whose rows share their
arities; one ``bincount`` of narrow cell keys per chunk of rows otherwise;
and ranked strata for a row whose strata outnumber the samples.  All three
give the same integer counts, and each row's terms are summed as
``np.add.reduce`` sums them, a block of rows in one pass, so the statistic
does not depend on the path or the batch.  A test's tables hold at most
min(n, prod of the set's arities) * a_i * a_j cells, while its dof keeps
the full arity product.  Every test reads the conditioning set in
ascending order, so the set's order never changes an outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Protocol, Sequence

import numpy as np
from scipy.special import gammaincc

from .data import BITSET_MAX_ARITY, DiscreteSuffStat, GaussianSuffStat
from .graphs import Dag, d_separated

# |r| is clamped below 1 by this margin before atanh to keep z finite.
ATANH_CLAMP = 1.0 - 1e-12

TEST_IDS = ("fisher-z", "mi-g", "g-sq", "x-sq", "oracle")

# The discrete kernel counts a chunk of rows at once, and a chunk's scratch
# is at most about CHUNK_BYTES, unless one row alone takes more.  On the bitsets a
# chunk's cell bitsets take CHUNK_BYTES (12 rows of 81 cells at n = 4000,
# the fastest size on a 2-core machine), its popcounts an eighth of that.
# On radix keys a chunk's keys take CHUNK_BYTES as the int64 copy that
# ``bincount`` reads (16 rows at n = 4000); the keys themselves are uint8,
# uint16 or uint32, the first that holds the chunk's cells, int64 past that.
CHUNK_BYTES = 1 << 19
# The counts of a block of chunks take at most STATISTICS_BYTES, unless one
# row alone takes more, and get one ``_table_statistics`` pass, whose
# scratch is about nine times its counts.
STATISTICS_BYTES = 1 << 16


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


# Python's libm calls, applied elementwise: numpy's and scipy's vectorized
# atanh, erfc and log differ from them in the last digits, and these give
# each row the value of the same formula evaluated with ``math``.
_atanh = np.frompyfunc(math.atanh, 1, 1)
_erfc = np.frompyfunc(math.erfc, 1, 1)
_log = np.frompyfunc(math.log, 1, 1)


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


def _one_row(p: int, i: int, j: int, s: Sequence[int]) -> np.ndarray:
    """The canonical row of one scalar call, as a (1, |s| + 2) int64 array,
    after ``_validate_triplet``'s checks."""
    s = _validate_triplet(p, i, j, s)
    return np.array([[min(i, j), max(i, j), *sorted(s)]], dtype=np.int64)


def _chi2_sfs(x: np.ndarray, dof: np.ndarray) -> np.ndarray:
    """Upper tail of chi-squared per (x, dof) pair, via the regularized
    incomplete gamma: 1 where dof <= 0 or x <= 0, NaN where x is NaN."""
    live = (dof > 0) & ~(x <= 0)
    if live.all():
        return gammaincc(dof / 2.0, x / 2.0)
    out = np.ones(len(x))
    out[live] = gammaincc(dof[live] / 2.0, x[live] / 2.0)
    return out


class _KernelTest:
    """A test's ``__call__`` and ``pvalues``, both its one kernel ``_outcomes``
    over ``stat``: canonical rows in, each row's (statistic, p, dof) out, NaN
    p for a degenerate conditioning set."""

    def __call__(self, i: int, j: int, s: Sequence[int]) -> CiTestOutcome:
        row = _one_row(self.stat.p, i, j, s)
        statistic, p_value, dof = (float(v[0]) for v in self._outcomes(row))
        if math.isnan(p_value):
            raise DegenerateConditioningError(row[0].tolist())
        return CiTestOutcome(statistic, p_value, dof)

    def pvalues(self, i: object, j: object, s: object) -> np.ndarray:
        """One p-value per row of (i, j, s), NaN for a degenerate set; each
        equals the scalar call's bit for bit."""
        rows = _canonical_rows(self.stat.p, i, j, s)
        return self._outcomes(rows)[1] if len(rows) else np.empty(0)


def _inverse_or_nan(sub: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(sub)
    except np.linalg.LinAlgError:
        return np.full_like(sub, np.nan)


def _partial_correlations(stat: GaussianSuffStat, idx: np.ndarray) -> np.ndarray:
    """Partial correlation of i and j given s per canonical row [i, j, *s],
    NaN where the row's submatrix is singular.

    Inverts each row's principal submatrix of the correlation matrix and
    reads the normalized off-diagonal of the precision matrix:
    r = -P[i,j] / sqrt(P[i,i] * P[j,j]).  The submatrices are inverted as
    one stack; if one of them is exactly singular the stack is inverted
    matrix by matrix instead.  A row's value depends on that row alone,
    which is what the parallel executor needs.
    """
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


def partial_correlation(stat: GaussianSuffStat, i: int, j: int, s: Sequence[int]) -> float:
    """Partial correlation of i and j given s: ``_partial_correlations`` on
    the call's one canonical row.  Raises DegenerateConditioningError on a
    singular submatrix."""
    row = _one_row(stat.p, i, j, s)
    r = float(_partial_correlations(stat, row)[0])
    if math.isnan(r):
        raise DegenerateConditioningError(row[0].tolist())
    return r


@dataclass(frozen=True)
class FisherZTest(_KernelTest):
    """Fisher z transform of the partial correlation, standard normal tail.

    With fewer than |s| + 4 samples the test cannot reject and returns
    p = 1, statistic = 0.
    """

    stat: GaussianSuffStat

    def _outcomes(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        r = _partial_correlations(self.stat, rows)
        zeros = np.zeros(len(r))                        # the dof
        effective = self.stat.n - rows.shape[1] - 1     # n - |s| - 3
        if effective <= 0:
            return zeros, np.where(np.isnan(r), np.nan, 1.0), zeros
        clamped = np.copysign(np.minimum(np.abs(r), ATANH_CLAMP), r)
        z = math.sqrt(effective) * _atanh(clamped).astype(float)
        return z, 2.0 * (0.5 * _erfc(np.abs(z) / math.sqrt(2.0)).astype(float)), zeros


@dataclass(frozen=True)
class GaussianMiTest(_KernelTest):
    """Mutual-information-style likelihood test: G = -n * ln(1 - r^2), chi2(1)."""

    stat: GaussianSuffStat

    def _outcomes(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        r = _partial_correlations(self.stat, rows)
        rem = 1.0 - r * r
        g = np.where(rem <= 0.0, np.inf, np.nan)      # NaN stays for a degenerate set
        live = rem > 0.0
        g[live] = -self.stat.n * _log(rem[live]).astype(float)
        dof = np.ones(len(g))
        return g, _chi2_sfs(g, dof), dof


_KEY_DTYPES = tuple((dtype, np.iinfo(dtype).max) for dtype in (np.uint8, np.uint16, np.uint32))


def _key_dtype(top: int) -> type:
    """The narrowest of uint8, uint16 and uint32 that holds ``top``, else int64."""
    return next((dtype for dtype, most in _KEY_DTYPES if top <= most), np.int64)


def _radix_keys(codes_t: np.ndarray, cols: np.ndarray, radix: np.ndarray) -> np.ndarray:
    """Per row of ``cols``, every sample's mixed-radix key over the row's
    variables, most significant first, in ``radix``'s dtype.  No partial
    key exceeds the final one, below the product of the row's arities, so a
    dtype that holds that product keeps every key exact; an arity that
    wraps to 0 in it leaves the others all 1, and so multiplies a zero key."""
    key = codes_t[cols[:, 0]].astype(radix.dtype, copy=False)
    for t in range(1, cols.shape[1]):
        key *= radix[:, t, None]
        key += codes_t[cols[:, t]]
    return key


def _dense_rank(key: np.ndarray) -> tuple[np.ndarray, int]:
    values, rank = np.unique(key, return_inverse=True)
    return rank, len(values)


def _ranked_cell_keys(codes_t: np.ndarray, arities: tuple[int, ...], cols: np.ndarray,
                      n: int) -> tuple[np.ndarray, int]:
    """Cell keys of one row [*s, i, j] whose strata outnumber the samples,
    and its stratum count.  The stratum key is replaced by its dense rank
    whenever the running stratum count would pass n, so it stays below
    n times an arity; the ranks keep the key order."""
    key = np.zeros(n, dtype=np.int64)
    count = 1
    for k in cols[:-2].tolist():
        if count * arities[k] > n:
            key, count = _dense_rank(key)
        key = key * arities[k] + codes_t[k]
        count *= arities[k]
    if count > n:
        key, count = _dense_rank(key)
    i, j = cols[-2:].tolist()
    return (key * arities[i] + codes_t[i]) * arities[j] + codes_t[j], count


def _ranked_statistic(stat: DiscreteSuffStat, row: np.ndarray, ai: int, aj: int,
                      pearson: bool) -> float:
    """The statistic of one row [*s, i, j] counted on its ranked strata."""
    key, count = _ranked_cell_keys(stat.codes.T, stat.arities, row, stat.n)
    counts = np.bincount(key, minlength=count * ai * aj)
    return _table_statistics(counts.reshape(1, count, ai, aj), pearson)[0]


def _table_shapes(radix: np.ndarray) -> Iterator[
        tuple[int, int, int, np.ndarray | slice, tuple[int, ...] | None]]:
    """(a_i, a_j, arity product of the set, row positions, arities) per
    table shape of rows whose arities in radix order [*s, i, j] are
    ``radix``.  The product is an exact Python int; the arities are those of
    every row of the group when they are all the same, else None."""
    if len(radix) == 1 or (radix == radix[0]).all():    # one shape, the common case
        *set_arities, ai, aj = shape = radix[0].tolist()
        yield ai, aj, math.prod(set_arities), slice(None), tuple(shape)
        return
    shape = np.concatenate((radix[:, -2:], np.sort(radix[:, :-2], axis=1)), axis=1)
    distinct, inverse = np.unique(shape, axis=0, return_inverse=True)
    groups: dict[tuple[int, int, int], list[int]] = {}
    for g, (ai, aj, *set_arities) in enumerate(distinct.tolist()):
        groups.setdefault((ai, aj, math.prod(set_arities)), []).append(g)
    for (ai, aj, strata), ids in groups.items():
        yield ai, aj, strata, np.flatnonzero(np.isin(inverse, ids)), None


def _row_sums(terms: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``np.add.reduce`` of each row's terms, all rows in one call; row r
    owns ``terms[starts[r]:starts[r + 1]]``, the last row the rest.

    ``np.add.reduce`` starts from 0 and adds a run pairwise (in order below
    8 terms, in 8 strided partial sums up to 128, in halves above), while
    ``np.add.reduceat`` starts from a segment's first element and adds the
    rest pairwise.  So each row's terms go into a segment led by a 0, and
    the segment's reduction is the row's ``np.add.reduce`` bit for bit
    (``TestRowSums`` pins it on the installed numpy).
    """
    leads = starts + np.arange(len(starts))
    padded = np.zeros(len(terms) + len(starts))
    slot = np.ones(len(padded), dtype=bool)
    slot[leads] = False
    padded[slot] = terms
    return np.add.reduceat(padded, leads)


def _axis_sum(counts: np.ndarray, axis: int) -> np.ndarray:
    """``counts.sum(axis)`` as one add per index along a short axis, which
    numpy runs faster than a reduction of a few elements per output."""
    lead = (slice(None),) * axis
    total = counts[lead + (0,)].copy()
    for k in range(1, counts.shape[axis]):
        total += counts[lead + (k,)]
    return total


def _table_statistics(counts: np.ndarray, pearson: bool) -> np.ndarray:
    """Sum of the G (or Pearson X^2) terms of each row's tables.

    ``counts`` holds each row's (stratum, c_i, c_j) tables.  A G term is
    taken over the observed cells, a Pearson term over the cells with a
    positive expected count, both in C order, and each row's terms are
    summed as ``np.add.reduce`` (what ``np.sum`` runs) sums them alone, so
    a row's statistic is that of its one-row table.  Only those cells take
    scratch, so a sparse table costs little beyond its counts.
    """
    tables, strata, ai, aj = counts.shape
    rows = _axis_sum(counts, 3)
    cols = _axis_sum(counts, 2)
    totals = _axis_sum(rows, 2)
    flat = counts.reshape(-1)
    if pearson:
        cells = ((rows[..., None] > 0) & (cols[..., None, :] > 0)).reshape(-1).nonzero()[0]
    else:
        cells = flat.nonzero()[0]
    row_cell = cells // aj                      # (row * strata + stratum) * a_i + c_i
    stratum = row_cell // ai
    observed = flat[cells]
    # true division of int64 arrays converts both sides to float64 first
    expected = (rows.reshape(-1)[row_cell] * cols.reshape(-1)[stratum * aj + cells % aj]
                / totals.reshape(-1)[stratum])
    if pearson:
        terms = (observed - expected) ** 2 / expected
    else:
        terms = observed * np.log(observed / expected)
    if tables == 1:
        return np.add.reduce(terms, keepdims=True)
    return _row_sums(terms, np.searchsorted(cells, np.arange(0, flat.size, flat.size // tables)))


def _bitset_path(cells: int, words: int) -> bool:
    """Whether tables of ``cells`` cells are counted on bitsets of ``words``
    = ceil(n / 64) words.

    Set from measurement on a 2-core machine over arities 2-16, levels 0-5
    and n = 100-20000 (``tools/crossover_sweep.py``, the ``crossover_sweep``
    benchmark record).  Counting on bitsets costs about cells * (words + 12)
    word operations a row: an AND, a popcount and a sum over each cell's
    words, and a per-cell share of the table's other work.  Radix keys and
    ``bincount`` cost about 100 of them per word of 64 samples, nearly all
    in ``bincount``'s scattered increments; the narrow keys' gathers add
    little per variable, so the set's size hardly moves the crossover.  The
    rule is the best fit of that form, and no size it sends to the bitsets
    measured slower there per row.  Above 2**18 words (n > 2**24) a float32
    sum of popcounts could round, so those tables never take the bitsets.
    """
    return words <= 1 << 18 and cells * (words + 12) < 100 * words


@lru_cache(maxsize=256)
def _value_index(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """For each value of each position of ``shape`` in turn: its position
    and its code, read-only, as every call with ``shape`` shares them."""
    index = (np.repeat(np.arange(len(shape)), shape),
             np.concatenate([np.arange(a) for a in shape])[:, None])
    for array in index:
        array.setflags(write=False)
    return index


def _bitset_counts(stat: DiscreteSuffStat, cols: np.ndarray,
                   shape: tuple[int, ...]) -> np.ndarray:
    """(rows, cells) counts of the rows ``cols`` [*s, i, j] whose variables
    all have the arities ``shape``, cells in radix order.

    Each position's value bitsets are gathered as one (arity, rows, words)
    block.  The set's blocks are ANDed into one bitset per stratum, i's and
    j's into one per (c_i, c_j) cell, and each stratum with each cell, so
    every AND runs over a contiguous (rows, words) block.  A cell's count
    is the popcount of its bitset: the integer a ``bincount`` of the cell
    keys gives.  The popcounts are summed in float32, exactly, as every
    partial sum is at most n <= 2**24.
    """
    position, code = _value_index(shape)
    values = stat.bitsets[stat.bit_rows[cols[:, position]].T + code]
    _, rows, words = values.shape
    *set_arities, ai, aj = shape
    cell = (values[-ai - aj:-aj, None] & values[-aj:][None]).reshape(-1, rows, words)
    strata, end = None, 0
    for a in set_arities:
        block = values[end:end + a]
        strata = block if strata is None else \
            (strata[:, None] & block[None]).reshape(-1, rows, words)
        end += a
    if strata is not None:
        cell = (strata[:, None] & cell[None]).reshape(-1, rows, words)
    return np.einsum("crw->rc", np.bitwise_count(cell), dtype=np.float32).astype(np.int64)


def _bincount_counts(codes_t: np.ndarray, cols: np.ndarray, radix: np.ndarray,
                     cells: int) -> np.ndarray:
    """(rows, cells) counts of the rows ``cols`` [*s, i, j], whose arities
    are ``radix``, cells in radix order: every sample's cell key offset by
    its row's table base, in the narrowest dtype that holds them all, and
    one ``bincount``."""
    top = len(cols) * cells
    dtype = _key_dtype(top - 1)
    key = _radix_keys(codes_t, cols, radix.astype(dtype))
    key += np.arange(0, top, cells, dtype=dtype)[:, None]
    return np.bincount(key.reshape(-1), minlength=top).reshape(len(cols), cells)


def _group_statistics(stat: DiscreteSuffStat, radix: np.ndarray, cols: np.ndarray,
                      table: tuple[int, int, int], shape: tuple[int, ...] | None,
                      pearson: bool) -> np.ndarray:
    """The statistic of each row of ``cols`` [*s, i, j], rows of one table
    shape ``table`` = (strata, a_i, a_j), whose variables have the arities
    ``radix``, all of them ``shape`` unless that is None.

    Rows are counted a chunk at a time: on bitsets where every row has the
    same arities and ``_bitset_path`` picks them, else on radix keys and
    ``bincount``.  The counts of a block of whole chunks then take one
    ``_table_statistics`` pass.
    """
    strata, ai, aj = table
    cells = strata * ai * aj
    words = stat.bitsets.shape[1]
    bits = shape is not None and max(shape) <= BITSET_MAX_ARITY and _bitset_path(cells, words)
    block = max(1, STATISTICS_BYTES // (8 * cells))
    step = min(block, max(1, CHUNK_BYTES // (8 * (cells * words if bits else max(stat.n, cells)))))
    block -= block % step

    def count(start: int, stop: int) -> np.ndarray:
        if bits:
            return _bitset_counts(stat, cols[start:stop], shape)
        return _bincount_counts(stat.codes.T, cols[start:stop], radix[start:stop], cells)

    out = np.empty(len(cols))
    for start in range(0, len(cols), block):
        stop = min(start + block, len(cols))
        parts = [count(at, min(at + step, stop)) for at in range(start, stop, step)]
        counts = parts[0] if len(parts) == 1 else np.concatenate(parts)
        out[start:stop] = _table_statistics(counts.reshape(-1, strata, ai, aj), pearson)
    return out


def _discrete_outcomes(stat: DiscreteSuffStat, rows: np.ndarray,
                       pearson: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stratified G^2 (Pearson X^2 if ``pearson``), its chi-squared
    p-value and its dof for each canonical row [i, j, *s].

    A row's tables are its i-by-j contingency tables per stratum, a stratum
    being a joint configuration of s; the cell of a sample is
    (stratum * a_i + c_i) * a_j + c_j.  Rows are grouped by table shape and
    counted a chunk at a time on one of three paths (``_group_statistics``):
    where tables are small against n (``_bitset_path``) and the group's rows
    share their arities, by ANDing the variables' per-value bitsets and
    popcounting; otherwise by one ``bincount`` of the cell keys of a chunk's
    rows; and a row whose strata would outnumber the samples alone on its
    ranked stratum keys (``_ranked_cell_keys``), so no table holds more than
    min(n, prod of arities) * a_i * a_j cells.  All three give each row's
    table the same integer counts in the same order, so the statistic, summed
    by ``_table_statistics`` from the counts alone, is the same bit for bit
    on any path.  The dof uses the full arity product over s; strata that
    happen to be empty do not reduce it.
    """
    n = stat.n
    cols = np.concatenate((rows[:, 2:], rows[:, :2]), axis=1)  # radix order
    radix = stat.arity_array[cols]
    statistic = np.empty(len(rows))
    dof = np.empty(len(rows))
    for ai, aj, strata, members, shape in _table_shapes(radix):
        dof[members] = float((ai - 1) * (aj - 1) * strata)
        group = cols[members]
        if strata > n:
            statistic[members] = [_ranked_statistic(stat, row, ai, aj, pearson) for row in group]
        else:
            statistic[members] = _group_statistics(stat, radix[members], group,
                                                   (strata, ai, aj), shape, pearson)
    if not pearson:
        statistic *= 2.0
    return statistic, _chi2_sfs(statistic, dof), dof


@dataclass(frozen=True)
class GSquaredTest(_KernelTest):
    """Stratified likelihood-ratio test for discrete data."""

    stat: DiscreteSuffStat

    def _outcomes(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _discrete_outcomes(self.stat, rows, pearson=False)


@dataclass(frozen=True)
class ChiSquaredTest(_KernelTest):
    """Stratified Pearson chi-squared test for discrete data."""

    stat: DiscreteSuffStat

    def _outcomes(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _discrete_outcomes(self.stat, rows, pearson=True)


@dataclass(frozen=True)
class OracleTest(_KernelTest):
    """Exact test on a ground-truth DAG ``stat``: p = 1 where it d-separates
    a row's pair given its set, else 0; statistic and dof 0."""

    stat: Dag

    def _outcomes(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        p = np.array([d_separated(self.stat, i, j, s) for i, j, *s in rows.tolist()], float)
        return np.zeros(len(p)), p, np.zeros(len(p))


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
