"""Dataset ingestion and sufficient statistics for CI testing.

A :class:`Dataset` is a column-oriented sample matrix with a per-variable
kind tag (continuous, or discrete with a known arity).  CI tests never touch
the raw data directly; they consume one of the two sufficient-statistic
containers built here (:class:`GaussianSuffStat` for correlation-based tests,
:class:`DiscreteSuffStat` for contingency-table tests).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

# Columns with at most this many distinct integer values are auto-detected
# as discrete.  Arbitrary but fixed, so ingestion is reproducible.
AUTO_DISCRETE_MAX_LEVELS = 32

# Discrete variables of at most this arity also keep per-value bitsets.  It is
# the largest arity ``citests._bitset_path`` can send to the bitsets with a
# partner of arity 2 or more: the fewest cells such a table has is 2 * a, at
# level 0, and the rule takes no table of 100 cells or more at any n.  Such a
# variable's bitsets and uint8 codes take at most 49 / 8 + 1 bytes a sample.
BITSET_MAX_ARITY = 49

KIND_HINTS = ("auto", "continuous", "discrete")

# Integer columns are recoded a block of columns at a time, a block holding
# about this many values, so that the recode's scratch (some ten arrays the
# size of the block, about 1.3 MiB) stays below what parsing the text takes.
RECODE_VALUES = 1 << 14


class DatasetError(ValueError):
    """Malformed input data; the message carries the offending location."""


class DegenerateDataError(DatasetError):
    """Structurally valid data that cannot support the requested statistic."""


@dataclass(frozen=True)
class Continuous:
    def __str__(self) -> str:
        return "continuous"


@dataclass(frozen=True)
class Discrete:
    arity: int

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise DatasetError(f"discrete arity must be positive, got {self.arity}")

    def __str__(self) -> str:
        return f"discrete({self.arity})"


Kind = Union[Continuous, Discrete]


class Dataset:
    """Immutable n-samples-by-p-variables matrix with per-column kinds.

    Discrete columns hold dense integer codes in ``[0, arity)`` stored as
    floats inside the shared value matrix.
    """

    def __init__(self, values: np.ndarray, names: Sequence[str], kinds: Sequence[Kind]):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise DatasetError("values must be a 2-d matrix")
        n, p = values.shape
        if n < 1:
            raise DatasetError("dataset needs at least one sample row")
        if p < 2:
            raise DatasetError(f"dataset needs at least two variables, got {p}")
        names = tuple(names)
        kinds = tuple(kinds)
        if len(names) != p or len(kinds) != p:
            raise DatasetError("names/kinds length must match the column count")
        if len(set(names)) != p:
            v = next(v for v, name in enumerate(names) if name in names[:v])
            raise DatasetError(f"variable names must be unique; '{names[v]}' is columns "
                               f"{names.index(names[v]) + 1} and {v + 1}")
        if not np.isfinite(values).all():
            bad = np.argwhere(~np.isfinite(values))[0]
            raise DatasetError(
                f"non-finite value at row {bad[0] + 1}, column '{names[bad[1]]}'"
            )
        for v, kind in enumerate(kinds):
            if isinstance(kind, Discrete):
                col = values[:, v]
                codes = col.astype(np.int64)
                if (codes != col).any() or codes.min() < 0 or codes.max() >= kind.arity:
                    raise DatasetError(
                        f"column '{names[v]}' has codes outside [0, {kind.arity})"
                    )
        values = values.copy()
        values.setflags(write=False)
        self._values = values
        self._names = names
        self._kinds = kinds

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def kinds(self) -> tuple[Kind, ...]:
        return self._kinds

    @property
    def n(self) -> int:
        return self._values.shape[0]

    @property
    def p(self) -> int:
        return self._values.shape[1]

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, p={self.p})"


class GaussianSuffStat:
    """Correlation matrix plus sample count, the input to Gaussian CI tests."""

    def __init__(self, corr: np.ndarray, n: int):
        corr = np.asarray(corr, dtype=float)
        if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
            raise ValueError("corr must be a square matrix")
        if not np.array_equal(corr, corr.T):
            raise ValueError("corr must be exactly symmetric")
        if not np.array_equal(np.diag(corr), np.ones(corr.shape[0])):
            raise ValueError("corr diagonal must be exactly 1")
        if np.abs(corr).max() > 1.0:
            raise ValueError("corr entries must lie in [-1, 1]")
        if n < 1:
            raise ValueError("sample count must be positive")
        corr = corr.copy()
        corr.setflags(write=False)
        self.corr = corr
        self.n = int(n)

    @property
    def p(self) -> int:
        return self.corr.shape[0]

    def __repr__(self) -> str:
        return f"GaussianSuffStat(p={self.p}, n={self.n})"


class DiscreteSuffStat:
    """Integer-coded sample matrix plus per-variable arities.

    Next to the codes, each variable of arity at most ``BITSET_MAX_ARITY``
    keeps one bitset per value: bit k of word w of row ``bit_rows[v] + c`` of
    ``bitsets`` is set iff sample 64 * w + k of variable v holds code c.  The
    bitsets take sum(a_v) * ceil(n / 64) uint64 words, no more than the int32
    codes of the same variables; ``bit_rows[v]`` is -1 above that arity.
    They are built once here and travel with the statistic to every worker.
    """

    def __init__(self, codes: np.ndarray, arities: Sequence[int]):
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2:
            raise ValueError("codes must be a 2-d matrix")
        arities = tuple(int(a) for a in arities)
        if len(arities) != codes.shape[1]:
            raise ValueError("arities length must match the column count")
        for v, a in enumerate(arities):
            if a < 1:
                raise ValueError(f"arity of column {v} must be positive")
            col = codes[:, v]
            if col.size and (col.min() < 0 or col.max() >= a):
                raise ValueError(f"codes of column {v} outside [0, {a})")
        # One column-contiguous copy in the narrowest dtype that holds every
        # code: a variable's samples are one contiguous row of ``codes.T``,
        # and narrow codes make narrow table keys cheap to gather.
        top = max(arities, default=1) - 1
        codes = np.array(codes, order="F", dtype=next(
            t for t in (np.uint8, np.uint16, np.int32, np.int64) if top <= np.iinfo(t).max))
        codes.setflags(write=False)
        self.codes = codes
        self.arities = arities
        self.arity_array = np.array(arities, dtype=np.int64)
        self.arity_array.setflags(write=False)
        self.bit_rows, self.bitsets = _value_bitsets(codes, arities)

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def p(self) -> int:
        return self.codes.shape[1]

    def __repr__(self) -> str:
        return f"DiscreteSuffStat(p={self.p}, n={self.n})"


def _value_bitsets(codes: np.ndarray, arities: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each variable's first bitset row (-1 above ``BITSET_MAX_ARITY``) and
    the (rows, ceil(n / 64)) uint64 bitsets of its values; padding bits are 0."""
    n = codes.shape[0]
    kept = np.array([a if a <= BITSET_MAX_ARITY else 0 for a in arities], dtype=np.int64)
    first = np.concatenate(([0], np.cumsum(kept)))
    bitsets = np.zeros((int(first[-1]), -(-n // 64)), dtype=np.uint64)
    packed = bitsets.view(np.uint8)
    for v, a in enumerate(kept.tolist()):
        if a:
            onehot = codes[:, v] == np.arange(a)[:, None]
            packed[first[v]:first[v] + a, :-(-n // 8)] = np.packbits(
                onehot, axis=1, bitorder="little")
    bit_rows = np.where(kept > 0, first[:-1], -1)
    bit_rows.setflags(write=False)
    bitsets.setflags(write=False)
    return bit_rows, bitsets


def _parse_cell(token: str, row: int, name: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DatasetError(
            f"unparseable numeric cell '{token}' at row {row}, column '{name}'"
        ) from None
    if not math.isfinite(value):
        raise DatasetError(
            f"non-finite cell '{token}' at row {row}, column '{name}' "
            "(missing values are not supported)"
        )
    return value


def _is_integer_token(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 input file; DatasetError naming the file when it
    is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def load_csv(path: str | Path, kind_hint: str = "auto") -> Dataset:
    """Load a comma-separated file with one header row into a Dataset.

    Under ``auto``, a column is tagged discrete iff every value is an
    integer literal with at most ``AUTO_DISCRETE_MAX_LEVELS`` distinct
    values; discrete values are re-coded to a dense 0-based range in order
    of first appearance.  ``continuous`` and ``discrete`` force the kind
    for every column.

    Two parsers give the same Dataset.  A body of plain numbers (ASCII
    digits, ``.+-eE``, commas and line breaks, no empty line) is parsed by
    ``np.loadtxt``, which rounds each cell as ``float()`` does, and a column
    is integer iff its bytes hold no ``.``, ``e`` or ``E``, the only
    characters of that alphabet ``int()`` rejects in a number ``float()``
    accepts.  Any other text, any numpy error, a non-finite value or an
    integer column reaching 2**53 (where floats stop telling integers apart)
    goes to the cell-by-cell Python parser, the only source of error
    messages.
    """
    if kind_hint not in KIND_HINTS:
        raise DatasetError(f"kind_hint must be one of {KIND_HINTS}, got '{kind_hint}'")
    text = read_text(path)
    parsed = _parse_plain_numbers(text, kind_hint)
    if parsed is None:
        parsed = _parse_cells(path, text, kind_hint)
    try:
        return Dataset(*parsed)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


# The bytes of a plain-number body, and those of them that int() rejects.
_PLAIN_BYTE = np.zeros(256, dtype=bool)
_PLAIN_BYTE[np.frombuffer(b"0123456789.+-eE,\r\n", dtype=np.uint8)] = True
_FLOAT_BYTE = np.zeros(256, dtype=bool)
_FLOAT_BYTE[np.frombuffer(b".eE", dtype=np.uint8)] = True

_Parsed = tuple[np.ndarray, list[str], list[Kind]]


def _parse_plain_numbers(text: str, kind_hint: str) -> _Parsed | None:
    """(values, names, kinds) of a header plus a plain-number body parsed by
    numpy, or None where ``_parse_cells`` must decide."""
    first, _, body = text.partition("\n")
    header = first[:-1] if first.endswith("\r") else first
    # the header must be the first line under str.splitlines too, and the
    # body's line breaks "\n" or "\r\n", with no empty line to skip
    if (header.splitlines() != [header] or not body or body.count("\r") != body.count("\r\n")
            or body.startswith(("\n", "\r\n")) or "\n\n" in body or "\n\r\n" in body):
        return None
    try:
        raw = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    if not _PLAIN_BYTE[raw].all():
        return None
    names = [h.strip() for h in header.split(",")]
    p = len(names)
    if p < 2:
        return None
    try:
        values = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != p or not np.isfinite(values).all():
        return None
    if kind_hint == "continuous":
        return values, names, [Continuous()] * p
    integer = ~_float_columns(raw, p)
    if kind_hint == "discrete" and not integer.all():
        return None
    if (np.maximum(values.max(axis=0), -values.min(axis=0))[integer] >= 2.0 ** 53).any():
        return None
    kinds: list[Kind] = [Continuous()] * p
    candidates = np.flatnonzero(integer)
    step = max(1, RECODE_VALUES // len(values))
    for start in range(0, len(candidates), step):
        columns = candidates[start:start + step]
        codes, levels = _first_appearance_codes(values.T[columns])
        if kind_hint == "auto":
            kept = levels <= AUTO_DISCRETE_MAX_LEVELS
            columns, codes, levels = columns[kept], codes[kept], levels[kept]
        values[:, columns] = codes.T
        for v, arity in zip(columns.tolist(), levels.tolist()):
            kinds[v] = Discrete(arity=arity)
    return values, names, kinds


def _first_appearance_codes(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``block`` (a column's integer values each, at least one):
    every value's rank in the order of first appearance, and the row's count
    of distinct values, all rows at once.

    A stable sort of each row puts a value's first appearance first among
    its equals (rows spanning fewer than 2**16 values are sorted as uint16
    offsets, which numpy radix-sorts).  Those first appearances, ordered by
    position, give each value its rank, and every run of equal values in
    the sorted row takes the rank of its head.
    """
    rows, n = block.shape
    offsets = block - block.min(axis=1, keepdims=True)
    keys = offsets.astype(np.uint16) if offsets.max() < 1 << 16 else block
    order = np.argsort(keys, axis=1, kind="stable")
    order += np.arange(rows)[:, None] * n                   # flat positions
    ordered = keys.reshape(-1)[order]
    head = np.ones((rows, n), dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=head[:, 1:])
    heads = np.flatnonzero(head)            # where each value's run begins
    first = order.reshape(-1)[heads]        # and where the value first appears
    by_position = np.sort(first)
    rank = np.searchsorted(by_position, first)
    rank -= np.searchsorted(by_position, first - first % n)    # the row's first
    codes = np.empty(rows * n, dtype=np.int64)
    codes[order.reshape(-1)] = np.repeat(rank, np.diff(heads, append=rows * n))
    return codes.reshape(rows, n), head.sum(axis=1)


def _float_columns(raw: np.ndarray, p: int) -> np.ndarray:
    """Per column of a body that numpy parsed to p fields a line, whether
    any of its cells holds a byte of ``_FLOAT_BYTE``."""
    found = np.zeros(p, dtype=bool)
    marks = np.flatnonzero(_FLOAT_BYTE[raw])
    if marks.size:
        commas = np.flatnonzero(raw == ord(","))
        line_starts = np.concatenate(([0], np.flatnonzero(raw == ord("\n")) + 1))
        line = np.searchsorted(line_starts, marks, side="right") - 1
        found[np.searchsorted(commas, marks) - np.searchsorted(commas, line_starts[line])] = True
    return found


def _parse_cells(path: str | Path, text: str, kind_hint: str) -> _Parsed:
    """(values, names, kinds) of any text, one Python call per cell; raises
    DatasetError naming the first bad line, row or cell."""
    lines = [line for line in text.splitlines() if line != ""]
    if not lines:
        raise DatasetError(f"{path}: empty file")
    names = [h.strip() for h in lines[0].split(",")]
    p = len(names)
    if p < 2:
        raise DatasetError(f"{path}: need at least two columns, got {p}")
    rows = []
    raw: list[list[str]] = []
    for r, line in enumerate(lines[1:], start=1):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != p:
            raise DatasetError(
                f"{path}: row {r} has {len(cells)} fields, expected {p}"
            )
        raw.append(cells)
        rows.append([_parse_cell(c, r, names[k]) for k, c in enumerate(cells)])
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    values = np.array(rows, dtype=float)

    kinds: list[Kind] = []
    for v in range(p):
        tokens = [row[v] for row in raw]
        if kind_hint == "continuous":
            kinds.append(Continuous())
            continue
        all_int = all(_is_integer_token(t) for t in tokens)
        if kind_hint == "discrete":
            if not all_int:
                bad = next(r for r, t in enumerate(tokens, start=1) if not _is_integer_token(t))
                raise DatasetError(
                    f"{path}: column '{names[v]}' forced discrete but row {bad} "
                    "is not an integer"
                )
            discrete = True
        else:
            discrete = all_int and len({int(t) for t in tokens}) <= AUTO_DISCRETE_MAX_LEVELS
        if discrete:
            seen: dict[int, int] = {}
            for r, t in enumerate(tokens):
                code = seen.setdefault(int(t), len(seen))
                values[r, v] = code
            kinds.append(Discrete(arity=len(seen)))
        else:
            kinds.append(Continuous())
    return values, names, kinds


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a Dataset back to CSV; floats use shortest round-trip formatting."""
    out = [",".join(dataset.names)]
    for r in range(dataset.n):
        cells = []
        for v in range(dataset.p):
            x = dataset.values[r, v]
            if isinstance(dataset.kinds[v], Discrete):
                cells.append(str(int(x)))
            else:
                cells.append(repr(float(x)))
        out.append(",".join(cells))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def gaussian_suffstat(dataset: Dataset) -> GaussianSuffStat:
    """Pearson correlation matrix of an all-continuous dataset.

    Two-pass (mean, then centered cross products) for numerical stability.
    Each correlation is computed once per unordered pair and mirrored, so the
    result is symmetric to the last bit; the diagonal is set to exactly 1.
    """
    for v, kind in enumerate(dataset.kinds):
        if not isinstance(kind, Continuous):
            raise DatasetError(f"column '{dataset.names[v]}' is discrete; "
                               "gaussian_suffstat needs all-continuous data")
    if dataset.n < 2:
        raise DatasetError("need at least two samples for a correlation matrix")
    x = dataset.values
    centered = x - x.mean(axis=0)
    with np.errstate(over="ignore"):     # an overflow is reported below
        norms = np.sqrt((centered ** 2).sum(axis=0))
    scale = np.maximum(1.0, np.abs(x).max(axis=0)) * math.sqrt(dataset.n)
    for v in range(dataset.p):
        if norms[v] <= 1e-13 * scale[v]:
            raise DegenerateDataError(f"column '{dataset.names[v]}' has zero variance")
    with np.errstate(over="ignore"):
        cross = centered.T @ centered
    # a finite but huge cell overflows the sums, which would read as zero
    # correlations; finite data never reaches this, so no bit changes.  By
    # Cauchy-Schwarz an infinite cross product comes with an infinite norm,
    # and a non-finite norm always names a column at fault, so the norms are
    # asked first and the cross products only when every norm is finite.
    overflow = ~np.isfinite(norms)
    if not overflow.any():
        overflow = ~np.isfinite(cross).all(axis=0)
    if overflow.any():
        v = int(np.flatnonzero(overflow)[0])
        raise DegenerateDataError(
            f"column '{dataset.names[v]}' overflows the sums of squares; "
            "rescale its values")
    corr = cross / np.outer(norms, norms)
    corr = np.triu(corr, k=1)
    corr = corr + corr.T
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return GaussianSuffStat(corr, dataset.n)


def discrete_suffstat(dataset: Dataset) -> DiscreteSuffStat:
    """Integer code matrix and arities of an all-discrete dataset."""
    arities = []
    for v, kind in enumerate(dataset.kinds):
        if not isinstance(kind, Discrete):
            raise DatasetError(f"column '{dataset.names[v]}' is continuous; "
                               "discrete_suffstat needs all-discrete data")
        arities.append(kind.arity)
    return DiscreteSuffStat(dataset.values.astype(np.int64), arities)


def sample_covariance(dataset: Dataset) -> np.ndarray:
    """Unbiased sample covariance matrix (denominator n - 1)."""
    if dataset.n < 2:
        raise DatasetError("need at least two samples for a covariance matrix")
    x = dataset.values
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (dataset.n - 1)
    return (cov + cov.T) / 2.0
