"""Tests for dataset ingestion and sufficient statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablepc import (
    Continuous,
    Dataset,
    DatasetError,
    DegenerateDataError,
    Discrete,
    DiscreteSuffStat,
    discrete_suffstat,
    gaussian_suffstat,
    load_csv,
    write_csv,
)
from stablepc.data import (AUTO_DISCRETE_MAX_LEVELS, BITSET_MAX_ARITY, KIND_HINTS, _parse_cells,
                           _parse_plain_numbers)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_numeric_file(self, tmp_path):
        path = write(tmp_path, "a,b,c\n1.5,2,3\n4,5,6\n7,8,9\n0.1,0.2,0.3\n")
        ds = load_csv(path)
        assert ds.p == 3 and ds.n == 4
        assert all(isinstance(k, Continuous) for k in ds.kinds)
        assert ds.names == ("a", "b", "c")
        assert ds.values[0, 0] == 1.5

    def test_binary_column_auto_discrete(self, tmp_path):
        path = write(tmp_path, "a,b\n0,1.5\n1,2.5\n0,3.5\n1,0.25\n")
        ds = load_csv(path)
        assert ds.kinds[0] == Discrete(arity=2)
        assert isinstance(ds.kinds[1], Continuous)

    def test_ragged_row_names_row(self, tmp_path):
        path = write(tmp_path, "a,b,c\n1,2,3\n4,5\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(path)

    def test_unparseable_cell_located(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,oops\n")
        with pytest.raises(DatasetError, match="row 2, column 'b'"):
            load_csv(path)

    def test_too_few_columns(self, tmp_path):
        path = write(tmp_path, "a\n1\n2\n")
        with pytest.raises(DatasetError, match="two columns"):
            load_csv(path)

    def test_no_data_rows(self, tmp_path):
        path = write(tmp_path, "a,b\n")
        with pytest.raises(DatasetError, match="no data rows"):
            load_csv(path)

    def test_missing_value_rejected(self, tmp_path):
        path = write(tmp_path, "a,b\n1,nan\n2,3\n")
        with pytest.raises(DatasetError, match="row 1, column 'b'"):
            load_csv(path)

    def test_recode_first_appearance_order(self, tmp_path):
        path = write(tmp_path, "a,b\n5,0\n3,1\n5,0\n7,1\n")
        ds = load_csv(path)
        assert ds.kinds[0] == Discrete(arity=3)
        assert ds.values[:, 0].tolist() == [0, 1, 0, 2]

    def test_many_levels_stay_continuous(self, tmp_path):
        rows = "\n".join(f"{k},{k % 2}" for k in range(40))
        path = write(tmp_path, "a,b\n" + rows + "\n")
        ds = load_csv(path)
        assert isinstance(ds.kinds[0], Continuous)
        assert ds.kinds[1] == Discrete(arity=2)

    def test_float_literal_not_integer(self, tmp_path):
        path = write(tmp_path, "a,b\n1.0,0\n2.0,1\n")
        ds = load_csv(path)
        assert isinstance(ds.kinds[0], Continuous)

    def test_hint_continuous_forces(self, tmp_path):
        path = write(tmp_path, "a,b\n0,1\n1,0\n")
        ds = load_csv(path, kind_hint="continuous")
        assert all(isinstance(k, Continuous) for k in ds.kinds)

    def test_hint_discrete_rejects_floats(self, tmp_path):
        path = write(tmp_path, "a,b\n0,1.5\n1,2.5\n")
        with pytest.raises(DatasetError, match="forced discrete"):
            load_csv(path, kind_hint="discrete")

    def test_bad_hint(self, tmp_path):
        path = write(tmp_path, "a,b\n0,1\n")
        with pytest.raises(DatasetError, match="kind_hint"):
            load_csv(path, kind_hint="nope")

    def test_duplicate_names(self, tmp_path):
        # plain numbers go to numpy's parser, a body with spaces to the cell parser
        for body in ("1,2,3\n", "1, 2, 3\n"):
            path = write(tmp_path, "a,b,a\n" + body)
            with pytest.raises(DatasetError) as caught:
                load_csv(path)
            assert str(caught.value) == \
                f"{path}: variable names must be unique; 'a' is columns 1 and 3"

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.standard_normal((20, 4)),
                     ["w", "x", "y", "z"], [Continuous()] * 4)
        path = tmp_path / "rt.csv"
        write_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.values, ds.values)
        assert back.names == ds.names


def parsed_or_message(text, kind_hint, fast):
    """The Dataset's bytes, shape, kinds and names from the numpy parser
    where it takes the text (if ``fast``), else from the Python parser; or
    the DatasetError message."""
    try:
        parsed = fast and _parse_plain_numbers(text, kind_hint) or _parse_cells(
            "data.csv", text, kind_hint)
        ds = Dataset(*parsed)
    except DatasetError as exc:
        return str(exc)
    return ds.values.tobytes(), ds.values.shape, ds.kinds, ds.names


def assert_parsers_agree(text):
    for hint in KIND_HINTS:
        assert parsed_or_message(text, hint, True) == parsed_or_message(text, hint, False), hint


# Cells around the numpy parser's edges: forms int() and float() read
# differently, Python-only syntax, whitespace, comments, quotes, a form
# feed (a line break to str.splitlines), an Arabic-Indic digit, integers
# past 2**53 and values that overflow.
HOSTILE_CELLS = ["1.0", "+3", "03", "-0", "1_0", " 7 ", "nan", "inf", "-inf", "#", "#1",
                 '"1"', "'2'", "\x0c", "1\x0c2", "\u0661", str(2 ** 53 + 1), str(-2 ** 53),
                 str(2 ** 53 - 1), "1e400", "1e-400", "1e5", "1E5", ".5", "5.", "e", "+", "-",
                 "", "0x10", "1,5", "2.0e0", "007"]


class TestNumpyParser:
    """The numpy parser gives the Python parser's Dataset or leaves the text
    to it, so messages come from the Python parser alone."""

    @pytest.mark.parametrize("cell", HOSTILE_CELLS)
    def test_hostile_cell(self, cell):
        for column in ("1", "2.5", "4"):
            assert_parsers_agree(f"a,b\n{cell},{column}\n3,{column}\n")
            assert_parsers_agree(f"a,b\n0,1\n1,{cell}\n")

    @pytest.mark.parametrize("text, fast", [
        ("a,b\n1.0,2\n3,4\n", True),           # float token, integer value
        ("a,b\n+3,03\n-0,0\n", True),          # int() reads them all
        ("a,b\n1,2\r\n3,4\r\n", True),         # CRLF
        ("a,b\r\n1,2\r\n3,4", True),            # CRLF header, no final break
        ("a,b\n1,2\n\n3,4\n", False),          # blank line
        ("a,b\n1,2\r3,4\n", False),             # bare CR
        ("\na,b\n1,2\n", False),                # leading blank line
        ("a,b\x0c\n1,2\n3,4\n", False),         # form feed ends the header line
        ("a,b\n1,2\n3\n", False),               # ragged row
        ("a\n1\n2\n", False),                   # one column
        ("a,b\n", False),                        # no data row
        ("a,b\n1,2,\n", False),                 # trailing comma
        ("a,a\n1,2\n", True),                   # duplicate names: Dataset's error
        (f"a,b\n{2 ** 53 + 1},1\n0,0\n", False),  # past 2**53 floats merge integers
        ("x,y\n" + "".join(f"{k},{k % 3}\n" for k in range(40)), True),
    ])
    def test_fixed_cases(self, text, fast):
        assert_parsers_agree(text)
        assert (_parse_plain_numbers(text, "auto") is not None) == fast

    def test_hint_rules_on_the_fast_path(self):
        # integer past 2**53 is fine for continuous values; a float token
        # under the discrete hint leaves the message to the Python parser
        text = f"a,b\n{2 ** 53 + 1},0\n1,1\n"
        assert _parse_plain_numbers(text, "continuous") is not None
        assert _parse_plain_numbers("a,b\n1.0,0\n", "discrete") is None
        assert_parsers_agree(text)

    def test_codes_in_first_appearance_order(self):
        text = "a,b,c\n5,-0,1e1\n3,0,2\n5,+7,1e1\n-1,7,3\n"
        values, names, kinds = _parse_plain_numbers(text, "auto")
        assert names == ["a", "b", "c"]
        assert kinds == [Discrete(3), Discrete(2), Continuous()]
        assert values[:, 0].tolist() == [0, 1, 0, 2]
        assert values[:, 1].tolist() == [0, 0, 1, 1]
        assert_parsers_agree(text)

    @pytest.mark.parametrize("span", [3, 40, 70_000, 2 ** 52])
    def test_recode_matches_cell_parser(self, span):
        # every integer column recoded at once: a few levels, one past the
        # auto cut, a constant column, negative values, spans past 2**16
        # (sorted as floats) and one row
        rng = np.random.default_rng(span % 997)
        levels = [3, 2, AUTO_DISCRETE_MAX_LEVELS + 1, 1, AUTO_DISCRETE_MAX_LEVELS]
        columns = [rng.choice(rng.integers(-span, span, a), 200) for a in levels]
        columns[1] = rng.choice([-span, span - 1], 200)
        rows = np.column_stack(columns).tolist()
        for count in (200, 1):
            text = "a,b,c,d,e\n" + "".join(",".join(map(str, r)) + "\n" for r in rows[:count])
            assert _parse_plain_numbers(text, "auto") is not None
            assert_parsers_agree(text)

    def test_load_csv_reads_workload_sized_file(self, tmp_path):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 3, (300, 6))
        path = write(tmp_path, "a,b,c,d,e,f\n" + "\n".join(
            ",".join(map(str, row)) for row in codes.tolist()) + "\n")
        text = path.read_text(encoding="utf-8")
        assert _parse_plain_numbers(text, "discrete") is not None
        for hint in KIND_HINTS:
            ds = load_csv(path, hint)
            assert (ds.values.tobytes(), ds.values.shape, ds.kinds, ds.names) == \
                parsed_or_message(text, hint, False)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_parsers_agree_on_generated_text(self, data):
        number = st.from_regex(r"[+-]?[0-9]{0,4}(\.[0-9]{0,3})?([eE][+-]?[0-9]{1,3})?",
                               fullmatch=True)
        cell = st.one_of(number, st.sampled_from(HOSTILE_CELLS),
                         st.text(alphabet="0123456789.+-eE ,#_\"'\x0c\u0661naif\r", max_size=5),
                         st.integers(-40, 40).map(str))
        p = data.draw(st.integers(1, 4))
        header = ",".join(data.draw(st.lists(st.sampled_from(["a", "b", "c", " d", "e"]),
                                             min_size=p, max_size=p)))
        lines = [header] + [",".join(data.draw(st.lists(cell, min_size=p, max_size=p)))
                            for _ in range(data.draw(st.integers(0, 5)))]
        breaks = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\n\n", "\r", "\x0c"]),
                                    min_size=len(lines), max_size=len(lines)))
        assert_parsers_agree("".join(a + b for a, b in zip(lines, breaks)))


class TestDataset:
    def test_discrete_codes_validated(self):
        with pytest.raises(DatasetError, match="codes outside"):
            Dataset(np.array([[0.0, 2.0], [1.0, 0.0]]), ["a", "b"],
                    [Discrete(2), Discrete(2)])

    def test_values_read_only(self):
        ds = Dataset(np.eye(3)[:, :2] + 1.0, ["a", "b"], [Continuous()] * 2)
        with pytest.raises(ValueError):
            ds.values[0, 0] = 9.0


class TestGaussianSuffStat:
    def test_identical_columns_corr_one(self):
        x = np.arange(1.0, 7.0)
        ds = Dataset(np.column_stack([x, x.copy()]), ["a", "b"], [Continuous()] * 2)
        stat = gaussian_suffstat(ds)
        assert stat.corr[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_exact_negative(self):
        ds = Dataset(np.array([[1, 4], [2, 3], [3, 2], [4, 1.0]]),
                     ["x", "y"], [Continuous()] * 2)
        stat = gaussian_suffstat(ds)
        assert stat.corr[0, 1] == pytest.approx(-1.0, abs=1e-15)

    def test_hand_computed_point_eight(self):
        # Pearson by hand: centered x = (-1.5,-.5,.5,1.5), y = (-1.5,.5,-.5,1.5)
        # dot = 4, |x||y| = 5 -> r = 0.8
        ds = Dataset(np.array([[1, 1], [2, 3], [3, 2], [4, 4.0]]),
                     ["x", "y"], [Continuous()] * 2)
        stat = gaussian_suffstat(ds)
        assert stat.corr[0, 1] == pytest.approx(0.8, abs=1e-15)

    def test_bitwise_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(11)
        ds = Dataset(rng.standard_normal((50, 6)),
                     [f"v{k}" for k in range(6)], [Continuous()] * 6)
        stat = gaussian_suffstat(ds)
        assert np.array_equal(stat.corr, stat.corr.T)
        assert np.array_equal(np.diag(stat.corr), np.ones(6))
        assert np.abs(stat.corr).max() <= 1.0

    def test_zero_variance_named(self):
        ds = Dataset(np.array([[1.0, 3.0], [2.0, 3.0], [5.0, 3.0]]),
                     ["a", "flat"], [Continuous()] * 2)
        with pytest.raises(DegenerateDataError, match="flat"):
            gaussian_suffstat(ds)

    def test_overflowing_column_named(self):
        # finite cells whose sums of squares overflow: an error naming the
        # column, not zero correlations
        ds = Dataset(np.array([[1.0, 1.0, 2.0], [2.0, 2.5, 1.0], [3.0, 1e300, 4.0],
                               [4.0, 1.5, 3.0]]),
                     ["a", "huge", "c"], [Continuous()] * 3)
        with pytest.raises(DegenerateDataError, match="'huge' overflows"):
            gaussian_suffstat(ds)
        # the huge column after a partner of about 1e10 whose cross product
        # with it overflows while the partner's own sum of squares does not
        ds = Dataset(np.array([[1e10, 1.0], [3e10, 2.5], [2e10, 1e300], [4e10, 1.5]]),
                     ["b", "a"], [Continuous()] * 2)
        with pytest.raises(DegenerateDataError, match="'a' overflows"):
            gaussian_suffstat(ds)

    def test_discrete_column_rejected(self):
        ds = Dataset(np.array([[0.0, 1.0], [1.0, 2.0]]), ["a", "b"],
                     [Discrete(2), Continuous()])
        with pytest.raises(DatasetError, match="'a' is discrete"):
            gaussian_suffstat(ds)


class TestDiscreteSuffStat:
    def test_binary_column(self):
        ds = Dataset(np.array([[0, 0], [1, 1], [0, 1], [1, 0], [0, 0.0]]),
                     ["a", "b"], [Discrete(2), Discrete(2)])
        stat = discrete_suffstat(ds)
        assert stat.arities == (2, 2)
        assert stat.n == 5

    def test_three_level_column(self):
        ds = Dataset(np.array([[0, 0], [1, 1], [2, 0.0]]),
                     ["a", "b"], [Discrete(3), Discrete(2)])
        assert discrete_suffstat(ds).arities[0] == 3

    def test_bitsets_mark_each_value(self):
        # 130 samples: three words, the last one padded with zero bits
        rng = np.random.default_rng(4)
        arities = [3, BITSET_MAX_ARITY + 1, 1, 2]
        codes = np.column_stack([rng.integers(0, a, 130) for a in arities])
        stat = DiscreteSuffStat(codes, arities)
        assert stat.bit_rows.tolist() == [0, -1, 3, 4]
        assert stat.bitsets.shape == (6, 3) and stat.bitsets.dtype == np.uint64
        bits = np.unpackbits(stat.bitsets.view(np.uint8), axis=1, bitorder="little")
        for v, a in enumerate(arities):
            if a <= BITSET_MAX_ARITY:
                rows = bits[stat.bit_rows[v]:stat.bit_rows[v] + a]
                assert np.array_equal(rows[:, :130], codes[:, v] == np.arange(a)[:, None])
                assert not rows[:, 130:].any()
        assert stat.bitsets.nbytes <= 4 * 130 * (len(arities) - 1)   # int32 codes' size
        assert stat.codes.dtype == np.uint8
        assert not stat.bitsets.flags.writeable

    def test_mixed_rejected_names_column(self):
        ds = Dataset(np.array([[0.5, 1.0], [1.5, 0.0]]), ["cont", "b"],
                     [Continuous(), Discrete(2)])
        with pytest.raises(DatasetError, match="'cont' is continuous"):
            discrete_suffstat(ds)
