"""Tests for dataset ingestion and sufficient statistics."""

import numpy as np
import pytest

from stablepc import (
    Continuous,
    Dataset,
    DatasetError,
    DegenerateDataError,
    Discrete,
    discrete_suffstat,
    gaussian_suffstat,
    load_csv,
    write_csv,
)


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
        path = write(tmp_path, "a,a\n1,2\n")
        with pytest.raises(DatasetError, match="unique"):
            load_csv(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.standard_normal((20, 4)),
                     ["w", "x", "y", "z"], [Continuous()] * 4)
        path = tmp_path / "rt.csv"
        write_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.values, ds.values)
        assert back.names == ds.names


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

    def test_mixed_rejected_names_column(self):
        ds = Dataset(np.array([[0.5, 1.0], [1.5, 0.0]]), ["cont", "b"],
                     [Continuous(), Discrete(2)])
        with pytest.raises(DatasetError, match="'cont' is continuous"):
            discrete_suffstat(ds)
