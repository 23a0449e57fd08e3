import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from msvg.returns import load_returns, load_values, summary_statistics

FIXTURE = Path(__file__).parent / "data" / "fixture_prices.csv"


def write_csv(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadReturns:
    def test_three_row_single_series(self, tmp_path):
        path = write_csv(tmp_path, "p\n100\n110\n99\n")
        panel = load_returns(path)
        assert panel.series_names == ["p"]
        np.testing.assert_allclose(panel.values[:, 0],
                                   [math.log(1.1), math.log(0.9)])
        assert panel.dropped_rows == 0
        assert panel.n == 2

    def test_missing_price_drops_whole_row(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n100,200\n101,\n102,202\n")
        panel = load_returns(path)
        assert panel.dropped_rows == 1
        assert panel.n == 1
        np.testing.assert_allclose(
            panel.values[0], [math.log(1.02), math.log(1.01)])

    def test_row_count_contract(self):
        panel = load_returns(FIXTURE, date_column="date")
        # 61 raw rows, 2 with a missing price: 59 aligned price rows -> 58
        assert panel.dropped_rows == 2
        assert panel.n == 58
        assert panel.d == 3
        assert np.all(np.isfinite(panel.values))
        assert len(panel.dates) == 58

    def test_column_selection(self):
        panel = load_returns(FIXTURE, date_column="date",
                             price_columns=["CCC", "AAA"])
        assert panel.series_names == ["CCC", "AAA"]
        assert panel.d == 2

    def test_nonpositive_price_error_names_row(self, tmp_path):
        path = write_csv(tmp_path, "p\n100\n-5\n99\n")
        with pytest.raises(ValueError, match="line 3"):
            load_returns(path)

    def test_too_few_rows(self, tmp_path):
        path = write_csv(tmp_path, "p\n100\n")
        with pytest.raises(ValueError, match="at least 2"):
            load_returns(path)

    def test_unknown_column(self, tmp_path):
        path = write_csv(tmp_path, "p\n1\n2\n")
        with pytest.raises(ValueError, match="no column"):
            load_returns(path, price_columns=["q"])

    def test_no_value_columns(self, tmp_path):
        path = write_csv(tmp_path, "date\n2020-01-01\n2020-01-02\n2020-01-03\n")
        with pytest.raises(ValueError, match="no value columns"):
            load_returns(path, date_column="date")
        with pytest.raises(ValueError, match="no value columns"):
            load_values(path, date_column="date")

    def test_simple_returns_option(self, tmp_path):
        path = write_csv(tmp_path, "p\n100\n110\n99\n")
        panel = load_returns(path, log_returns=False)
        np.testing.assert_allclose(panel.values[:, 0], [0.1, -0.1])


class TestLoadValues:
    def test_passthrough(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n0.1,0.2\n-0.3,0.4\nbad,0.5\n")
        panel = load_values(path)
        assert panel.n == 2
        assert panel.dropped_rows == 1
        np.testing.assert_allclose(panel.values, [[0.1, 0.2], [-0.3, 0.4]])


class TestSummaryStatistics:
    def test_against_scipy(self):
        panel = load_returns(FIXTURE, date_column="date")
        out = summary_statistics(panel)
        v = panel.values
        np.testing.assert_allclose(out["mean"], v.mean(axis=0))
        np.testing.assert_allclose(out["sd"], v.std(axis=0, ddof=1))
        np.testing.assert_allclose(out["max"], v.max(axis=0))
        np.testing.assert_allclose(out["min"], v.min(axis=0))
        np.testing.assert_allclose(out["skewness"], stats.skew(v, axis=0))
        np.testing.assert_allclose(out["kurtosis"],
                                   stats.kurtosis(v, axis=0, fisher=False))
