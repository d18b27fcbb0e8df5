import datetime

import numpy as np
import pytest

from infoeq import (
    DomainError,
    DuplicateTimestamp,
    EmptyFile,
    LoessConfig,
    OutOfRange,
    ParseError,
    TimeSeries,
    align,
    decimal_year,
    interp_linear,
    load_csv,
    loess_smooth,
    log_growth,
    save_csv,
)


def make_series(n=10, start=2000.0, step=1.0, fn=lambda t: t * 0.0 + 1.0):
    t = start + step * np.arange(n)
    return TimeSeries(t, fn(t))


class TestDecimalYear:
    def test_january_first_is_exact(self):
        assert decimal_year(datetime.date(2009, 1, 1)) == 2009.0

    def test_non_leap_year_fraction(self):
        # 2009-07-02 is day 183 of 365
        assert decimal_year(datetime.date(2009, 7, 2)) == 2009 + 182 / 365

    def test_leap_year_fraction(self):
        # 2008-12-31 is day 366 of 366
        assert decimal_year(datetime.date(2008, 12, 31)) == 2008 + 365 / 366

    def test_strictly_increasing_through_year_boundary(self):
        a = decimal_year(datetime.date(2011, 12, 31))
        b = decimal_year(datetime.date(2012, 1, 1))
        assert a < b == 2012.0


class TestTimeSeries:
    def test_basic_construction(self):
        ts = TimeSeries([1.0, 2.0], [3.0, 4.0], name="x", units="u")
        assert len(ts) == 2
        assert ts.span() == (1.0, 2.0)
        assert ts.name == "x" and ts.units == "u"

    def test_arrays_are_read_only(self):
        ts = make_series()
        with pytest.raises(ValueError):
            ts.v[0] = 99.0
        with pytest.raises(ValueError):
            ts.t[0] = 99.0

    def test_rejects_unsorted_timestamps(self):
        with pytest.raises(DomainError):
            TimeSeries([2.0, 1.0], [0.0, 0.0])

    def test_rejects_duplicate_timestamps(self):
        with pytest.raises(DomainError):
            TimeSeries([1.0, 1.0], [0.0, 0.0])

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(DomainError):
            TimeSeries([], [])
        with pytest.raises(DomainError):
            TimeSeries([1.0, 2.0], [1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            TimeSeries([1.0, 2.0], [1.0, np.nan])
        with pytest.raises(DomainError):
            TimeSeries([1.0, np.inf], [1.0, 2.0])


class TestLoadCsv:
    def test_iso_dates_with_header(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("date,value\n2000-01-01,1.5\n2001-01-01,2.5\n")
        ts = load_csv(path)
        assert np.array_equal(ts.t, [2000.0, 2001.0])
        assert np.array_equal(ts.v, [1.5, 2.5])

    def test_headerless_decimal_years(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("2000.5,1.0\n2001.5,2.0\n")
        ts = load_csv(path)
        assert np.array_equal(ts.t, [2000.5, 2001.5])

    def test_unsorted_rows_are_sorted(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("date,value\n2002-01-01,3\n2000-01-01,1\n2001-01-01,2\n")
        ts = load_csv(path)
        assert np.array_equal(ts.v, [1.0, 2.0, 3.0])

    def test_named_columns_located_case_insensitively(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("DATE,extra,VALUE\n2000-01-01,9,1.5\n2001-01-01,9,2.5\n")
        ts = load_csv(path)
        assert np.array_equal(ts.v, [1.5, 2.5])

    def test_custom_column_names(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("when,level\n2000-01-01,7\n2001-01-01,8\n")
        ts = load_csv(path, date_col="when", value_col="level")
        assert np.array_equal(ts.v, [7.0, 8.0])

    def test_duplicate_timestamp_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("date,value\n2000-01-01,1\n2000-01-01,2\n")
        with pytest.raises(DuplicateTimestamp):
            load_csv(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("date,value\n2000-01-01,1\nnot-a-date,2\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path)

    def test_bad_value_carries_line_number(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("date,value\n2000-01-01,one\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("")
        with pytest.raises(EmptyFile):
            load_csv(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("date,value\n")
        with pytest.raises(EmptyFile):
            load_csv(path)

    def test_save_load_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        ts = TimeSeries(np.sort(rng.uniform(1990, 2020, 20)), rng.normal(size=20))
        path = tmp_path / "rt.csv"
        save_csv(ts, path)
        back = load_csv(path)
        assert np.array_equal(back.t, ts.t)
        assert np.array_equal(back.v, ts.v)


class TestInterpLinear:
    def test_exact_at_samples(self):
        ts = make_series(5, fn=lambda t: t**2)
        assert interp_linear(ts, 2002.0) == ts.v[2]

    def test_midpoint(self):
        ts = TimeSeries([0.0, 1.0], [0.0, 10.0])
        assert interp_linear(ts, 0.5) == 5.0

    def test_scalar_in_scalar_out(self):
        ts = make_series(5)
        out = interp_linear(ts, 2001.5)
        assert isinstance(out, float)

    def test_array_in_array_out(self):
        ts = make_series(5)
        out = interp_linear(ts, np.array([2000.5, 2001.5]))
        assert out.shape == (2,)

    def test_refuses_extrapolation(self):
        ts = make_series(5)
        with pytest.raises(OutOfRange):
            interp_linear(ts, 1999.9)
        with pytest.raises(OutOfRange):
            interp_linear(ts, [2000.0, 2004.1])

    def test_nan_time_is_out_of_range(self):
        ts = make_series(5)
        with pytest.raises(OutOfRange, match="t=nan"):
            interp_linear(ts, np.nan)
        with pytest.raises(OutOfRange, match="t=nan"):
            interp_linear(ts, [2001.0, np.nan])


class TestLoessConfig:
    def test_defaults(self):
        config = LoessConfig()
        assert config.degree == 2 and config.span == 1.0

    def test_rejects_bad_degree(self):
        with pytest.raises(DomainError):
            LoessConfig(degree=3)

    def test_rejects_bad_span(self):
        with pytest.raises(DomainError):
            LoessConfig(span=0.0)
        with pytest.raises(DomainError):
            LoessConfig(span=1.5)

    def test_window_size(self):
        assert LoessConfig(span=0.5).window(10) == 5
        assert LoessConfig(span=1.0).window(7) == 7

    def test_window_too_small(self):
        with pytest.raises(DomainError):
            LoessConfig(degree=2, span=0.1).window(10)


def wls_poly_oracle(ts, config, i):
    """Uncentered weighted least squares, evaluated at the target point."""
    d = np.abs(ts.t - ts.t[i])
    q = config.window(len(ts))
    idx = np.argsort(d, kind="stable")[:q]
    radius = d[idx][-1]
    w = (1.0 - np.clip(d[idx] / radius, 0.0, 1.0) ** 3) ** 3
    keep = w > 0
    x, y, w = ts.t[idx][keep], ts.v[idx][keep], w[keep]
    design = np.vander(x, config.degree + 1, increasing=True) * np.sqrt(w)[:, None]
    beta, *_ = np.linalg.lstsq(design, y * np.sqrt(w), rcond=None)
    return float(np.polyval(beta[::-1], ts.t[i]))


class TestLoess:
    def test_reproduces_quadratic_exactly(self):
        t = np.linspace(0.0, 9.0, 25)
        ts = TimeSeries(t, 2.0 - 0.5 * t + 0.25 * t**2)
        out = loess_smooth(ts, LoessConfig(degree=2, span=0.6))
        assert np.max(np.abs(out.v - ts.v)) < 1e-10

    def test_reproduces_line_with_degree_one(self):
        t = np.linspace(0.0, 9.0, 25)
        ts = TimeSeries(t, 3.0 + 0.7 * t)
        out = loess_smooth(ts, LoessConfig(degree=1, span=0.4))
        assert np.max(np.abs(out.v - ts.v)) < 1e-10

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        t = np.sort(rng.uniform(0.0, 30.0, 40))
        ts = TimeSeries(t, np.sin(t / 3.0) + 0.1 * rng.normal(size=40))
        config = LoessConfig(degree=2, span=0.5)
        out = loess_smooth(ts, config)
        for i in range(len(ts)):
            assert abs(out.v[i] - wls_poly_oracle(ts, config, i)) < 1e-10

    def test_smooths_noise_toward_trend(self):
        rng = np.random.default_rng(3)
        t = np.arange(60.0)
        trend = 0.1 * t
        ts = TimeSeries(t, trend + rng.normal(0.0, 0.5, size=60))
        out = loess_smooth(ts, LoessConfig(degree=1, span=0.5))
        assert np.std(out.v - trend) < np.std(ts.v - trend)

    def test_preserves_metadata_and_timestamps(self):
        ts = TimeSeries(np.arange(5.0), np.ones(5), name="n", units="u")
        out = loess_smooth(ts)
        assert np.array_equal(out.t, ts.t)
        assert out.name == "n" and out.units == "u"


class TestLogGrowth:
    def test_exact_for_exponential_on_uneven_grid(self):
        t = np.array([0.0, 0.7, 1.1, 2.4, 3.0])
        ts = TimeSeries(t, 5.0 * np.exp(0.13 * t))
        g = log_growth(ts)
        assert np.allclose(g.v, 0.13, rtol=0.0, atol=1e-12)
        assert g.units == "1/yr"

    def test_rejects_non_positive_values(self):
        with pytest.raises(DomainError):
            log_growth(TimeSeries([0.0, 1.0], [1.0, 0.0]))

    def test_rejects_single_sample(self):
        with pytest.raises(DomainError):
            log_growth(TimeSeries([0.0], [1.0]))


class TestAlign:
    def test_pairs_on_grid(self):
        a = TimeSeries([0.0, 2.0], [0.0, 2.0])
        b = TimeSeries([0.0, 2.0], [4.0, 0.0])
        rows = align(a, b, [0.0, 1.0, 2.0])
        assert rows == [(0.0, 0.0, 4.0), (1.0, 1.0, 2.0), (2.0, 2.0, 0.0)]

    def test_refuses_grid_outside_either_span(self):
        a = TimeSeries([0.0, 2.0], [0.0, 2.0])
        b = TimeSeries([1.0, 3.0], [0.0, 2.0])
        with pytest.raises(OutOfRange):
            align(a, b, [0.5, 1.5])
