import datetime
import tracemalloc

import numpy as np
import pytest

from infoeq import cli, timeseries
from infoeq.data import SERIES, bundled_path, bundled_series
from loess_oracle import LOESS_TOL, loess_oracle
from infoeq import (
    DomainError,
    DuplicateTimestamp,
    EmptyFile,
    InfoEqError,
    LoessConfig,
    OutOfRange,
    ParseError,
    SingularFit,
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

    def test_matches_day_of_year_from_timetuple(self):
        days = [datetime.date(1999, 1, 1) + datetime.timedelta(days=i) for i in range(3 * 366)]
        days += [datetime.date(y, m, d) for y in range(1, 10000, 7) for m, d in ((1, 1), (12, 31))]
        for d in days:
            length = datetime.date(d.year, 12, 31).timetuple().tm_yday
            assert decimal_year(d) == d.year + (d.timetuple().tm_yday - 1) / float(length)


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

    def test_callers_arrays_stay_writable(self):
        t, v = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        ts = TimeSeries(t, v)
        t[0], v[0] = 0.5, 5.0
        assert np.array_equal(ts.t, [1.0, 2.0]) and np.array_equal(ts.v, [3.0, 4.0])
        assert not ts.t.flags.writeable and not ts.v.flags.writeable

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

    def test_dates_are_only_yyyy_mm_dd_on_every_python(self, tmp_path):
        # date.fromisoformat takes both as dates from Python 3.11 on, 3.10 neither
        path = tmp_path / "a.csv"
        path.write_text("date,value\n20090101,1.0\n")
        assert load_csv(path).t.tolist() == [20090101.0]  # a decimal year
        path.write_text("date,value\n2009-W01-1,1.0\n")
        with pytest.raises(ParseError, match="^line 2: unparseable date '2009-W01-1'$"):
            load_csv(path)

    def test_line_number_counts_the_lines_of_a_quoted_cell(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text('date,value,note\n2009-01-01,1.0,"two\nlines"\n2009-02-01,oops,x\n')
        with pytest.raises(ParseError, match="^line 4: unparseable value 'oops'$"):
            load_csv(path)

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"date,value\n2000-01-01,1\n2001-01-01,\xff\n")
        with pytest.raises(ParseError, match="not valid UTF-8") as info:
            load_csv(path)
        assert isinstance(info.value, InfoEqError)

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


def read_text(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def outcome(load):
    """A load's result down to the bit, or its exception's type, message and line."""
    try:
        ts = load()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return ts.t.tobytes(), ts.v.tobytes(), ts.name, ts.units


def row_parser_outcome(monkeypatch, path, **kw):
    """`load_csv` with the array fast path switched off: the row parser's answer."""
    with monkeypatch.context() as patch:
        patch.setattr(timeseries, "_iso_columns", lambda *args: None)
        return outcome(lambda: load_csv(path, **kw))


# 300 rows of 6-digit integers: a row pattern that could match such a
# value in several ways would try 6**300 splits before giving way on a
# bad last line
INTEGER_ROWS = "date,value\n" + "".join(
    f"{2000 + i // 12}-{i % 12 + 1:02d}-01,150000\n" for i in range(300)
)


class TestLoadCsvFastPath:
    """The array path for plain ISO files against the row parser as oracle."""

    @pytest.mark.parametrize("name", sorted(SERIES))
    def test_bundled_files_match_row_parser_bit_for_bit(self, name):
        with bundled_path(name) as path:
            text = read_text(path)
        fast = timeseries._iso_columns(text, "date", "value")
        assert fast is not None
        rows = timeseries._row_columns(text, "date", "value")
        assert np.array_equal(fast[0], rows[0])
        assert np.array_equal(fast[1], rows[1])

    def test_leap_year_arithmetic_is_exact(self, tmp_path, monkeypatch):
        days = [datetime.date(1999, 12, 31) + datetime.timedelta(days=i) for i in range(368)]
        assert days[-1] == datetime.date(2001, 1, 1) and datetime.date(2000, 2, 29) in days
        path = tmp_path / "daily.csv"
        path.write_text("date,value\n" + "".join(f"{d.isoformat()},{i}\n" for i, d in enumerate(days)))
        assert timeseries._iso_columns(read_text(path), "date", "value") is not None
        ts = load_csv(path)
        assert np.array_equal(ts.t, [decimal_year(d) for d in days])
        assert ts.t[0] == 1999 + 364 / 365
        assert ts.t[1] == 2000.0
        assert ts.t[60] == 2000 + 59 / 366  # 2000-02-29
        assert ts.t[366] == 2000 + 365 / 366
        assert ts.t[367] == 2001.0
        assert outcome(lambda: ts) == row_parser_outcome(monkeypatch, path)

    @pytest.mark.parametrize(
        "text, fast, expect",
        [
            ("date,value\n0000-01-01,1\n2000-01-01,2\n", False, ParseError),
            ("date,value\n2008-02-29,1\n2009-02-29,2\n", False, ParseError),
            ("date,value\n2000-01-01,nan\n", False, ParseError),
            ("date,value\n2000-01-01,1\n2001-01-01,inf\n", False, ParseError),
            ("date,value\n2000-01-01,1\n2001-01-01,1.5e400\n", False, ParseError),
            ("date,value\r\n2000-01-01,1\r\n2001-01-01,2\r\n", True, None),
            ("date,value\n2000-01-01,1\n\n2001-01-01,2\n", False, None),
            ("date,value\n2000-01-01,1\n2001-01-01,2", True, None),
            ("date,value\n2002-01-01,3\n2000-01-01,1e0\n2001-01-01,-.5\n", True, None),
            ("date,value\n2000-01-01,1\n2001-01-01,2\n2000-01-01,3\n", True, DuplicateTimestamp),
            ("value,date\n1.5,2000-01-01\n2.5,2001-01-01\n", False, None),
            ("2000-01-01,1.5\n2001-01-01,2.5\n", False, None),
            ('date,value\n"2000-01-01",1\n2001-01-01,2\n', False, None),
            ("date,value,x\n2000-01-01,1,9\n2001-01-01,2,9\n", False, None),
            ("date,value\n2000-01-01,1,9\n2001-01-01,2\n", False, None),
            ("DATE,Value\n2000-01-01,1\n2001-01-01,2\n", True, None),
            (INTEGER_ROWS + "\n", False, None),
            (INTEGER_ROWS + "2100-01-01,.\n", False, ParseError),
            (INTEGER_ROWS + "2100-01-01,1 \n", False, None),
            (INTEGER_ROWS + "\r", False, None),
        ],
        ids=[
            "year-0000",
            "2009-02-29",
            "nan",
            "inf",
            "1.5e400",
            "crlf",
            "blank-line",
            "no-final-newline",
            "unsorted",
            "duplicate",
            "value-date-header",
            "headerless-iso",
            "quoted-field",
            "extra-column",
            "extra-cell-in-a-row",
            "header-case",
            "many-integer-rows-then-blank-line",
            "many-integer-rows-then-dot",
            "many-integer-rows-then-trailing-space",
            "many-integer-rows-then-lone-cr",
        ],
    )
    def test_matches_row_parser_or_gives_way(self, tmp_path, monkeypatch, text, fast, expect):
        path = tmp_path / "a.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert (timeseries._iso_columns(text, "date", "value") is not None) == fast
        got = outcome(lambda: load_csv(path))
        assert got == row_parser_outcome(monkeypatch, path)
        if expect is None:
            assert isinstance(got[0], bytes)
        else:
            assert got[0] is expect

    def test_decimal_year_file_goes_to_row_parser(self, tmp_path, monkeypatch):
        path = tmp_path / "saved.csv"
        save_csv(TimeSeries([2000.25, 2001.5], [1.0, 2.0]), path)
        assert timeseries._iso_columns(read_text(path), "date", "value") is None
        assert outcome(lambda: load_csv(path)) == row_parser_outcome(monkeypatch, path)

    @pytest.mark.parametrize(
        "date_col, value_col, text",
        [
            ("x", "X", "x,X\n2000-01-01,1\n2001-01-01,2\n"),
            ("1999-01-01", "5", "1999-01-01,5\n2000-01-01,1\n2001-01-01,2\n"),
        ],
        ids=["names-equal-ignoring-case", "header-that-parses-as-data"],
    )
    def test_column_names_the_header_cannot_pin_go_to_row_parser(
        self, tmp_path, monkeypatch, date_col, value_col, text
    ):
        path = tmp_path / "a.csv"
        path.write_text(text)
        assert timeseries._iso_columns(text, date_col, value_col) is None
        kw = dict(date_col=date_col, value_col=value_col)
        assert outcome(lambda: load_csv(path, **kw)) == row_parser_outcome(monkeypatch, path, **kw)

    def test_custom_column_names_take_the_fast_path(self, tmp_path, monkeypatch):
        path = tmp_path / "a.csv"
        path.write_text("when,level\n2000-01-01,7\n2001-01-01,8\n")
        assert timeseries._iso_columns(read_text(path), "when", "level") is not None
        assert timeseries._iso_columns(read_text(path), "date", "value") is None
        kw = dict(date_col="when", value_col="level", name="x", units="u")
        assert outcome(lambda: load_csv(path, **kw)) == row_parser_outcome(monkeypatch, path, **kw)


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

    def test_one_sample_answers_only_at_its_own_time(self):
        ts = TimeSeries([2000.0], [1.0])
        with pytest.raises(OutOfRange, match="^need at least two samples to interpolate$"):
            interp_linear(ts, 2001.0)
        assert interp_linear(ts, 2000.0) == 1.0

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


# (timestamps, span, degree, message): a rank-deficient window at t = 0
SINGULAR_WINDOWS = [
    # q = degree + 1: the farthest point has weight 0
    ([0.0, 1.0, 2.0], 0.5, 1, "local fit at t=0.0 has rank 1 < 2"),
    ([0.0, 1.0, 2.0, 3.0], 0.75, 2, "local fit at t=0.0 has rank 2 < 3"),
    # the second point sits 1e-12 inside the radius: its weight is ~3e-35
    ([0.0, 1.0, 1.0 + 1e-12], 1.0, 1, "local fit at t=0.0 has rank 1 < 2"),
]


class TestLoessSingularFit:
    @pytest.mark.parametrize("t, span, degree, message", SINGULAR_WINDOWS)
    def test_rank_deficient_window_raises(self, t, span, degree, message):
        ts = TimeSeries(np.array(t), np.arange(1.0, len(t) + 1.0))
        with pytest.raises(SingularFit) as info:
            loess_smooth(ts, LoessConfig(degree=degree, span=span))
        assert str(info.value) == message

    @pytest.mark.parametrize("t, span, degree, message", SINGULAR_WINDOWS)
    def test_cli_exits_3_with_one_line(self, tmp_path, capsys, t, span, degree, message):
        save_csv(TimeSeries(np.array(t), np.arange(1.0, len(t) + 1.0)), tmp_path / "raw.csv")
        argv = ["smooth", str(tmp_path / "raw.csv"), "--span", repr(span), "--degree", str(degree)]
        code = cli.main(argv)
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (3, "", f"infoeq: error: {message}\n")

    def test_weight_below_working_precision_of_the_moments_raises(self):
        # t=0 sits 1e-7 inside the radius of t=0.5's window, so its weight
        # is ~2e-19: the normal equations cannot see it, although the
        # weighted design still has rank 2 by lstsq's rcond
        ts = TimeSeries(np.array([0.0, 0.5, 1.0 + 1e-7]), np.array([1.0, 2.0, 4.0]))
        with pytest.raises(SingularFit, match=r"^local fit at t=0\.5 has rank 1 < 2$"):
            loess_smooth(ts, LoessConfig(degree=1, span=1.0))


def assert_matches_oracle(ts, config, points=None):
    want, scale = loess_oracle(ts, config, points)
    got = loess_smooth(ts, config).v
    got = got if points is None else got[points]
    assert np.all(np.abs(got - want) <= LOESS_TOL * scale)


class TestLoessAgainstOracle:
    @pytest.mark.parametrize("q", [2, 3, 4, 7, 50, 101])
    def test_windows_are_the_stable_argsort_nearest(self, q):
        rng = np.random.default_rng(q)
        for t in (1990.0 + 0.25 * np.arange(101), np.sort(rng.uniform(1990.0, 2015.0, 101))):
            starts = timeseries._window_starts(t, q)
            for i in range(t.size):
                nearest = np.sort(np.argsort(np.abs(t - t[i]), kind="stable")[:q])
                assert np.array_equal(nearest, np.arange(starts[i], starts[i] + q))

    @pytest.mark.parametrize("name", sorted(SERIES))
    @pytest.mark.parametrize("degree", [1, 2])
    def test_bundled_series(self, name, degree):
        ts = bundled_series(name)
        # both ends and a stride through the middle
        points = np.unique(np.r_[0 : len(ts) : 7, len(ts) - 1])
        for span in (0.1, 0.4, 1.0):
            assert_matches_oracle(ts, LoessConfig(degree=degree, span=span), points)

    @pytest.mark.parametrize("span", [0.05, 0.1, 0.33, 0.5, 1.0])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_even_grid_where_every_window_has_ties(self, span, degree):
        t = 1990.0 + 0.25 * np.arange(101)
        assert_matches_oracle(TimeSeries(t, 100.0 * np.sin(t)), LoessConfig(degree=degree, span=span))

    def test_memory_stays_bounded_at_full_span(self):
        # windows are gathered in blocks, so span 1.0 on 828 points needs
        # about 0.5 MB; one (828, 828) array alone would be 5.2 MB
        ts = bundled_series("mbcurrcir")
        config = LoessConfig(degree=2, span=1.0)
        loess_smooth(ts, config)
        tracemalloc.start()
        try:
            loess_smooth(ts, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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


def test_interp_linear_where_the_slope_overflows():
    ts = TimeSeries([0.0, 1.0], [-1e308, 1e308])
    assert interp_linear(ts, 0.75) == pytest.approx(5e307, rel=1e-15)
    assert np.array_equal(interp_linear(ts, [0.0, 0.5, 1.0]), [-1e308, 0.0, 1e308])
    # segments whose slope is in range keep np.interp's bits
    wide = TimeSeries([0.0, 1.0, 2.0, 3.0], [0.1, 0.7, -1e308, 1e308])
    t = np.array([0.3, 1.1, 1.9, 2.5])
    out = interp_linear(wide, t)
    assert out[:3].tobytes() == np.interp(t[:3], wide.t, wide.v).tobytes()
    assert out[3] == 0.0


@pytest.mark.parametrize(
    "line, fast",
    [
        ("2001-0e-01,1", False),
        ("+001-01-01,1", False),
        ("2001-01-1e,1", False),
        ("2001+01-01,1", False),
        ("2001-01.01,1", False),
        ("2001-1.-05,1", False),  # "1." read as digits would be month 8
        ("2001-01-1,1", False),
        ("2001-01-011,1", False),
        ("2001-01-012,1\n000-01-01,2", False),  # 11 + 9 date bytes, two dates' worth
        ("1900-02-29,1", False),
        ("2000-02-29,1", True),
        ("2100-02-29,1", False),
        ("2001-00-01,1", False),
        ("2001-13-01,1", False),
        ("2001-01-00,1", False),
        ("2001-01-32,1", False),
        ("2001-04-31,1", False),
        ("2001-01-01,1e", False),
        ("2001-01-01,e5", False),
        ("2001-01-01,+", False),
        ("2001-01-01,1.2.3", False),
        ("2001-01-01,--1", False),
        ("2001-01-01,.e1", False),
        ("2001-01-01,", False),
        (",5", False),
        ("2001-01-01,１", False),  # a full-width digit, which float() reads
        ("٢٠٠١-01-01,1", False),
        ("2001-01-01,1\r2", False),
        ("2001-01\r-01,1", False),
    ],
)
def test_iso_gate_gives_way_or_matches_the_row_parser(tmp_path, monkeypatch, line, fast):
    """Bytes of the number class where a date digit belongs, dates of the
    wrong length or outside the calendar, number-class values that are not
    numbers, non-ASCII text and a CR inside a line, between plain rows."""
    text = f"date,value\n1999-06-01,0.5\n{line}\n2002-01-01,3\n"
    path = tmp_path / "a.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    columns = timeseries._iso_columns(text, "date", "value")
    assert (columns is not None) == fast
    if fast:
        rows = timeseries._row_columns(text, "date", "value")
        assert columns[0].tobytes() == np.asarray(rows[0]).tobytes()
        assert columns[1].tobytes() == np.asarray(rows[1]).tobytes()
    assert outcome(lambda: load_csv(path)) == row_parser_outcome(monkeypatch, path)
