"""Time series container and transforms for annual-to-monthly economic data.

Timestamps are decimal years: an ISO date maps to
``year + (day_of_year - 1) / days_in_year`` with leap years counted, so
2009-01-01 is exactly 2009.0. All downstream models interpolate linearly
between observations and refuse to extrapolate.
"""

from __future__ import annotations

import calendar
import csv
import datetime as _dt
import io
import math
import re
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._checks import scalar
from .errors import (
    DomainError,
    DuplicateTimestamp,
    EmptyFile,
    OutOfRange,
    ParseError,
    SingularFit,
)

__all__ = [
    "TimeSeries",
    "LoessConfig",
    "decimal_year",
    "load_csv",
    "save_csv",
    "interp_linear",
    "loess_smooth",
    "log_growth",
    "align",
]


def decimal_year(date: _dt.date) -> float:
    """Convert a calendar date to a decimal year (leap-aware)."""
    days = 366.0 if calendar.isleap(date.year) else 365.0
    return date.year + (date.toordinal() - _dt.date(date.year, 1, 1).toordinal()) / days


@dataclass(frozen=True)
class TimeSeries:
    """Immutable series of (decimal-year, value) samples.

    Timestamps must be finite and strictly increasing; values must be
    finite. Both arrays are stored read-only.
    """

    t: np.ndarray
    v: np.ndarray
    name: str = ""
    units: str = ""

    def __post_init__(self):
        # copies, so freezing them never freezes the caller's arrays
        t = np.array(self.t, dtype=float)
        v = np.array(self.v, dtype=float)
        if t.ndim != 1 or v.ndim != 1 or t.shape != v.shape:
            raise DomainError("t and v must be 1-d arrays of equal length")
        if t.size == 0:
            raise DomainError("series must contain at least one sample")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(v)):
            raise DomainError("timestamps and values must be finite")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise DomainError("timestamps must be strictly increasing")
        t.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "v", v)

    def __len__(self) -> int:
        return self.t.size

    def span(self) -> tuple[float, float]:
        return float(self.t[0]), float(self.t[-1])


@dataclass(frozen=True)
class LoessConfig:
    """Local regression settings: polynomial degree and span fraction.

    span is the fraction of the sample used in each local fit; span = 1.0
    means every point participates in every fit. The window must hold at
    least degree + 1 points or the local fit cannot be determined.
    """

    degree: int = 2
    span: float = 1.0

    def __post_init__(self):
        if self.degree not in (1, 2):
            raise DomainError("degree must be 1 or 2")
        if not (0.0 < self.span <= 1.0):
            raise DomainError("span must lie in (0, 1]")

    def window(self, n: int) -> int:
        q = int(math.ceil(self.span * n))
        if q < self.degree + 1:
            raise DomainError(
                f"span {self.span} over {n} points leaves {q} < degree+1 samples"
            )
        return min(q, n)


def _parse_timestamp(text: str) -> float | None:
    """ISO-8601 date or decimal year; None if neither parses."""
    s = text.strip()
    try:
        return decimal_year(_dt.date.fromisoformat(s))
    except ValueError:
        pass
    try:
        val = float(s)
    except ValueError:
        return None
    return val if math.isfinite(val) else None


def _parse_value(text: str) -> float | None:
    try:
        val = float(text.strip())
    except ValueError:
        return None
    return val if math.isfinite(val) else None


def load_csv(
    path,
    date_col: str = "date",
    value_col: str = "value",
    name: str = "",
    units: str = "",
) -> TimeSeries:
    """Read a two-column CSV of (date, value) rows into a TimeSeries.

    Dates may be ISO-8601 (``2009-01-01``) or decimal years (``2009.0``);
    the two may not be mixed with duplicate results. A header row is
    expected; if the first line already parses as data it is accepted as
    data. Rows may arrive unsorted and are sorted by timestamp. Errors
    carry 1-based line numbers.

    A plain file (the header ``date_col,value_col``, then only
    ``YYYY-MM-DD,number`` lines ending in LF or all in CRLF) is admitted
    by a few byte-level checks over the whole body and parsed as whole
    arrays; every other file goes through the row parser, with the same
    result.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ParseError("file is not valid UTF-8") from err
    columns = _iso_columns(text, date_col, value_col)
    ts, vs = columns if columns is not None else _row_columns(text, date_col, value_col)

    order = np.argsort(ts, kind="stable")
    t_arr = np.asarray(ts, dtype=float)[order]
    v_arr = np.asarray(vs, dtype=float)[order]
    dup = np.nonzero(np.diff(t_arr) == 0.0)[0]
    if dup.size:
        raise DuplicateTimestamp(f"timestamp {t_arr[dup[0]]!r} appears more than once")
    return TimeSeries(t_arr, v_arr, name=name or str(path), units=units)


# a column name that can be neither data nor whitespace-padded, so the
# header line alone fixes the date column at 0 and the value column at 1
_PLAIN_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TO_ZERO = bytes.maketrans(b"123456789", b"000000000")
# the 11 bytes "YYYY-MM-DD," of a date times _YMD, less "0000-00-00,"
# times _YMD, are its (year, month, day)
_YMD = np.zeros((11, 3))
_YMD[[0, 1, 2, 3, 5, 6, 8, 9], [0, 0, 0, 0, 1, 1, 2, 2]] = 1000, 100, 10, 1, 10, 1, 10, 1
_YMD_ZERO = np.frombuffer(b"0000-00-00,", np.uint8) @ _YMD
_LEAP = np.array([calendar.isleap(year) for year in range(10000)], dtype=np.int64)
# [leap, month] -> days in the month, and before it; months 0 and 13-99 have none
_MONTH_DAYS = np.zeros((2, 100), dtype=np.int64)
_MONTH_DAYS[:, :13] = calendar.mdays
_MONTH_DAYS[1, 2] = 29
_DAYS_BEFORE = np.cumsum(_MONTH_DAYS, axis=1) - _MONTH_DAYS


def _iso_columns(text: str, date_col: str, value_col: str):
    """(t, v) arrays in file order for a plain ISO file, else None.

    Matches `_row_columns` bit for bit wherever it answers; a file it
    cannot read exactly the same way (a year before 1, an invalid or
    non-finite entry, any other layout) gets None.
    """
    head, _, body = text.partition("\n")
    if not (
        _PLAIN_NAME.fullmatch(date_col)
        and _PLAIN_NAME.fullmatch(value_col)
        and date_col.lower() != value_col.lower()
        and head.strip().lower() == f"{date_col},{value_col}".lower()
        and body.isascii()
    ):
        return None
    # the whole body at once (ASCII, so encode() cannot fail): with the
    # bytes of numbers taken out, every line is a comma then LF, or every
    # one a comma then CRLF; every date is "DDDD-DD-DD", D a digit
    raw = body.encode() if body.endswith("\n") else body.encode() + b"\n"
    rows = raw.count(b"\n")
    rest = raw.translate(None, b"0123456789+-.eE")
    if rest != b",\n" * rows and rest != b",\r\n" * rows:
        return None
    cells = raw.replace(b",", b"\n").splitlines()  # date, value, date, ...
    dates = b",".join(cells[0::2]) + b","
    if dates.translate(_TO_ZERO) != b"0000-00-00," * rows:
        return None
    y, m, d = (np.frombuffer(dates, np.uint8).reshape(rows, 11) @ _YMD - _YMD_ZERO).astype(np.int64).T
    leap = _LEAP[y]
    if not np.all((y > 0) & (d > 0) & (d <= _MONTH_DAYS[leap, m])):
        return None
    try:
        v = np.array(cells[1::2], dtype=float)
    except ValueError:
        return None
    if not np.isfinite(v).all():
        return None
    return y + (_DAYS_BEFORE[leap, m] + d - 1) / (365 + leap), v


def _row_columns(text: str, date_col: str, value_col: str) -> tuple[list, list]:
    """(timestamps, values) in file order, parsed row by row with csv.

    Handles every accepted layout and raises ParseError with the 1-based
    line number of the first bad row.
    """
    rows = list(csv.reader(io.StringIO(text, newline="")))

    idx_date, idx_value = 0, 1
    start = 0
    first = next((r for r in rows if r), None)
    if first is None:
        raise EmptyFile()
    if len(first) >= 2 and _parse_timestamp(first[0]) is not None and _parse_value(first[1]) is not None:
        pass  # headerless file: first line is data
    else:
        header = [c.strip().lower() for c in first]
        if date_col.lower() in header:
            idx_date = header.index(date_col.lower())
        if value_col.lower() in header:
            idx_value = header.index(value_col.lower())
        start = rows.index(first) + 1

    ts, vs = [], []
    for line_no, row in enumerate(rows, start=1):
        if line_no <= start or not row:
            continue
        if len(row) <= max(idx_date, idx_value):
            raise ParseError(f"expected at least {max(idx_date, idx_value) + 1} columns", line=line_no)
        t = _parse_timestamp(row[idx_date])
        if t is None:
            raise ParseError(f"unparseable date {row[idx_date]!r}", line=line_no)
        v = _parse_value(row[idx_value])
        if v is None:
            raise ParseError(f"unparseable value {row[idx_value]!r}", line=line_no)
        ts.append(t)
        vs.append(v)

    if not ts:
        raise EmptyFile()
    return ts, vs


def _csv_text(header: str, columns) -> str:
    """The header line, then one line per row of the 1-d columns, each
    value written by repr so that reading it back loses nothing."""
    lists = [np.asarray(c).tolist() for c in columns]
    line = ",".join(["%r"] * len(lists)) + "\n"
    return header + "\n" + "".join([line % row for row in zip(*lists)])


def save_csv(ts: TimeSeries, path) -> None:
    """Write a TimeSeries as ``date,value`` rows (decimal years, full precision)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_text("date,value", (ts.t, ts.v)))


def interp_linear(ts: TimeSeries, t):
    """Linearly interpolate the series at time(s) t.

    Exact at the sample timestamps. Raises OutOfRange rather than
    extrapolating, and on a NaN time. Scalar in, scalar out; array in,
    array out. Where the slope between two samples overflows, the value
    is their weighted mean instead; DomainError if that rounds beyond
    the float range.
    """
    t_arr = np.asarray(t, dtype=float)
    if ts.t.size < 2 and np.any(t_arr != ts.t[0]):
        raise OutOfRange("need at least two samples to interpolate")
    lo, hi = ts.t[0], ts.t[-1]
    inside = (t_arr >= lo) & (t_arr <= hi)  # False for NaN
    if not np.all(inside):
        bad = t_arr[~inside]
        raise OutOfRange(
            f"t={np.atleast_1d(bad)[0]} outside sampled range [{lo}, {hi}]"
        )
    out = np.interp(t_arr, ts.t, ts.v)
    if not np.isfinite(out).all():  # the slope overflowed
        j = np.clip(np.searchsorted(ts.t, t_arr, side="right") - 1, 0, ts.t.size - 2)
        w = (t_arr - ts.t[j]) / (ts.t[j + 1] - ts.t[j])
        out = np.where(np.isfinite(out), out, (1.0 - w) * ts.v[j] + w * ts.v[j + 1])
        if not np.isfinite(out).all():
            raise DomainError("interp_linear: an interpolated value exceeds the float range")
    return scalar(out)


# float64 elements in one block of gathered windows (64 KiB); bounds the
# temporaries of loess_smooth
_LOESS_BLOCK = 1 << 13


def _window_starts(t: np.ndarray, q: int) -> np.ndarray:
    """Start lo of each point's window [lo, lo+q) of its q nearest points.

    t is strictly increasing, so the window is contiguous. It moves right
    past lo while t[lo+q] is strictly nearer than t[lo]; on equal
    distances the left point stays, as in a stable argsort of |t - t[i]|.
    The test is monotone in lo, so all windows come from one vectorized
    binary search over lo in [max(0, i-q+1), min(i, n-q)].
    """
    n = t.size
    i = np.arange(n)
    lo = np.maximum(i - q + 1, 0)
    hi = np.minimum(i, n - q)  # the window always fits at hi
    while np.any(lo < hi):
        mid = (lo + hi) // 2  # below hi, so t[mid + q] exists, unless lo == hi
        stay = (lo == hi) | (t[np.minimum(mid + q, n - 1)] - t[i] >= t[i] - t[mid])
        hi = np.where(stay, mid, hi)
        lo = np.where(stay, lo, mid + 1)
    return lo


def loess_smooth(ts: TimeSeries, config: LoessConfig = LoessConfig()) -> TimeSeries:
    """LOESS smoothing: local weighted polynomial fit at every sample point.

    For each target point the window holds the ceil(span*n) nearest
    neighbours by time distance (on equal distances the earlier point);
    weights are tricube in distance scaled by the window radius. Output
    timestamps equal the input timestamps. Polynomials of degree <=
    config.degree are reproduced exactly (up to rounding).

    Computed as arrays (Cleveland, JASA 74, 1979): each window is a
    contiguous range, found for all points by one binary search. Each
    local fit is solved from its weighted moments in radius-scaled
    coordinates u = (t_j - t_i)/radius in [-1, 1] by one batched solve of
    the (degree+1)-square normal equations, and the fitted value is the
    intercept. Windows are gathered in blocks of about 8K elements, so
    memory stays bounded at any span. A fit whose moment matrix has rank
    below degree+1 by matrix_rank's rule (eigenvalues above
    (degree+1)*eps of the largest) raises SingularFit: every window with
    fewer than degree+1 points of positive weight, and any whose normal
    equations are singular to working precision.
    """
    n = len(ts)
    q = config.window(n)
    k = config.degree + 1
    t = ts.t
    starts = _window_starts(t, q)
    t_win, v_win = sliding_window_view(t, q), sliding_window_view(ts.v, q)
    moments = np.empty((n, 2 * k - 1))  # sum of w * u**p
    rhs = np.empty((n, k))  # sum of w * u**p * v
    rows = max(1, _LOESS_BLOCK // q)
    for first in range(0, n, rows):
        i = slice(first, first + rows)
        lo = starts[i]
        u = t_win[lo] - t[i, None]
        u /= np.maximum(u[:, -1], -u[:, 0])[:, None]  # the radius
        c = np.minimum(np.abs(u), 1.0)
        c = 1.0 - c * c * c
        w = c * c * c  # tricube
        v = v_win[lo]
        for p in range(2 * k - 1):
            if p:
                w *= u
            moments[i, p] = w.sum(axis=1)
            if p < k:
                rhs[i, p] = np.einsum("ij,ij->i", w, v)
    lhs = moments[:, np.add.outer(np.arange(k), np.arange(k))]
    rank = np.linalg.matrix_rank(lhs, hermitian=True)
    if np.any(rank < k):
        bad = int(np.argmax(rank < k))
        raise SingularFit(f"local fit at t={t[bad]} has rank {rank[bad]} < {k}")
    out = np.linalg.solve(lhs, rhs[:, :, None])[:, 0, 0]
    return TimeSeries(t, out, name=ts.name, units=ts.units)


def log_growth(ts: TimeSeries) -> TimeSeries:
    """Instantaneous fractional growth rate per year from log differences.

    Centred differences of log(v) in the interior, one-sided at the two
    endpoints; division by the timestamp gap annualizes. Exact for
    exponentials on any grid. Values must be positive.
    """
    if len(ts) < 2:
        raise DomainError("growth rate needs at least two samples")
    if np.any(ts.v <= 0.0):
        raise DomainError("log growth undefined for non-positive values")
    logv = np.log(ts.v)
    g = np.empty(len(ts))
    g[0] = (logv[1] - logv[0]) / (ts.t[1] - ts.t[0])
    g[-1] = (logv[-1] - logv[-2]) / (ts.t[-1] - ts.t[-2])
    if len(ts) > 2:
        g[1:-1] = (logv[2:] - logv[:-2]) / (ts.t[2:] - ts.t[:-2])
    return TimeSeries(ts.t, g, name=ts.name, units="1/yr")


def align(a: TimeSeries, b: TimeSeries, grid) -> list[tuple[float, float, float]]:
    """Sample two series on a common grid by linear interpolation.

    Returns [(t, a(t), b(t)), ...]. Raises OutOfRange if the grid leaves
    either series' sampled span.
    """
    grid = np.asarray(grid, dtype=float)
    va = interp_linear(a, grid)
    vb = interp_linear(b, grid)
    return [(float(t), float(x), float(y)) for t, x, y in zip(grid, va, vb)]
