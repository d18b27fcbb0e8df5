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
    ``YYYY-MM-DD,number`` lines) is parsed as whole arrays; every other
    file goes through the row parser, with the same result.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
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
# one data line; a body is checked a line at a time, so rejecting it
# costs no more than accepting it and stops at the first bad line
_ISO_LINE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2},[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\r?"
)


def _iso_columns(text: str, date_col: str, value_col: str):
    """(t, v) arrays in file order for a plain ISO file, else None.

    Matches `_row_columns` bit for bit wherever it answers; a file it
    cannot read exactly the same way (a year before 1, an invalid or
    non-finite entry, any other layout) gets None.
    """
    head, _, body = text.partition("\n")
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()  # the final newline
    if not (
        _PLAIN_NAME.fullmatch(date_col)
        and _PLAIN_NAME.fullmatch(value_col)
        and date_col.lower() != value_col.lower()
        and head.strip().lower() == f"{date_col},{value_col}".lower()
        and lines
        and all(map(_ISO_LINE.fullmatch, lines))
    ):
        return None
    cells = body.replace(",", "\n").split()
    try:
        days = np.array(cells[0::2], dtype="datetime64[D]")
        v = np.array(cells[1::2], dtype=float)
    except ValueError:
        return None
    years = days.astype("datetime64[Y]")
    jan1 = years.astype("datetime64[D]")
    year = years.astype(np.int64) + 1970
    if year.min() < 1 or not np.all(np.isfinite(v)):
        return None
    length = ((years + 1).astype("datetime64[D]") - jan1).astype(np.int64)
    return year + (days - jan1).astype(np.int64) / length, v


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
    array out.
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
    return scalar(np.interp(t_arr, ts.t, ts.v))


def _tricube(u: np.ndarray) -> np.ndarray:
    w = np.clip(np.abs(u), 0.0, 1.0)
    return (1.0 - w**3) ** 3


def loess_smooth(ts: TimeSeries, config: LoessConfig = LoessConfig()) -> TimeSeries:
    """LOESS smoothing: local weighted polynomial fit at every sample point.

    For each target point the window holds the ceil(span*n) nearest
    neighbours by time distance; weights are tricube in distance scaled by
    the window radius. The local basis is centred on the target so the
    fitted value is the intercept. Output timestamps equal the input
    timestamps. Polynomials of degree <= config.degree are reproduced
    exactly (up to rounding).
    """
    n = len(ts)
    q = config.window(n)
    out = np.empty(n)
    for i in range(n):
        d = np.abs(ts.t - ts.t[i])
        idx = np.argsort(d, kind="stable")[:q]
        radius = d[idx[-1]]
        if radius == 0.0:
            raise SingularFit("window radius is zero")
        w = _tricube(d[idx] / radius)
        pos = w > 0.0
        x = ts.t[idx][pos] - ts.t[i]
        y = ts.v[idx][pos]
        sw = np.sqrt(w[pos])
        cols = [np.ones_like(x)]
        for p in range(1, config.degree + 1):
            cols.append(x**p)
        design = np.column_stack(cols) * sw[:, None]
        beta, _, rank, _ = np.linalg.lstsq(design, y * sw, rcond=None)
        if rank < config.degree + 1:
            raise SingularFit(
                f"local fit at t={ts.t[i]} has rank {rank} < {config.degree + 1}"
            )
        out[i] = beta[0]
    return TimeSeries(ts.t, out, name=ts.name, units=ts.units)


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
