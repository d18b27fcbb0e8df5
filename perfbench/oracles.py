"""Output oracles for the benchmark workloads.

Every check here recomputes the expected output with plain numpy from the
raw input files, without importing or calling infoeq, so a defect in the
code being timed cannot hide in its own reference. Each check returns
None when the output is accepted and a one-line reason when it is not.

Tolerances:

- REL_TOL (1e-9, relative) for values recomputed from closed forms. The
  library and the oracles evaluate the same formulas in a different
  order, which costs at most ~1e-13 relative here; a change of 1e-6 in
  any checked value is still flagged with three orders of margin.
- LOESS values are compared to 1e-9 of the largest |y| in the local
  window, since the local fits are solved in a different basis; the
  smallest |value| / largest |y| ratio on the bundled series is about
  1/500, so a 1e-6 relative change is still two orders above tolerance.
- A value that is a sum or difference of much larger terms (an ensemble
  <a> of mixed-sign indices, a growth rate near 0) carries the rounding
  of those terms. Its scale is floored at the size of the terms (for
  growth rates, 1e-3 of it), so only that rounding is forgiven.
- A fit's f_star may undercut the objective at x0 by any amount but
  exceed it by no more than REL_TOL.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math

import numpy as np

REL_TOL = 1e-9


def _close(a, b, rel=REL_TOL, scale=None, floor=0.0):
    """Elementwise |a - b| <= rel * max(scale, floor), scale defaulting to max(|a|, |b|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if scale is None:
        scale = np.maximum(np.abs(a), np.abs(b))
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(np.maximum(scale, floor), 1e-300)))


def _worst(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return float(np.max(rel))


# --- raw inputs, parsed independently of infoeq.timeseries ------------------


def decimal_year(text: str) -> float:
    """ISO date or decimal year to decimal year (leap-aware day count)."""
    s = text.strip()
    try:
        d = dt.date.fromisoformat(s)
    except ValueError:
        return float(s)
    days = 366.0 if dt.date(d.year, 12, 31).timetuple().tm_yday == 366 else 365.0
    return d.year + (d.timetuple().tm_yday - 1) / days


def read_series(path) -> tuple[np.ndarray, np.ndarray]:
    """(t, v) of a date,value CSV with a header, sorted by t."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r][1:]
    t = np.array([decimal_year(r[0]) for r in rows])
    v = np.array([float(r[1]) for r in rows])
    order = np.argsort(t, kind="stable")
    return t[order], v[order]


def read_params(path) -> dict[str, float]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            text = raw.split("#", 1)[0].strip()
            if text:
                key, _, value = text.partition("=")
                out[key.strip()] = float(value)
    return out


def read_table(text: str, header: str) -> np.ndarray | str:
    """Parse CLI CSV output into a float array, or return a reason."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return f"header {lines[0] if lines else ''!r} != {header!r}"
    try:
        return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return f"unparseable output: {exc}"


# --- ensemble -----------------------------------------------------------------


def ensemble_run(seed: int, run: int, n0: int, a_mean: float, a_sd: float, m_grid):
    """(avg_a, avg_n, avg_price) of one run by logsumexp over log weights,
    plus <|a|>, the size of the terms that avg_a sums."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(run,)))
    a = rng.normal(a_mean, a_sd, n0)
    logw = -np.outer(np.log(m_grid), a)  # (grid, markets)
    top = logw.max(axis=1, keepdims=True)
    log_z = top[:, 0] + np.log(np.exp(logw - top).sum(axis=1))
    probs = np.exp(logw - log_z[:, None])
    avg_n = n0 * n0 * np.exp(-log_z)
    avg_price = a.sum() * np.exp(-log_z) / m_grid
    return probs @ a, avg_n, avg_price, probs @ np.abs(a)


def check_ensemble(text: str, seed: int, runs: int, n0: int, a_mean: float, a_sd: float, m_grid):
    """Every run of the output against its own SeedSequence draw."""
    table = read_table(text, "run,m,avg_a,avg_n,avg_price")
    if isinstance(table, str):
        return table
    if table.shape != (runs * m_grid.size, 5):
        return f"shape {table.shape} != {(runs * m_grid.size, 5)}"
    if not np.array_equal(table[:, 0], np.repeat(np.arange(runs), m_grid.size)):
        return "run column out of order"
    if not _close(table[:, 1], np.tile(m_grid, runs)):
        return "m column differs from the grid"
    for run in range(runs):
        avg_a, avg_n, avg_price, size_a = ensemble_run(seed, run, n0, a_mean, a_sd, m_grid)
        got = table[run * m_grid.size : (run + 1) * m_grid.size, 2:]
        want = np.column_stack([avg_a, avg_n, avg_price])
        floor = np.column_stack([size_a, np.zeros_like(avg_n), np.zeros_like(avg_price)])
        if not _close(got, want, floor=floor):
            return f"run {run} differs from logsumexp recomputation by {_worst(got, want):.3g} rel"
    return None


# --- smooth -------------------------------------------------------------------


def loess_at(t, v, i: int, span: float, degree: int) -> tuple[float, float]:
    """Brute-force LOESS value at t[i] and the |y| scale of its window.

    The window is the ceil(span*n) nearest points by |t - t[i]| with a
    stable argsort, so on equal distances the earlier (left) point wins.
    """
    n = t.size
    q = min(int(math.ceil(span * n)), n)
    d = np.abs(t - t[i])
    idx = np.argsort(d, kind="stable")[:q]
    radius = d[idx[-1]]
    u = np.clip(d[idx] / radius, 0.0, 1.0)
    w = (1.0 - u**3) ** 3
    keep = w > 0.0
    x = (t[idx][keep] - t[i]) / radius
    y = v[idx][keep]
    sw = np.sqrt(w[keep])
    design = np.vander(x, degree + 1, increasing=True) * sw[:, None]
    beta = np.linalg.lstsq(design, y * sw, rcond=None)[0]
    return float(beta[0]), float(np.max(np.abs(y)))


def check_smooth(text: str, t, v, span: float, degree: int, sample) -> str | None:
    table = read_table(text, "date,value")
    if isinstance(table, str):
        return table
    if table.shape != (t.size, 2):
        return f"shape {table.shape} != {(t.size, 2)}"
    if not np.array_equal(table[:, 0], t):
        return "timestamps differ from the input"
    for i in sample:
        want, scale = loess_at(t, v, int(i), span, degree)
        if not _close(table[i, 1], want, scale=scale):
            return f"point {i}: {table[i, 1]!r} != brute force {want!r}"
    return None


# --- calibrate ----------------------------------------------------------------


def price_level(n, m, alpha, gamma, m0):
    c = gamma * m0
    k = np.log(n / c) / np.log(m / c)
    return alpha * k * np.exp((k - 1.0) * np.log(m / m0))


def interest_rate(n, m, k_i, k_p):
    return np.exp((np.log(n / m) - math.log(k_p)) / k_i)


def cobb_douglas(k, l, a, k1, k2):
    return a * np.exp(k1 * np.log(k) + k2 * np.log(l))


def _ssr_log(model, data) -> float:
    r = np.log(model) - np.log(data)
    return float(r @ r)


def fit_objective(model: str, x, series: dict) -> float:
    """Sum of squared log residuals of a fit model at parameters x."""
    if model == "price-level":
        return _ssr_log(price_level(series["n"], series["m"], *x), series["p"])
    if model == "interest":
        k_i, k_p = x
        return _ssr_log(interest_rate(series["n"], series["mlong"], k_i, k_p), series["rlong"]) + _ssr_log(
            interest_rate(series["n"], series["mshort"], k_i, k_p), series["rshort"]
        )
    return _ssr_log(cobb_douglas(series["k"], series["l"], *x), series["n"])


PARAM_NAMES = {
    "price-level": ("alpha", "gamma", "M0"),
    "interest": ("k_i", "k_p"),
    "cobb-douglas": ("A", "k1", "k2"),
}


def cobb_douglas_lstsq(series: dict) -> tuple[np.ndarray, float]:
    """(A, k1, k2) and its objective from lstsq on logs."""
    design = np.column_stack([np.ones_like(series["k"]), np.log(series["k"]), np.log(series["l"])])
    beta = np.linalg.lstsq(design, np.log(series["n"]), rcond=None)[0]
    x = np.array([math.exp(beta[0]), beta[1], beta[2]])
    return x, fit_objective("cobb-douglas", x, series)


def check_fit(text: str, model: str, series: dict, x0) -> str | None:
    """series holds the inputs already interpolated onto the fit grid."""
    try:
        report = json.loads(text)
        x = np.array([report["parameters"][k] for k in PARAM_NAMES[model]], dtype=float)
        f_star = float(report["f_star"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if report.get("converged") is not True:
        return "report says not converged"
    if not np.all(np.isfinite(x)):
        return "non-finite parameters"
    f_at_x = fit_objective(model, x, series)
    if not _close(f_star, f_at_x):
        return f"f_star {f_star!r} != objective at parameters {f_at_x!r}"
    if x0 is None:
        x0, f_ls = cobb_douglas_lstsq(series)
        if not _close(f_star, f_ls, rel=1e-8):
            return f"f_star {f_star!r} != lstsq optimum {f_ls!r}"
    f_x0 = fit_objective(model, x0, series)
    if f_star > f_x0 * (1.0 + REL_TOL):
        return f"f_star {f_star!r} worse than x0 objective {f_x0!r}"
    return None


# --- evaluate -----------------------------------------------------------------


GROWTH_FLOOR = 1e-3


def _centred(t, x, combine):
    """combine(x[i+1], x[i-1]) / (t[i+1] - t[i-1]), one-sided at the ends."""
    out = np.empty_like(x)
    out[0] = combine(x[1], x[0]) / (t[1] - t[0])
    out[-1] = combine(x[-1], x[-2]) / (t[-1] - t[-2])
    out[1:-1] = combine(x[2:], x[:-2]) / (t[2:] - t[:-2])
    return out


def eval_series(model: str, grid, series: dict, params: dict):
    """([expected value column], scale floor) of `infoeq eval <model>` on grid.

    series maps input names to raw (t, v) pairs; interpolation is linear.
    """
    at = {name: np.interp(grid, *tv) for name, tv in series.items()}
    if model in ("price-level", "inflation"):
        p = price_level(at["n"], at["m"], params["alpha"], params["gamma"], params["M0"])
        if model == "price-level":
            return [p], 0.0
        log_p = np.log(p)
        return [_centred(grid, log_p, np.subtract)], GROWTH_FLOOR * _centred(grid, np.abs(log_p), np.add)
    if model == "interest":
        return [interest_rate(at["n"], at["m"], params["k_i"], params["k_p"])], 0.0
    if model == "okun":
        return [at["n"] / at["p"] / params["k_H"]], 0.0
    return [cobb_douglas(at["k"], at["l"], params["A"], params["k1"], params["k2"])], 0.0


def adas_columns(x, n0, s0, k_a, n_ref, s_ref):
    ad = n0 / (k_a * s_ref) * np.exp(-k_a * x / n0)
    sras = n_ref / (k_a * s0) * np.exp(x / (k_a * s0))
    return ad, sras


def islm_columns(x, n0, m_ref, s_ref, k_p, k_s, k_i, delta_m):
    lm = (n0 / (k_p * m_ref) * np.exp(-k_p * (x + delta_m) / n0)) ** (1.0 / k_i)
    is_ = (n0 / (k_s * s_ref) * np.exp(-k_s * x / n0)) ** (1.0 / k_i)
    return lm, is_


def check_columns(text: str, header: str, grid, columns, floor=0.0) -> str | None:
    """Output must be the grid followed by the expected columns, to REL_TOL.

    floor is a scalar or one value per row.
    """
    table = read_table(text, header)
    if isinstance(table, str):
        return table
    want = np.column_stack([grid, *columns])
    if table.shape != want.shape:
        return f"shape {table.shape} != {want.shape}"
    if not _close(table, want, floor=np.reshape(floor, (-1, 1))):
        return f"{header}: differs from closed form by {_worst(table, want):.3g} rel"
    return None
