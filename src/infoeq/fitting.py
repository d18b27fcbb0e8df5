"""Least-squares fitting for the model families.

All three models are linear in logs once the slowly varying index is
fixed, so the interest rate and Cobb-Douglas fits are exact linear least
squares over their boxes in transformed parameters, each solved as a
least-distance problem on the design's triangular factor. The price
level is separable (variable projection, Golub & Pereyra, SIAM J.
Numer. Anal. 10(2), 1973): `minimize` searches the one scale c =
gamma*m0, and at each c an exact two-variable solve gives (alpha, m0).

`minimize` is Powell's direction-set search (Comput. J. 7, 1964): cyclic
line minimizations along a direction set that starts as the coordinate
axes, with the largest-decrease direction replaced by the cycle's net
displacement when that passes the standard acceptance test, and the set
restarted to the axes every n**2 line searches. A line search brackets a
minimum by probes of its direction's step scale and doubling, then runs
Brent's golden section with parabolic steps (Algorithms for Minimization
without Derivatives, 1973, ch. 5). Each direction slot keeps the size of
the step its last line search took, never below tol, as Brent's praxis
does (ibid., ch. 7): it starts at 1 in |x0|-scaled units, and the
displacement's search starts from the displacement's length, so a cycle
that only confirms a minimum probes within about tol of it. Box bounds
clip the step interval, never a penalty, so model domain errors are
unreachable during a search whose box is safe.

Everything here is deterministic: the same problem yields the same
FitResult bit-for-bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._checks import positive
from .errors import DomainError, ModelDomainError, RankDeficient
from .macro import (
    CobbDouglasParams,
    InterestParams,
    PriceLevelParams,
    cobb_douglas,
    interest_rate,
    price_level,
)
from .timeseries import TimeSeries, interp_linear

__all__ = [
    "FitProblem",
    "FitResult",
    "minimize",
    "fit_price_level",
    "fit_interest",
    "fit_cobb_douglas",
    "cobb_douglas_loglinear",
    "fit_report",
]

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
# a search whose point reaches this in scaled or in original units has run
# off to the edge of the float range: it stops unconverged, before points,
# their differences or the objective's argument overflow
_EDGE = float(np.finfo(float).max) / 4.0


@dataclass(frozen=True)
class FitProblem:
    """Objective plus box and starting point.

    tol sets both each line search's Brent tolerance, tol/3 + sqrt(eps)*|t|
    on the step t, and the convergence test (parameter displacement and
    objective decrease below tol on two consecutive cycles), measured on
    parameters scaled by |x0|.
    """

    objective: object
    x0: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    names: tuple[str, ...] = ()
    tol: float = 1e-8
    max_iter: int = 10_000

    def __post_init__(self):
        size = np.size(self.x0)
        names = tuple(self.names) if self.names else tuple(f"x{i}" for i in range(size))
        if size == 0 or len(names) != size:
            raise DomainError("x0 must be non-empty and match names in length")
        inf = np.full(size, np.inf)
        bounds = (-inf if self.lower is None else self.lower, inf if self.upper is None else self.upper)
        x0, lower, upper = _box(self.x0, bounds, None, names, [False] * size)
        positive(self.tol, "tol")
        if int(self.max_iter) < 1:
            raise DomainError("max_iter must be at least 1")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "names", names)


@dataclass(frozen=True)
class FitResult:
    """Fit output. f_star never exceeds the objective at x0; for the model
    fits it is residuals @ residuals at x, and at_bound names the
    parameters that end on a bound of the box."""

    x: np.ndarray
    f_star: float
    iterations: int
    converged: bool
    names: tuple[str, ...] = ()
    residuals: np.ndarray | None = None
    at_bound: tuple[str, ...] = ()

    def params(self) -> dict[str, float]:
        return {name: float(v) for name, v in zip(self.names, self.x)}


def _brent(g, a, b, x, gx, tol):
    """Minimize g on [a, b] from its best point so far x, g(x) = gx, by
    Brent's parabolic steps with a golden-section fallback (Brent 1973,
    ch. 5) until a and b lie within 2*tol1 of x, tol1 = sqrt(eps)*|x| +
    tol/3. Returns the best (t, g(t)) seen."""
    w = v = x
    gw = gv = gx
    d = e = 0.0
    while True:
        tol1 = _SQRT_EPS * abs(x) + tol / 3.0
        if max(x - a, b - x) <= 2.0 * tol1:
            return x, gx
        mid = 0.5 * (a + b)
        p = q = r = 0.0
        if abs(e) > tol1:
            r = (x - w) * (gx - gv)
            q = (x - v) * (gx - gw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if min(x + d - a, b - x - d) < 2.0 * tol1:
                d = tol1 if x < mid else -tol1
        else:
            e = (b if x < mid else a) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        gu = g(u)
        if gu <= gx:
            a, b = (a, x) if u < x else (x, b)
            v, gv, w, gw, x, gx = w, gw, x, gx, u, gu
        else:
            a, b = (u, b) if u < x else (a, u)
            if gu <= gw or w == x:
                v, gv, w, gw = w, gw, u, gu
            elif gu <= gv or v == x or v == w:
                v, gv = u, gu


def _line_min(f, x, d, fx, lo, hi, tol, step):
    """Minimize f along x + t*d inside the box. Never accepts an increase.

    Probes t = step then -step (clipped to the box) and doubles the first
    step that goes downhill until f rises or the box ends; with no downhill
    probe the probes bracket t = 0. Brent then searches the bracket.
    Returns the new point, f there and the step t taken (0 if none)."""
    on = d != 0.0
    with np.errstate(over="ignore"):  # a limit beyond the float range is none
        span = np.sort([(lo - x)[on] / d[on], (hi - x)[on] / d[on]], axis=0)
    t_lo, t_hi = float(span[0].max()), float(span[1].min())
    if not t_lo < t_hi:
        return x, fx, 0.0

    def g(t):
        return f(x + t * d)

    t0, t1, g1 = 0.0, 0.0, fx
    for t in (min(step, t_hi), max(-step, t_lo)):
        if t != 0.0 and (gt := g(t)) < fx:
            t1, g1 = t, gt
            break
    if t1 == 0.0:
        a, b = max(-step, t_lo), min(step, t_hi)
    else:
        t2 = min(max(2.0 * t1, t_lo), t_hi)
        while math.isfinite(t2) and t2 != t1 and (g2 := g(t2)) < g1:
            t0, t1, g1 = t1, t2, g2
            t2 = min(max(2.0 * t1, t_lo), t_hi)
        a, b = sorted((t0, t2 if math.isfinite(t2) else t1))
    t, gt = _brent(g, a, b, t1, g1, tol)
    return (x + t * d, gt, t) if gt < fx else (x, fx, 0.0)


def minimize(problem: FitProblem) -> FitResult:
    """Principal-axis search over the problem box. Deterministic. A search
    that runs off to the edge of the float range stops unconverged."""
    scale = np.where(np.abs(problem.x0) > 0.0, np.abs(problem.x0), 1.0)
    reach = _EDGE / np.maximum(scale, 1.0)  # |z| and |z * scale| stay <= _EDGE
    lo = np.maximum(problem.lower / scale, -reach)
    hi = np.minimum(problem.upper / scale, reach)

    def f(z):
        return float(problem.objective(z * scale))

    n = problem.x0.size
    z = problem.x0 / scale
    fz = f(z)
    dirs = np.eye(n)
    steps = [1.0] * n  # Python floats: numpy scalars would warn on overflow near the edge
    line_searches = 0
    quiet_cycles = 0
    tol = problem.tol
    iterations = 0
    converged = False

    for iterations in range(1, int(problem.max_iter) + 1):
        if line_searches >= n * n:
            # periodic restart; applied at cycle boundaries so a freshly
            # accepted displacement direction survives its own cycle
            dirs = np.eye(n)
            line_searches = 0
        z_old, f_old = z.copy(), fz
        biggest_drop, biggest_idx = 0.0, 0
        f_prev = f_old
        for i in range(n):
            z, fz, t = _line_min(f, z, dirs[i], fz, lo, hi, tol, steps[i])
            steps[i] = max(abs(t), tol)
            drop = f_prev - fz
            f_prev = fz
            if drop > biggest_drop:
                biggest_drop, biggest_idx = drop, i
            line_searches += 1
        if np.any(np.abs(z) >= reach):
            break
        displacement = z - z_old
        peak = float(np.max(np.abs(displacement)))
        if peak > 0.0:
            # scaled by a power of two, so exactly displacement / |displacement|
            # without the norm overflowing
            power = math.frexp(peak)[1]
            unit = np.ldexp(displacement, -power)
            length = float(np.linalg.norm(unit))
            unit /= length
            extrapolated = np.clip(2.0 * z - z_old, lo, hi)
            f_ext = f(extrapolated)
            if f_ext < f_old:
                test = (
                    2.0 * (f_old - 2.0 * fz + f_ext) * (f_old - fz - biggest_drop) ** 2
                    - biggest_drop * (f_old - f_ext) ** 2
                )
                if test < 0.0:
                    dirs[biggest_idx] = unit
                    z, fz, t = _line_min(f, z, unit, fz, lo, hi, tol, length * 2.0**power)
                    steps[biggest_idx] = max(abs(t), tol)
                    line_searches += 1
        if np.any(np.abs(z) >= reach):
            break
        if float(np.max(np.abs(z - z_old))) < tol and (f_old - fz) < tol:
            quiet_cycles += 1
            if quiet_cycles >= 2:
                converged = True
                break
        else:
            quiet_cycles = 0

    return FitResult(
        x=z * scale,
        f_star=fz,
        iterations=iterations,
        converged=converged,
        names=problem.names,
    )


def _lsq(design, target, g, h) -> np.ndarray:
    """Exact minimiser x of |design @ x - target|**2 subject to g @ x <= h.

    Rows with a non-finite entry come from a bound of 0 or inf and
    constrain nothing, so they are dropped. With design = QR and b the
    unconstrained minimiser, y = R(x - b) leaves the least-distance problem
    min |y|**2 subject to A y <= c, A = g R^-1, c = h - g b (Lawson & Hanson
    1974, ch. 23). Its solution is the minimum-norm solution on its active
    rows, hence the feasible one of least |y| among those on all sets of at
    most n rows, one batched pinv per set size. No set needs a rank test: a
    dependent set's point, when feasible, cannot beat the optimum.
    """
    n = design.shape[1]
    q, r = np.linalg.qr(design)
    s = np.linalg.svd(r, compute_uv=False)  # design's singular values, tested by matrix_rank's rule
    if s.size < n or not s[-1] > s[0] * max(design.shape) * np.finfo(float).eps:
        raise RankDeficient("constant or collinear regressors leave the parameters unidentified")
    keep = np.all(np.isfinite(g), axis=1) & np.isfinite(h)
    g, h = g[keep], h[keep]
    slack = 1e-10 * (1.0 + np.abs(h))
    b = np.linalg.solve(r, q.T @ target)
    if np.all(g @ b <= h + slack):
        return b  # the unconstrained minimiser is feasible
    r_inv = np.linalg.inv(r)
    a, c = g @ r_inv, h - g @ b
    best, best_f = None, math.inf
    for size in range(1, min(n, h.size) + 1):
        rows = np.array(list(itertools.combinations(range(h.size), size)))
        y = (np.linalg.pinv(a[rows]) @ c[rows, None])[..., 0]
        x = b + y @ r_inv.T
        with np.errstate(over="ignore"):  # |y|**2 beyond the float range is never the least
            f = np.where(np.all(x @ g.T <= h + slack, axis=1), np.sum(y * y, axis=1), math.inf)
        if f.min() < best_f:  # argmin takes the first of a tie, as combinations orders the sets
            best, best_f = x[f.argmin()], f.min()
    if best is None:
        raise DomainError("no point of the box solves the least squares to working precision")
    return best


def _box_rows(lower, upper):
    """(g, h) such that g @ b <= h is lower <= b <= upper."""
    eye = np.eye(len(lower))
    return np.vstack([-eye, eye]), np.concatenate([-np.asarray(lower), upper])


def _box(x0, bounds, default, names, positive):
    """Validated (x0, lower, upper) as float arrays.

    default(x0) gives the box used when bounds is None. Parameters
    flagged in positive must start positive, and their bounds must not
    be negative.
    """
    positive = np.array(positive)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != positive.shape or not np.all(np.isfinite(x0)) or np.any(x0[positive] <= 0.0):
        spec = ", ".join(f"{name} > 0" if pos else name for name, pos in zip(names, positive))
        raise DomainError(f"x0 must be finite ({spec})")
    lower, upper = default(x0) if bounds is None else (np.asarray(b, dtype=float) for b in bounds)
    if lower.shape != x0.shape or upper.shape != x0.shape:
        raise DomainError("bounds must match x0 in shape")
    if not np.all(lower <= upper):
        raise DomainError("lower bound exceeds upper bound")
    if np.any(x0 < lower) or np.any(x0 > upper):
        raise DomainError("x0 must lie inside the bounds")
    if np.any(lower[positive] < 0.0):
        raise DomainError(f"bounds on {', '.join(np.array(names)[positive])} must not be negative")
    return x0, lower, upper


def _logs(*values):
    """Natural logs of data, which the log transform requires to be positive."""
    if any(np.any(v <= 0.0) for v in values):
        raise DomainError("log transform requires positive data")
    return [np.log(v) for v in values]


def _prepare(ts: TimeSeries, grid) -> np.ndarray:
    return np.asarray(interp_linear(ts, grid), dtype=float)


def _default_bounds(x0: np.ndarray, spread: float = 5.0):
    return x0 / spread, x0 * spread


def _result(x, lower, upper, names, residuals, iterations=1, converged=True) -> FitResult:
    """FitResult of the parameters x, already clipped into [lower, upper].

    A parameter within the solver's feasibility slack (1e-10 relative)
    of a bound counts as on it: the exact solve puts an active bound
    there only to rounding.
    """
    on = np.isclose(x, lower, rtol=1e-10, atol=0.0) | np.isclose(x, upper, rtol=1e-10, atol=0.0)
    at_bound = tuple(name for name, hit in zip(names, on) if hit)
    return FitResult(x, float(residuals @ residuals), iterations, converged, names, residuals, at_bound)


def fit_price_level(
    n_ts: TimeSeries,
    m_ts: TimeSeries,
    p_ts: TimeSeries,
    grid,
    x0,
    bounds=None,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> FitResult:
    """Fit (alpha, gamma, m0) of the price level to a deflator series.

    Residuals are taken in log space. For a fixed c = gamma*m0 the log
    price level is linear in (log alpha, log m0), so `minimize` (with tol
    and max_iter) searches c alone and each step solves a box in
    (log alpha, log m0) exactly, the m0 interval intersected with
    [c/upper_gamma, c/lower_gamma]. c stays below the smallest aggregate
    on the grid so that the index is defined; explicit bounds that admit
    a larger gamma*m0 are rejected.
    """
    grid = np.asarray(grid, dtype=float)
    n = _prepare(n_ts, grid)
    m = _prepare(m_ts, grid)
    p = _prepare(p_ts, grid)
    names = ("alpha", "gamma", "M0")
    x0, lower, upper = _box(x0, bounds, _default_bounds, names, (True, True, True))
    if np.any(lower <= 0.0):
        raise DomainError("price level bounds must be positive")
    ln_n, ln_m, ln_p = _logs(n, m, p)

    # keep the k_index logs positive for every admissible c
    cap = float(min(np.min(n), np.min(m))) * math.exp(-0.05)
    if x0[1] * x0[2] >= cap:
        raise ModelDomainError("gamma*m0 at x0 is too close to the data scale")
    c_hi = upper[1] * upper[2]
    if bounds is not None and c_hi > cap:
        raise ModelDomainError("bounds admit gamma*m0 beyond the data scale")

    def project(c):
        """(log alpha, log m0) minimising the log residuals at c, and that minimum."""
        k = (ln_n - math.log(c)) / (ln_m - math.log(c))
        m0_box = [max(lower[2], c / upper[1]), min(upper[2], c / lower[1])]
        g, h = _box_rows(np.log([lower[0], m0_box[0]]), np.log([upper[0], m0_box[1]]))
        design = np.column_stack([np.ones_like(k), 1.0 - k])
        target = ln_p - np.log(k) - (k - 1.0) * ln_m
        b = _lsq(design, target, g, h)
        r = design @ b - target
        return b, float(r @ r)

    c_box = ([x0[1] * x0[2]], [lower[1] * lower[2]], [min(c_hi, cap)])
    search = minimize(FitProblem(lambda x: project(x[0])[1], *c_box, ("c",), tol, max_iter))
    c = float(search.x[0])
    log_alpha, log_m0 = project(c)[0]
    m0 = math.exp(log_m0)
    x = np.clip([math.exp(log_alpha), c / m0, m0], lower, upper)
    residuals = np.log(price_level(n, m, PriceLevelParams(*x))) - ln_p
    return _result(x, lower, upper, names, residuals, search.iterations, search.converged)


def fit_interest(
    n_ts: TimeSeries,
    m_long_ts: TimeSeries,
    m_short_ts: TimeSeries,
    long_rate_ts: TimeSeries,
    short_rate_ts: TimeSeries,
    grid,
    x0,
    bounds=None,
) -> FitResult:
    """Simultaneously fit (k_i, k_p) to long and short rates in log space.

    The long rate pairs aggregate output with the narrow aggregate (for
    example physical currency), the short rate with the full base; both
    share the same two parameters, and the objective is the plain sum of
    the two markets' log-residual sums. log i = a*log(N/M) + b with
    a = 1/k_i and b = -log(k_p)/k_i, so the fit is linear least squares
    in (a, b) on the stacked markets, solved exactly over the image of
    the (k_i, k_p) box; a bound that binds holds the parameter on it.
    """
    grid = np.asarray(grid, dtype=float)
    n = _prepare(n_ts, grid)
    m_long = _prepare(m_long_ts, grid)
    m_short = _prepare(m_short_ts, grid)
    r_long = _prepare(long_rate_ts, grid)
    r_short = _prepare(short_rate_ts, grid)
    names = ("k_i", "k_p")
    x0, lower, upper = _box(x0, bounds, _default_bounds, names, (True, True))
    ln_n, ln_ml, ln_ms, ln_rl, ln_rs = _logs(n, m_long, m_short, r_long, r_short)

    design = np.column_stack([np.concatenate([ln_n - ln_ml, ln_n - ln_ms]), np.ones(2 * grid.size)])
    with np.errstate(divide="ignore"):
        # 1/k_hi <= a <= 1/k_lo and a*log(p_lo) <= -b <= a*log(p_hi), since a > 0
        ln_p_lo, ln_p_hi = np.log(lower[1]), np.log(upper[1])
        g = np.array([[-1.0, 0.0], [1.0, 0.0], [ln_p_lo, 1.0], [-ln_p_hi, -1.0]])
        h = np.array([-1.0 / upper[0], 1.0 / lower[0], 0.0, 0.0])
    a, b = _lsq(design, np.concatenate([ln_rl, ln_rs]), g, h)
    if a <= 0.0:  # only reachable when the k_i box is unbounded above
        raise ModelDomainError("rates do not rise with N/M, so k_i is unbounded")
    x = np.clip([1.0 / a, math.exp(-b / a)], lower, upper)
    fitted = InterestParams(*x)
    residuals = np.concatenate(
        [np.log(interest_rate(n, m_long, fitted)) - ln_rl, np.log(interest_rate(n, m_short, fitted)) - ln_rs]
    )
    return _result(x, lower, upper, names, residuals)


def cobb_douglas_loglinear(capital, labor, output) -> CobbDouglasParams:
    """Closed-form (a, k1, k2) by ordinary least squares on logs.

    Raises RankDeficient when capital or labor is constant (or the two
    are collinear in logs), in which case the exponents are not
    identified.
    """
    kv = positive(capital, "capital")
    lv = positive(labor, "labor")
    nv = positive(output, "output")
    design = np.column_stack([np.ones_like(kv), np.log(kv), np.log(lv)])
    beta = _lsq(design, np.log(nv), np.empty((0, 3)), np.empty(0))
    return CobbDouglasParams(a=float(math.exp(beta[0])), k1=float(beta[1]), k2=float(beta[2]))


def fit_cobb_douglas(
    n_ts: TimeSeries,
    k_ts: TimeSeries,
    l_ts: TimeSeries,
    grid,
    x0=None,
    bounds=None,
) -> FitResult:
    """Fit (a, k1, k2) by least squares on logs over a box.

    The box (by default a factor 5 in a and +-2 in the exponents around
    x0, which defaults to the closed form cobb_douglas_loglinear) is
    solved exactly in (log a, k1, k2); when no bound binds, the result is
    the closed form.
    """
    grid = np.asarray(grid, dtype=float)
    n = _prepare(n_ts, grid)
    kv = _prepare(k_ts, grid)
    lv = _prepare(l_ts, grid)
    if x0 is None:
        closed = cobb_douglas_loglinear(kv, lv, n)
        x0 = (closed.a, closed.k1, closed.k2)
    names = ("A", "k1", "k2")

    def default(x0):
        return np.r_[x0[0] / 5.0, x0[1:] - 2.0], np.r_[x0[0] * 5.0, x0[1:] + 2.0]

    x0, lower, upper = _box(x0, bounds, default, names, (True, False, False))
    ln_n, ln_k, ln_l = _logs(n, kv, lv)
    design = np.column_stack([np.ones_like(ln_k), ln_k, ln_l])
    with np.errstate(divide="ignore"):
        g, h = _box_rows(np.r_[np.log(lower[0]), lower[1:]], np.r_[np.log(upper[0]), upper[1:]])
    b = _lsq(design, ln_n, g, h)
    x = np.clip([math.exp(b[0]), b[1], b[2]], lower, upper)
    residuals = np.log(cobb_douglas(kv, lv, CobbDouglasParams(*x))) - ln_n
    return _result(x, lower, upper, names, residuals)


def fit_report(result: FitResult) -> dict:
    """Plain-dict summary of a fit: parameters, objective, the parameters
    on a bound, residual stats."""
    report = {
        "parameters": result.params(),
        "f_star": float(result.f_star),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "at_bound": list(result.at_bound),
    }
    if result.residuals is not None and result.residuals.size:
        r = result.residuals
        report["residuals"] = {
            "count": int(r.size),
            "rmse": float(np.sqrt(np.mean(r**2))),
            "max_abs": float(np.max(np.abs(r))),
        }
    return report
