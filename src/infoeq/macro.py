"""Macroeconomic models built on information-equilibrium relations.

The price level model treats aggregate demand N (nominal output) as the
source and the currency base M as the destination with a slowly varying
index k(N, M); the quantity theory of money is the k = 2 limit. Interest
rates, an Okun-style hours identity, Cobb-Douglas production, a Solow
capital equilibrium, AD-AS and IS-LM curve generators, and the ridge line
of the price-level surface all reduce to the same handful of closed forms.
Each is a sum of logs, so no product of parameters over- or underflows;
a result above the float range raises DomainError naming its function,
and one below it is 0. Each curve's sweep and crossing share one formula.

Scalar formulas accept numpy arrays and broadcast; series-driven models
take TimeSeries inputs and evaluate on explicit decimal-year grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import LOG_MAX, fields, finite, from_log, positive, product, scalar
from .errors import DegenerateEquilibrium, DomainError, ModelDomainError
from .relations import IERelation, ge_price
from .timeseries import TimeSeries, interp_linear, log_growth

__all__ = [
    "PriceLevelParams",
    "InterestParams",
    "CobbDouglasParams",
    "SolowCapitalParams",
    "CurveShift",
    "ADASCurves",
    "ISLMCurves",
    "k_index",
    "k_index_gradient",
    "price_level",
    "price_level_at_index",
    "inflation_model",
    "growth_relations",
    "interest_rate",
    "okun_hours",
    "cobb_douglas",
    "solow_investment",
    "solow_depreciation",
    "solow_equilibrium",
    "solow_crossing",
    "adas_curves",
    "adas_equilibrium",
    "islm_curves",
    "islm_equilibrium",
    "money_mediation",
    "output_investment_relation",
    "ridge_sigma",
]


@dataclass(frozen=True)
class PriceLevelParams:
    """Price level P = alpha * k(N, M) * (M/m0)**(k-1).

    gamma * m0 is the common scale inside both logarithms of k(N, M);
    alpha normalizes P to the index year of the deflator being modelled.
    """

    alpha: float
    gamma: float
    m0: float

    def __post_init__(self):
        fields(self, "alpha", "gamma", "m0")


@dataclass(frozen=True)
class InterestParams:
    """Effective interest rate model i**k_i = (1/k_p) * N/M."""

    k_i: float
    k_p: float

    def __post_init__(self):
        fields(self, "k_i", "k_p")


@dataclass(frozen=True)
class CobbDouglasParams:
    """Output N = a * K**k1 * L**k2 (exponents unconstrained in sign)."""

    a: float
    k1: float
    k2: float

    def __post_init__(self):
        fields(self, "a")
        fields(self, "k1", "k2", check=finite)


@dataclass(frozen=True)
class SolowCapitalParams:
    """Capital market: investment I = i0*(K/k0)**(1/sigma), depreciation
    Dep = dep0*(K/k0)**(1/delta). sigma > delta gives a stable finite
    equilibrium."""

    sigma: float
    delta: float
    k0: float
    i0: float
    dep0: float

    def __post_init__(self):
        fields(self, "sigma", "delta", "k0", "i0", "dep0")


@dataclass(frozen=True)
class CurveShift:
    """Additive shifts applied to curve generators (totals must stay positive)."""

    delta_n: float = 0.0
    delta_m: float = 0.0
    delta_s: float = 0.0


def _log_ratio(value, params: PriceLevelParams, label: str):
    """log(value/(gamma*m0)) as a difference of logs; it must be positive."""
    out = np.log(positive(value, label, ModelDomainError)) - math.log(params.gamma) - math.log(params.m0)
    if not np.all(out > 0.0):
        raise ModelDomainError(f"{label}/(gamma*m0) must exceed 1 (got min log {np.min(out)!r})")
    return out


def k_index(n, m, params: PriceLevelParams):
    """Information-transfer index k(N, M) = log(N/(gamma*m0)) / log(M/(gamma*m0))."""
    return scalar(_log_ratio(n, params, "n") / _log_ratio(m, params, "m"))


def k_index_gradient(n, m, params: PriceLevelParams):
    """Closed-form partials (dk/dn, dk/dm) of k_index.

    dk/dn = 1/(n*log(m/(gamma*m0))),
    dk/dm = -log(n/(gamma*m0))/(m*log(m/(gamma*m0))**2).
    Both vanish as n and m grow, which is what makes k slowly varying.
    """
    log_n = _log_ratio(n, params, "n")
    log_log_m = np.log(_log_ratio(m, params, "m"))
    dk_dn = from_log(-np.log(n) - log_log_m, "k_index_gradient")
    return dk_dn, -from_log(np.log(log_n) - np.log(m) - 2.0 * log_log_m, "k_index_gradient")


def price_level_at_index(k, m, alpha: float, m0: float):
    """Core price level P = alpha * k * (m/m0)**(k-1) at a given index k."""
    positive(alpha, "alpha")
    positive(m0, "m0")
    k = positive(k, "k", ModelDomainError)
    m = positive(m, "m", ModelDomainError)
    log_p = np.log(k) + math.log(alpha) + (k - 1.0) * (np.log(m) - math.log(m0))
    return from_log(log_p, "price_level_at_index")


def price_level(n, m, params: PriceLevelParams):
    """Price level with the index evaluated from (n, m)."""
    k = k_index(n, m, params)
    return price_level_at_index(k, m, params.alpha, params.m0)


def inflation_model(
    n_ts: TimeSeries,
    m_ts: TimeSeries,
    params: PriceLevelParams,
    grid,
) -> TimeSeries:
    """Model inflation: annualized log growth of the model price level.

    The series are taken as given; smooth noisy measured aggregates with
    loess_smooth first.
    """
    grid = np.asarray(grid, dtype=float)
    n = interp_linear(n_ts, grid)
    m = interp_linear(m_ts, grid)
    p = price_level(n, m, params)
    return log_growth(TimeSeries(grid, p, name="model price level"))


def growth_relations(k, m_growth):
    """Continuously-compounded growth identities at constant k.

    Returns (inflation, output growth) = ((k-1)*m_growth, k*m_growth).
    """
    k = finite(k, "k", ModelDomainError)
    m_growth = finite(m_growth, "m_growth", ModelDomainError)
    return product("growth_relations", k - 1.0, m_growth), product("growth_relations", k, m_growth)


def interest_rate(n, m, params: InterestParams):
    """Effective rate i = ((n/m)/k_p)**(1/k_i).

    Homogeneous of degree zero in (n, m): only the ratio matters.
    """
    n = positive(n, "n", ModelDomainError)
    m = positive(m, "m", ModelDomainError)
    return from_log((np.log(n) - np.log(m) - math.log(params.k_p)) / params.k_i, "interest_rate")


def okun_hours(n_ts: TimeSeries, p_ts: TimeSeries, k_h: float, grid) -> TimeSeries:
    """Hours-worked identity H(t) = (1/k_h) * N(t)/P(t) on the grid.

    log_growth of the result equals the real-output growth rate, which is
    the Okun-style link between hours growth and RGDP growth.
    """
    positive(k_h, "k_h", ModelDomainError)
    grid = np.asarray(grid, dtype=float)
    n = positive(interp_linear(n_ts, grid), "n", ModelDomainError)
    p = positive(interp_linear(p_ts, grid), "p", ModelDomainError)
    return TimeSeries(grid, n / p / k_h, name="hours", units="h")


def cobb_douglas(capital, labor, params: CobbDouglasParams):
    """Output a * K**k1 * L**k2.

    Accepts value arrays, or two TimeSeries sharing timestamps (returns a
    TimeSeries in that case).
    """
    as_series = isinstance(capital, TimeSeries) and isinstance(labor, TimeSeries)
    if as_series:
        if not np.array_equal(capital.t, labor.t):
            raise DomainError("capital and labor series must share timestamps")
        t, capital, labor = capital.t, capital.v, labor.v
    kv = positive(capital, "capital", ModelDomainError)
    lv = positive(labor, "labor", ModelDomainError)
    out = from_log(math.log(params.a) + params.k1 * np.log(kv) + params.k2 * np.log(lv), "cobb_douglas")
    return TimeSeries(t, out, name="output") if as_series else out


def _log_power(log_k, y0: float, k0: float, index: float):
    """log(y0 * (K/k0)**(1/index)) at log K = log_k: each Solow curve in log space."""
    return math.log(y0) + (log_k - math.log(k0)) / index


def solow_investment(capital, params: SolowCapitalParams):
    """Investment curve I(K) = i0 * (K/k0)**(1/sigma)."""
    log_k = np.log(positive(capital, "capital", ModelDomainError))
    return from_log(_log_power(log_k, params.i0, params.k0, params.sigma), "solow_investment")


def solow_depreciation(capital, params: SolowCapitalParams):
    """Depreciation curve Dep(K) = dep0 * (K/k0)**(1/delta)."""
    log_k = np.log(positive(capital, "capital", ModelDomainError))
    return from_log(_log_power(log_k, params.dep0, params.k0, params.delta), "solow_depreciation")


def solow_equilibrium(params: SolowCapitalParams) -> float:
    """Equilibrium capital K* = k0 * exp(sigma*delta*log(i0/dep0)/(sigma-delta)).

    At K* investment equals depreciation; for sigma > delta the point is
    stable (investment falls below depreciation just above K*).
    """
    if params.sigma == params.delta:
        raise DegenerateEquilibrium("sigma == delta leaves the crossing undefined")
    # delta * log first, so i0 == dep0 gives 0 even where sigma*delta overflows
    expo = params.sigma * (params.delta * (math.log(params.i0) - math.log(params.dep0)))
    return from_log(math.log(params.k0) + expo / (params.sigma - params.delta), "solow_equilibrium")


def solow_crossing(params: SolowCapitalParams, tol: float = 1e-10) -> float:
    """Locate I(K) = Dep(K) numerically (bisection in log K).

    Independent check of solow_equilibrium.
    """
    if params.sigma == params.delta:
        raise DegenerateEquilibrium("sigma == delta leaves the crossing undefined")

    def gap(log_k):  # log I(K) - log Dep(K)
        inv = _log_power(log_k, params.i0, params.k0, params.sigma)
        return inv - _log_power(log_k, params.dep0, params.k0, params.delta)

    return from_log(_bisect_root(gap, math.log(params.k0), tol=tol), "solow_crossing")


def _bisect_root(g, x0: float, tol: float = 1e-10, max_expand: int = 200) -> float:
    """Root of a monotone function by expansion bracketing plus bisection."""
    h = 1.0
    lo = hi = x0
    glo = ghi = g(x0)
    for _ in range(max_expand):
        if (glo < 0.0) != (ghi < 0.0) or glo == 0.0 or ghi == 0.0:
            break  # a root at x0 itself leaves lo == hi == x0
        lo, hi = lo - h, hi + h
        glo, ghi = g(lo), g(hi)
        h *= 2.0
    else:
        raise DomainError("failed to bracket a root")
    if glo > ghi:  # orient so g(lo) <= 0 <= g(hi); midpoints are order-free
        lo, hi = hi, lo
        glo, ghi = ghi, glo
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        gm = g(mid)
        if gm < 0.0:
            lo = mid
        elif gm > 0.0:
            hi = mid
        elif gm == 0.0:
            return mid
        else:
            raise DomainError("the root lies where the function is NaN")
    return 0.5 * (lo + hi)


def _check_positive(**values) -> None:
    """positive() on each keyword argument, labelled by its keyword."""
    for label, value in values.items():
        positive(value, label)


def _demand(log_n: float, k: float, ref: float):
    """The log of AD (n0, k_a, s_ref), IS (n0, k_s, s_ref) or LM (n, k_p, m_ref):
    log(n/(k*ref)) - (k/n)*x at shift x, as (value at 0, log slope, sign)."""
    return log_n - math.log(k) - math.log(ref), math.log(k) - log_n, -1.0


def _sras(s0: float, k_a: float, n_ref: float):
    """SRAS in log space, log(n_ref/(k_a*s0)) + x/(k_a*s0), as _demand."""
    log_ks = math.log(k_a) + math.log(s0)
    return math.log(n_ref) - log_ks, -log_ks, 1.0


def _at(curve, x, power: float = 1.0):
    """A log-space curve at shift x, over power. The slope term is 0 at x = 0
    and, formed in logs, is +-inf only where the value is far out of range."""
    value, log_slope, sign = curve
    with np.errstate(divide="ignore", over="ignore"):
        return (value + sign * np.sign(x) * np.exp(np.log(np.abs(x)) + log_slope)) / power


@dataclass(frozen=True)
class ADASCurves:
    """Point lists: ad and sras are (delta-quantity, price) pairs, lras is
    (destination level, price) pairs along the general-equilibrium locus."""

    ad: np.ndarray
    sras: np.ndarray
    lras: np.ndarray


def adas_curves(
    n0: float,
    s0: float,
    k_a: float,
    n_ref: float,
    s_ref: float,
    delta_n,
    delta_s,
    s_values=None,
) -> ADASCurves:
    """Aggregate demand / aggregate supply curve families.

    AD:   P = (n0/(k_a*s_ref)) * exp(-k_a*delta_n/n0)       (falls in delta_n)
    SRAS: P = (n_ref/(k_a*s0)) * exp(+delta_s/(k_a*s0))     (rises in delta_s)
    LRAS: the general-equilibrium price locus P ~ S**(k_a-1), emitted over
    s_values (default: a geometric sweep around s_ref).
    """
    _check_positive(n0=n0, s0=s0, k_a=k_a, n_ref=n_ref, s_ref=s_ref)
    delta_n = np.asarray(delta_n, dtype=float)
    delta_s = np.asarray(delta_s, dtype=float)
    p_ad = from_log(_at(_demand(math.log(n0), k_a, s_ref), delta_n), "adas_curves")
    p_sras = from_log(_at(_sras(s0, k_a, n_ref), delta_s), "adas_curves")
    if s_values is None:
        s_values = s_ref * np.geomspace(0.5, 2.0, 41)
    s_values = np.asarray(s_values, dtype=float)
    p_lras = ge_price(IERelation(k=k_a, d_ref=n_ref, s_ref=s_ref), s_values)
    return ADASCurves(
        ad=np.column_stack([delta_n, p_ad]),
        sras=np.column_stack([delta_s, p_sras]),
        lras=np.column_stack([s_values, np.atleast_1d(p_lras)]),
    )


def adas_equilibrium(
    n0: float,
    s0: float,
    k_a: float,
    n_ref: float,
    s_ref: float,
    supply_shift: float = 0.0,
) -> tuple[float, float]:
    """Crossing of AD with a (possibly shifted) SRAS in the shared
    delta-quantity coordinate. Returns (delta*, price*).

    A positive supply_shift moves SRAS right, lowering the equilibrium
    price. With a and s the logs of AD and SRAS, a(x) - s(x - shift) is
    linear in x, so the crossing is

        delta* = shift / (1 + k_a**2*s0/n0) + (a(0) - s(0)) / (k_a/n0 + 1/(k_a*s0)),

    with both slopes taken from their logs: an infinite one is a vertical curve.
    """
    _check_positive(n0=n0, s0=s0, k_a=k_a, n_ref=n_ref, s_ref=s_ref)
    finite(supply_shift, "supply_shift")
    ad, sras = _demand(math.log(n0), k_a, s_ref), _sras(s0, k_a, n_ref)
    with np.errstate(over="ignore"):
        slopes = np.exp(ad[1]) + np.exp(sras[1])
        x_star = float(supply_shift / (1.0 + np.exp(ad[1] - sras[1])) + (ad[0] - sras[0]) / slopes)
    return x_star, from_log(_at(ad, x_star), "adas_equilibrium")


@dataclass(frozen=True)
class ISLMCurves:
    """Point lists: lm holds (delta_m, rate) pairs, is_curve (delta_n, rate)."""

    lm: np.ndarray
    is_curve: np.ndarray


def islm_curves(
    n0: float,
    shift: CurveShift,
    m_ref: float,
    s_ref: float,
    k_p: float,
    k_s: float,
    k_i: float,
    sweep,
) -> ISLMCurves:
    """IS and LM curve families in rate space.

    LM (money market, swept over delta_m with the source shifted):
        i**k_i = ((n0+dn)/(k_p*m_ref)) * exp(-k_p*(delta_m+dm)/(n0+dn))
    IS (goods market, swept over delta_n):
        i**k_i = (n0/(k_s*s_ref)) * exp(-k_s*delta_n/n0)
    where dn = shift.delta_n and dm = shift.delta_m.
    """
    _check_positive(n0=n0, m_ref=m_ref, s_ref=s_ref, k_p=k_p, k_s=k_s, k_i=k_i)
    n_eff = n0 + shift.delta_n
    if n_eff <= 0.0:
        raise ModelDomainError("shifted source n0 + delta_n must stay positive")
    sweep = np.asarray(sweep, dtype=float)
    lm_rate = from_log(_at(_demand(math.log(n_eff), k_p, m_ref), sweep + shift.delta_m, k_i), "islm_curves")
    is_rate = from_log(_at(_demand(math.log(n0), k_s, s_ref), sweep, k_i), "islm_curves")
    return ISLMCurves(
        lm=np.column_stack([sweep, lm_rate]),
        is_curve=np.column_stack([sweep, is_rate]),
    )


def islm_equilibrium(
    n0: float,
    m_ref: float,
    s_ref: float,
    k_p: float,
    k_s: float,
    k_i: float,
    delta_m: float = 0.0,
    is_shift: float = 0.0,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """IS-LM crossing in the (delta_n, rate) plane. Returns (delta_n*, i*).

    The LM side rises with delta_n, the IS side falls, so the crossing is
    unique; is_shift translates the IS curve to trace out shifted
    equilibria. delta_n is parameterized as n0*(e**u - 1) so the shifted
    total n0 + delta_n stays positive, with log(n0) + u as its log.
    """
    _check_positive(n0=n0, m_ref=m_ref, s_ref=s_ref, k_p=k_p, k_s=k_s, k_i=k_i)
    finite(delta_m, "delta_m")
    finite(is_shift, "is_shift")
    log_n0 = math.log(n0)
    is_curve = _demand(log_n0, k_s, s_ref)

    def gap(u):  # log LM - log IS, increasing in u
        with np.errstate(over="ignore", invalid="ignore"):  # e**u saturates far out in the bracket
            lm, x = _demand(log_n0 + u, k_p, m_ref), n0 * np.expm1(u) - is_shift
            out = _at(lm, delta_m) - _at(is_curve, x)
            if np.isnan(out):  # both slope terms overflow alike: the larger log decides
                out = np.sign(delta_m) * (np.log(abs(x)) + is_curve[1] - math.log(abs(delta_m)) - lm[1])
            return out

    u = _bisect_root(gap, 0.0, tol=tol)
    # n0*expm1(u) keeps full precision near u = 0; far out, n0*e**u alone may be in range
    x_star = n0 * math.expm1(u) if u < 1.0 else from_log(log_n0 + u, "islm_equilibrium") - n0
    return x_star, from_log(_at(_demand(log_n0 + u, k_p, m_ref), delta_m, k_i), "islm_equilibrium")


def money_mediation(k: float, k_s: float) -> float:
    """Index of N->S mediated through money: k_n = k/k_s.

    If N->M carries index k and S->M carries index k_s then the implied
    N->S relation carries k/k_s.
    """
    positive(k, "k")
    positive(k_s, "k_s")
    return product("money_mediation", k, divisors=(k_s,))


def output_investment_relation(
    n_ref: float, i_ref: float, eta: float = 1.0
) -> IERelation:
    """Output <-> investment market N = n_ref*(I/i_ref)**eta (default eta 1)."""
    return IERelation(k=eta, d_ref=n_ref, s_ref=i_ref)


def ridge_sigma(kappa: float, gamma: float) -> float:
    """Ridge line of the price-level surface.

    With kappa = 1/k and sigma = M/m0, the price along fixed N is
    stationary at sigma = gamma * exp(-(kappa + log gamma)/kappa), where
    gamma is the common log scale divided by m0. Returns that sigma.
    """
    positive(kappa, "kappa")
    positive(gamma, "gamma")
    e = -(kappa + math.log(gamma)) / kappa
    if e <= LOG_MAX:
        return gamma * math.exp(e)
    # exp(e) alone overflows, but gamma < 1 may bring sigma back in range
    return from_log(math.log(gamma) + e, "ridge_sigma")
