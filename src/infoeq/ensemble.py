"""Ensembles of markets, partition-function aggregates, and entropy.

A collection of markets with individual indices a_i and a common
destination factor m defines a partition function

    Z(m) = sum_i m**(-a_i)

whose Boltzmann-style weights m**(-a_i)/Z give ensemble expectations of
the index, of aggregate output, and of the price factor a*m**(a-1).
Monte Carlo over index draws traces how the ensemble average index and
price level bend as m grows. An entropy built from log Gamma counts the
ways output can be distributed over the common scale, and a fluctuation
relation compares the measured asymmetry of output changes against
P(+dn)/P(-dn) = e**dn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import fields, finite, positive, vector, whole
from .errors import DomainError, InsufficientData, ModelDomainError
from .timeseries import TimeSeries

__all__ = [
    "MarketEnsemble",
    "MonteCarloConfig",
    "MonteCarloResult",
    "EntropyParams",
    "FluctuationResult",
    "partition_fn",
    "avg_index",
    "avg_output",
    "avg_price",
    "monte_carlo",
    "entropy",
    "entropy_stirling",
    "entropy_delta",
    "series_changes",
    "fluctuation_comparison",
]


@dataclass(frozen=True)
class MarketEnsemble:
    """Markets indexed by the draws a_i; n0 is the market count."""

    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", vector(self.a, "index draws"))

    @property
    def n0(self) -> int:
        return self.a.size


# float64 elements in one Monte Carlo block (256 KiB); bounds its temporaries
_BLOCK = 1 << 15


def _weights(ens: MarketEnsemble, m: float) -> tuple[np.ndarray, float]:
    """(unnormalized shifted weights, shift) with max exponent factored out."""
    x = -ens.a * math.log(m)
    shift = float(np.max(x))
    return np.exp(x - shift), shift


def partition_fn(ens: MarketEnsemble, m) -> float:
    """Z(m) = sum_i m**(-a_i), evaluated with the max exponent factored out.

    Matches the naive sum to full precision where the naive sum does not
    overflow, and stays finite far beyond it. Z(1) is exactly n0.
    """
    w, shift = _weights(ens, positive(m, "m"))
    with np.errstate(over="ignore"):
        # exp(0) == 1 keeps Z(1) == n0 exact; huge shifts saturate to inf
        return float(np.exp(shift) * np.sum(w))


def avg_index(ens: MarketEnsemble, m) -> float:
    """Ensemble average index <a> under the partition weights.

    Non-increasing in m: larger m concentrates weight on smaller a_i.
    """
    w, _ = _weights(ens, positive(m, "m"))
    return float(np.sum(ens.a * w) / np.sum(w))


def avg_output(ens: MarketEnsemble, m) -> float:
    """Ensemble aggregate output <N(m)> = n0**2 / Z(m); <N(1)> = n0 exactly.

    Saturates to inf where Z(m) underflows to 0 (every a_i*log(m) above
    ~745).
    """
    z = partition_fn(ens, m)
    return ens.n0 * (ens.n0 / z) if z > 0.0 else math.inf


def avg_price(ens: MarketEnsemble, m) -> float:
    """Price factor <a * m**(a-1)> under the partition weights.

    Each term a_i*m**(a_i-1)*m**(-a_i) collapses to a_i/m, so the
    expectation is sum(a)/(m*Z); the naive weighted sum agrees to
    rounding but overflows first. Saturates to +-inf, with the sign of
    sum(a), where m*Z(m) underflows to 0.
    """
    m = positive(m, "m")
    total, mz = float(np.sum(ens.a)), m * partition_fn(ens, m)
    return total / mz if mz > 0.0 else math.copysign(math.inf, total)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Ensemble Monte Carlo settings.

    Each run draws n0 indices from Normal(a_mean, a_sd) and evaluates the
    three ensemble aggregates over m_grid. Runs are independent; run j
    uses the substream spawned from (seed, j), so results are
    reproducible bit-for-bit for a given seed regardless of execution
    order. monte_carlo evaluates the runs in bounded array blocks, and
    its result equals the scalar avg_index, avg_output and avg_price
    bit for bit.
    """

    n0: int = 100
    a_mean: float = 1.5
    a_sd: float = 0.5
    runs: int = 500
    m_grid: np.ndarray = field(default_factory=lambda: np.geomspace(1.0, 1000.0, 200))
    seed: int = 0

    def __post_init__(self):
        for label, minimum in (("n0", 1), ("runs", 1), ("seed", 0)):
            object.__setattr__(self, label, whole(getattr(self, label), label, minimum))
        fields(self, "a_mean", "a_sd", check=finite)
        if self.a_sd < 0.0:
            raise DomainError("a_sd must be non-negative")
        object.__setattr__(self, "m_grid", vector(self.m_grid, "m_grid", check=positive, increasing=True))


@dataclass(frozen=True)
class MonteCarloResult:
    """Per-run aggregate curves, one row per run, one column per m value."""

    m_grid: np.ndarray
    avg_a: np.ndarray
    avg_n: np.ndarray
    avg_price: np.ndarray

    @property
    def runs(self) -> int:
        return self.avg_a.shape[0]


def monte_carlo(config: MonteCarloConfig) -> MonteCarloResult:
    """Run the ensemble Monte Carlo described by config.

    Runs are drawn and evaluated in bounded blocks of (runs, m values,
    markets), so temporary memory stays fixed whatever the run count or
    grid size. Each block repeats the arithmetic of the scalar functions
    in the same order, and its sums reduce over the contiguous market
    axis exactly as the 1-d sums do, so the result equals avg_index,
    avg_output and avg_price called per run and m value, bit for bit.
    """
    grid = config.m_grid
    runs, n0 = config.runs, config.n0
    # math.log as in _weights: np.log may differ from it in the last bit
    neg_log_m = np.array([-math.log(m) for m in grid.tolist()])
    cols = min(grid.size, max(1, _BLOCK // n0))
    rows = max(1, _BLOCK // (n0 * cols))
    out_a = np.empty((runs, grid.size))
    out_n = np.empty_like(out_a)
    out_p = np.empty_like(out_a)
    for r in range(0, runs, rows):
        a = np.empty((min(rows, runs - r), 1, n0))
        for run in range(r, r + len(a)):  # each run's draws from its own spawned seed
            rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(run,)))
            a[run - r, 0] = rng.normal(config.a_mean, config.a_sd, n0)
        finite(a, "index draws")
        sum_a = a.sum(axis=-1)
        for c in range(0, grid.size, cols):
            block = (slice(r, r + rows), slice(c, c + cols))
            x = a * neg_log_m[c : c + cols, None]  # -a_i * log(m), as in _weights
            shift = x.max(axis=-1)
            x -= shift[..., None]
            w = np.exp(x, out=x)
            sw = w.sum(axis=-1)
            w *= a
            out_a[block] = w.sum(axis=-1) / sw
            with np.errstate(over="ignore", divide="ignore"):
                z = np.exp(shift) * sw
                out_n[block] = n0 * (n0 / z)
                out_p[block] = sum_a / (grid[c : c + cols] * z)
    return MonteCarloResult(m_grid=grid, avg_a=out_a, avg_n=out_n, avg_price=out_p)


@dataclass(frozen=True)
class EntropyParams:
    """Scales for the output entropy: index k and the common log scale
    gamma*m0 that converts output into occupation number."""

    k: float
    gamma: float
    m0: float

    def __post_init__(self):
        fields(self, "k", "gamma", "m0")


def _occupation(n, params: EntropyParams) -> float:
    x = float(n) / (params.gamma * params.m0)
    if not math.isfinite(x) or x < 1.0:
        raise ModelDomainError("n/(gamma*m0) must be at least 1")
    return x


def entropy(n, params: EntropyParams) -> float:
    """Economic entropy S = (1/k) * log Gamma(n/(gamma*m0) + 1).

    Zero when the occupation number is exactly 1 (log 1! = 0) and
    strictly increasing in n.
    """
    return math.lgamma(_occupation(n, params) + 1.0) / params.k


def entropy_stirling(n, params: EntropyParams) -> float:
    """Stirling form (1/k) * x * (log x - 1); within 1% of entropy for x >= 100."""
    x = _occupation(n, params)
    return x * (math.log(x) - 1.0) / params.k


def entropy_delta(n, dn, params: EntropyParams) -> float:
    """First-order entropy change (dn/(k*gamma*m0)) * log(n/(gamma*m0)).

    Matches entropy(n+dn) - entropy(n) to first order; the residual
    shrinks linearly in dn.
    """
    x = _occupation(n, params)
    return float(dn) / (params.k * params.gamma * params.m0) * math.log(x)


def series_changes(ts: TimeSeries, mode: str = "log_percent") -> np.ndarray:
    """Successive changes of a series: percent log differences (default)
    or plain level differences. DomainError where a level difference
    exceeds the float range."""
    if mode == "log_percent":
        if np.any(ts.v <= 0.0):
            raise DomainError("log changes undefined for non-positive values")
        return 100.0 * np.diff(np.log(ts.v))
    if mode == "levels":
        with np.errstate(over="ignore"):
            changes = np.diff(ts.v)
        if not np.isfinite(changes).all():
            raise DomainError("series_changes: a level difference exceeds the float range")
        return changes
    raise DomainError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class FluctuationResult:
    """Histogram of changes plus the e**dn tail curve on the same bins."""

    bin_left: np.ndarray
    bin_right: np.ndarray
    count: np.ndarray
    theory: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * self.bin_left + 0.5 * self.bin_right  # no overflow near the float maximum


def fluctuation_comparison(samples, bins: int = 30) -> FluctuationResult:
    """Histogram the samples and overlay the fluctuation-relation curve.

    The relation P(+dn)/P(-dn) = e**dn implies a tail curve proportional
    to e**center; it is scaled so the bins with positive centers carry
    exactly the measured positive-side count (total count if no bin
    center is positive). The scaling is done in log space, as that count
    times exp(center - logsumexp(those centers)), so the curve is finite
    however large the centers. Deterministic: identical inputs give
    identical outputs bit-for-bit.
    """
    samples = vector(samples, "samples")
    if samples.size < 30:
        raise InsufficientData(f"need at least 30 samples, got {samples.size}")
    bins = whole(bins, "bins")
    if not math.isfinite(float(samples.max()) - float(samples.min())):
        raise DomainError("samples must span less than the float range")
    count, edges = np.histogram(samples, bins=bins)
    count = count.astype(float)
    left, right = edges[:-1], edges[1:]
    centers = 0.5 * left + 0.5 * right
    side = centers > 0.0 if np.any(centers > 0.0) else np.full(centers.shape, True)
    top = float(np.max(centers[side]))
    log_norm = top + math.log(float(np.sum(np.exp(centers[side] - top))))
    theory = float(np.sum(count[side])) * np.exp(centers - log_norm)
    return FluctuationResult(bin_left=left, bin_right=right, count=count, theory=theory)
