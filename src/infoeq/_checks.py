"""The rules every closed form shares.

Arguments must be finite, and most must be positive; a 0-d input gives
a Python float back and an array input gives an array back. A series,
sample or grid is stored as a read-only 1-d copy, and a count is an int.
A result evaluated from its log, a product from the sum of its factors'
logs, is checked against the float range before the exp. Each rule is
written here once.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers

import numpy as np

from .errors import DomainError

LOG_MAX = math.log(np.finfo(float).max)
LOG_TINY = math.log(np.finfo(float).tiny)  # of the smallest normal float


def scalar(out):
    """A Python float for a 0-d result; arrays pass through unchanged."""
    return float(out) if np.ndim(out) == 0 else out


def positive(value, label: str, error=DomainError):
    """value as floats (a float if 0-d); raises error unless every entry
    is positive and finite."""
    arr = np.asarray(value, dtype=float)
    if not ((arr > 0.0) & (arr < math.inf)).all():  # False for NaN
        raise error(f"{label} must be positive and finite")
    return scalar(arr)


def finite(value, label: str, error=DomainError):
    """value as floats (a float if 0-d); raises error unless every entry
    is finite."""
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise error(f"{label} must be finite")
    return scalar(arr)


def positives(**values) -> None:
    """positive() on each keyword argument, labelled by its keyword."""
    for label, value in values.items():
        positive(value, label)


def vector(value, label: str, check=finite, increasing: bool = False) -> np.ndarray:
    """A read-only 1-d float copy of value, so the caller's array is left
    alone; raises DomainError unless it is non-empty and passes check,
    and, with increasing, unless it is strictly increasing."""
    arr = np.array(value, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{label} must be a non-empty 1-d array")
    check(arr, label)
    if increasing and not (arr[1:] > arr[:-1]).all():  # a comparison cannot overflow
        raise DomainError(f"{label} must be strictly increasing")
    arr.flags.writeable = False
    return arr


def whole(value, label: str, minimum: int = 1) -> int:
    """value as an int; raises DomainError naming label unless it is a
    real, whole number of at least minimum."""
    integral = isinstance(value, numbers.Integral)  # an int of any size, without a float
    if not (integral or isinstance(value, numbers.Real) and float(value).is_integer()):  # False for NaN, inf
        raise DomainError(f"{label} must be a whole number")
    if value < minimum:
        raise DomainError(f"{label} must be " + ("non-negative" if minimum == 0 else f"at least {minimum}"))
    return int(value)


def from_log(log_value, label: str):
    """exp(log_value) (a float if 0-d); raises DomainError naming label
    where an exponent is NaN or above the float range. A result below the
    float range rounds to 0."""
    arr = np.asarray(log_value, dtype=float)
    ok = arr <= LOG_MAX  # False for NaN
    if not ok.all():
        bad = float(arr[~ok][0])
        cause = "an exponent is NaN" if math.isnan(bad) else f"exp({bad!r}) exceeds the float range"
        raise DomainError(f"{label}: {cause}")
    return scalar(np.exp(arr))


def product(label: str, *factors, divisors=(), log_scale=0.0):
    """exp(log_scale) times the product of finite factors over the product
    of finite nonzero divisors (a float if 0-d); raises DomainError naming
    label where that exceeds the float range. A factor of 0 gives 0.

    It is a sign times from_log of the sum of the logs, so that nothing
    over- or underflows on the way. Without log_scale, where the quotient
    and every partial product of the factors and of the divisors lie in the
    normal range, it is (f1*f2*...)/(d1*d2*...) rounded as written."""
    with np.errstate(divide="ignore"):
        num = list(itertools.accumulate(np.log(np.abs(f)) for f in factors))
        den = list(itertools.accumulate(np.log(np.abs(d)) for d in divisors)) or [0.0]
    log_abs = num[-1] - den[-1] + log_scale
    checked = math.prod(np.sign(v) for v in (*factors, *divisors)) * from_log(log_abs, label)
    if log_scale != 0.0:
        return scalar(checked)
    normal = functools.reduce(np.logical_and, [(LOG_TINY < v) & (v < LOG_MAX) for v in (*num, *den, log_abs)])
    with np.errstate(all="ignore"):
        direct = np.divide(functools.reduce(np.multiply, factors), functools.reduce(np.multiply, divisors, 1.0))
    return scalar(np.where(normal, direct, checked))


def fields(obj, *labels: str, check=positive) -> None:
    """Apply check to the named fields of a params dataclass. A field
    that is not a real number (a string, an array) fails its check."""
    for label in labels:
        value = getattr(obj, label)
        check(value if isinstance(value, numbers.Real) else math.nan, label)
