"""The rules every closed form shares.

Arguments must be finite, and most must be positive; a 0-d input gives
a Python float back and an array input gives an array back. A result
evaluated from its log, a product from the sum of its factors' logs, is
checked against the float range before the exp. Each rule is written
here once.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DomainError

LOG_MAX = math.log(np.finfo(float).max)


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


def from_log(log_value, label: str):
    """exp(log_value) (a float if 0-d); raises DomainError naming label
    where an exponent is NaN or above the float range. A result below the
    float range rounds to 0."""
    arr = np.asarray(log_value, dtype=float)
    ok = arr <= LOG_MAX  # False for NaN
    if not ok.all():
        raise DomainError(f"{label}: exp({float(arr[~ok][0])!r}) exceeds the float range")
    return scalar(np.exp(arr))


def product(label: str, *factors, log_scale=0.0):
    """exp(log_scale) times the product of finite factors (a float if 0-d),
    as a sign times from_log of the sum of their logs, so that no partial
    product over- or underflows; a factor of 0 gives 0."""
    with np.errstate(divide="ignore"):
        log_abs = sum((np.log(np.abs(f)) for f in factors), log_scale)
    return scalar(math.prod(np.sign(f) for f in factors) * from_log(log_abs, label))


def fields(obj, *labels: str, check=positive) -> None:
    """Apply check to the named fields of a params dataclass. A field
    that is not a real number (a string, an array) fails its check."""
    for label in labels:
        value = getattr(obj, label)
        check(value if isinstance(value, numbers.Real) else math.nan, label)
