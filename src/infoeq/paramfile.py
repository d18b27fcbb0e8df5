"""Flat key=value parameter files.

One assignment per line, "#" starts a comment, blank lines are ignored.
Values are floats. Keys follow the model symbols: k_i, k_p, k_H for the
rate and hours indices, alpha/gamma/M0 for the price level, A/k1/k2 for
the production function.
"""

from __future__ import annotations

from .errors import ParseError
from .macro import CobbDouglasParams, InterestParams, PriceLevelParams

__all__ = [
    "load_params",
    "save_params",
    "price_level_params",
    "interest_params",
    "cobb_douglas_params",
]


def load_params(path) -> dict[str, float]:
    """Read a parameter file into an ordered {key: float} mapping."""
    out: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as err:
            raise ParseError("file is not valid UTF-8") from err
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ParseError("expected key = value", line=lineno)
        key, _, value = text.partition("=")
        key = key.strip()
        if not key:
            raise ParseError("empty key", line=lineno)
        if key in out:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        try:
            out[key] = float(value.strip())
        except ValueError:
            raise ParseError(f"bad value for {key!r}: {value.strip()!r}", line=lineno) from None
    return out


def save_params(path, params: dict[str, float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in params.items():
            fh.write(f"{key} = {float(value)!r}\n")


def _take(params: dict[str, float], keys: tuple[str, ...]):
    missing = [k for k in keys if k not in params]
    if missing:
        raise ParseError(f"missing keys: {', '.join(missing)}")
    return (params[k] for k in keys)


def price_level_params(params: dict[str, float]) -> PriceLevelParams:
    alpha, gamma, m0 = _take(params, ("alpha", "gamma", "M0"))
    return PriceLevelParams(alpha=alpha, gamma=gamma, m0=m0)


def interest_params(params: dict[str, float]) -> InterestParams:
    k_i, k_p = _take(params, ("k_i", "k_p"))
    return InterestParams(k_i=k_i, k_p=k_p)


def cobb_douglas_params(params: dict[str, float]) -> CobbDouglasParams:
    a, k1, k2 = _take(params, ("A", "k1", "k2"))
    return CobbDouglasParams(a=a, k1=k1, k2=k2)
