"""Information-equilibrium relation algebra.

An information equilibrium relation between a detector-measured source
quantity D and a destination quantity S is the ODE

    dD/dS = k * D / S

whose general-equilibrium solution through the reference point
(d_ref, s_ref) is D = d_ref * (s / s_ref)**k with abstract price
P = dD/dS. Holding one side constant instead gives the partial
equilibrium demand and supply curves. Relations form a groupoid: they
invert (k -> 1/k with references swapped) and compose along a shared
intermediate quantity (indices multiply).

All closed forms are evaluated in log space so that large indices and
wide ranges keep full relative precision. A result above the float range
raises DomainError naming its function; one below it is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import fields, finite, from_log, positive, positives, product, whole
from .errors import DomainError

__all__ = [
    "IERelation",
    "LinearizedCurves",
    "ge_source",
    "ge_price",
    "demand_curve",
    "supply_curve",
    "linearize",
    "elasticities",
    "constant_price",
    "constant_price_delta",
    "invert",
    "compose",
    "ode_oracle",
]


@dataclass(frozen=True)
class IERelation:
    """Relation indexed by k > 0 through the reference point (d_ref, s_ref).

    detector names the measuring instrument (informational only).
    _k_inv caches the pre-inversion index so that double inversion
    restores the original bit-for-bit; IEEE doubles do not guarantee
    1/(1/k) == k on their own.
    """

    k: float
    d_ref: float
    s_ref: float
    detector: str | None = None
    _k_inv: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        fields(self, "k", "d_ref", "s_ref")


def ge_source(rel: IERelation, s):
    """General-equilibrium source value D(s) = d_ref * (s/s_ref)**k."""
    s = positive(s, "s")
    return from_log(math.log(rel.d_ref) + rel.k * (np.log(s) - math.log(rel.s_ref)), "ge_source")


def ge_price(rel: IERelation, s):
    """General-equilibrium abstract price P(s) = k*(d_ref/s_ref)*(s/s_ref)**(k-1)."""
    s = positive(s, "s")
    log_p = math.log(rel.k) + math.log(rel.d_ref) - math.log(rel.s_ref)
    return from_log(log_p + (rel.k - 1.0) * (np.log(s) - math.log(rel.s_ref)), "ge_price")


def demand_curve(rel: IERelation, d0: float, s):
    """Demand curve at constant source level d0.

    Returns (price, delta_d): P = k*d0/s and the source shift
    delta_d = k*d0*log(s/s_ref) accumulated while s moves from s_ref.
    Price falls as delta_d rises.
    """
    positive(d0, "d0")
    s = positive(s, "s")
    log_kd = math.log(rel.k) + math.log(d0)
    price = from_log(log_kd - np.log(s), "demand_curve")
    return price, product("demand_curve", np.log(s) - math.log(rel.s_ref), log_scale=log_kd)


def supply_curve(rel: IERelation, s0: float, d):
    """Supply curve at constant destination level s0.

    Returns (price, delta_s): P = k*d/s0 and
    delta_s = (s0/k)*log(d/d_ref). Price rises with delta_s.
    """
    positive(s0, "s0")
    d = positive(d, "d")
    price = from_log(math.log(rel.k) + np.log(d) - math.log(s0), "supply_curve")
    log_scale = math.log(s0) - math.log(rel.k)
    return price, product("supply_curve", np.log(d) - math.log(rel.d_ref), log_scale=log_scale)


@dataclass(frozen=True)
class LinearizedCurves:
    """First-order (in log deviations) supply and demand coefficients.

    Demand: D ~= alpha - beta * P; supply: D ~= gamma + delta * P.
    beta and delta are positive by construction so the linear demand
    curve slopes down and the linear supply curve slopes up.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float

    def demand(self, price):
        return self.alpha - self.beta * np.asarray(price, dtype=float)

    def supply(self, price):
        return self.gamma + self.delta * np.asarray(price, dtype=float)


def linearize(rel: IERelation, d0: float, s0: float) -> LinearizedCurves:
    """Expand both partial-equilibrium curves to first order around the refs."""
    positives(d0=d0, s0=s0)
    alpha = float(rel.d_ref) + product("linearize", rel.k, d0)
    if np.any(alpha == math.inf):
        raise DomainError("linearize: d_ref + k*d0 exceeds the float range")
    return LinearizedCurves(
        alpha=alpha,
        beta=rel.s_ref,
        gamma=rel.s_ref - product("linearize", s0, divisors=(rel.k,)),
        delta=product("linearize", s0, s0, divisors=(rel.k, rel.k, rel.d_ref)),
    )


def elasticities(rel: IERelation, d0: float, s0: float) -> tuple[float, float]:
    """(price elasticity of demand, of supply) of the linearized curves.

    e_d = -k*d0/d_ref and e_s = s0/(k*s_ref).
    """
    positives(d0=d0, s0=s0)
    return (
        product("elasticities", -rel.k, d0, divisors=(rel.d_ref,)),
        product("elasticities", s0, divisors=(rel.k, rel.s_ref)),
    )


def constant_price(rel: IERelation, d0: float, s0: float) -> float:
    """Price k*d0/s0 when both sides adjust slowly (ratio of the deltas)."""
    positives(d0=d0, s0=s0)
    return product("constant_price", rel.k, d0, divisors=(s0,))


def constant_price_delta(rel: IERelation, d0: float, s0: float, delta_s):
    """Source shift k*d0*delta_s/s0 matching a destination shift in the
    both-slow regime."""
    positives(d0=d0, s0=s0)
    return product("constant_price_delta", rel.k, d0, finite(delta_s, "delta_s"), divisors=(s0,))


def invert(rel: IERelation) -> IERelation:
    """Swap the roles of source and destination: k -> 1/k, references swapped.

    Double inversion is bit-exact (the original index is cached).
    """
    k_new = rel._k_inv if rel._k_inv is not None else 1.0 / rel.k
    return IERelation(
        k=k_new,
        d_ref=rel.s_ref,
        s_ref=rel.d_ref,
        detector=rel.detector,
        _k_inv=rel.k,
    )


def compose(ab: IERelation, bc: IERelation) -> IERelation:
    """Chain a->b and b->c into a->c: indices multiply, outer refs survive.

    Functional composition of the general-equilibrium maps requires the
    chain to share its intermediate reference (ab.s_ref == bc.d_ref);
    the index product is exact either way.
    """
    return IERelation(
        k=ab.k * bc.k,
        d_ref=ab.d_ref,
        s_ref=bc.s_ref,
        detector=ab.detector,
    )


def ode_oracle(
    rel: IERelation,
    s_end: float,
    s_start: float | None = None,
    d_start: float | None = None,
    steps: int = 10_000,
) -> float:
    """Integrate dD/dS = k*D/S with classical fixed-step RK4.

    Defaults start from the reference point, so the result is an
    independent numeric check of ge_source. Error falls as steps**-4.
    """
    steps = whole(steps, "steps", 1000)
    s0 = rel.s_ref if s_start is None else s_start
    d = rel.d_ref if d_start is None else d_start
    positives(s_start=s0, d_start=d, s_end=s_end)
    k = rel.k
    h = (s_end - s0) / steps
    s = s0
    for _ in range(steps):
        f1 = k * d / s
        f2 = k * (d + 0.5 * h * f1) / (s + 0.5 * h)
        f3 = k * (d + 0.5 * h * f2) / (s + 0.5 * h)
        f4 = k * (d + h * f3) / (s + h)
        d += (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        s += h
    return d
