"""Property-based checks of the closed forms, and of LOESS against its
per-point oracle (skipped without hypothesis)."""

import math
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from infoeq import (  # noqa: E402
    CobbDouglasParams,
    IERelation,
    InterestParams,
    LoessConfig,
    MarketEnsemble,
    PriceLevelParams,
    SingularFit,
    SolowCapitalParams,
    TimeSeries,
    cobb_douglas,
    compose,
    constant_price_delta,
    demand_curve,
    ge_price,
    ge_source,
    growth_relations,
    interest_rate,
    interp_linear,
    invert,
    k_index,
    k_index_gradient,
    log_growth,
    loess_smooth,
    ode_oracle,
    partition_fn,
    price_level,
    price_level_at_index,
    solow_depreciation,
    solow_investment,
    supply_curve,
)
from loess_oracle import LOESS_TOL, loess_oracle  # noqa: E402

# no example database on disk, and no per-example deadline on a busy host
SETTINGS = settings(database=None, deadline=None, max_examples=60)


def positives(lo=1e-3, hi=1e3):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


relations = st.builds(IERelation, k=positives(0.05, 20.0), d_ref=positives(), s_ref=positives())


@SETTINGS
@given(relations)
def test_double_invert_is_bit_exact(rel):
    assert invert(invert(rel)) == rel
    assert invert(invert(rel)).k == rel.k


@SETTINGS
@given(relations, relations)
def test_compose_multiplies_the_indices(ab, bc):
    assert compose(ab, bc).k == ab.k * bc.k


@settings(SETTINGS, max_examples=15)
@given(relations, st.floats(0.25, 4.0))
def test_ge_source_agrees_with_ode_oracle(rel, ratio):
    s_end = rel.s_ref * ratio
    assert ode_oracle(rel, s_end) == pytest.approx(ge_source(rel, s_end), rel=1e-9)


@SETTINGS
@given(
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=30),
    st.floats(-0.5, 0.5),
    positives(),
)
def test_log_growth_is_exact_for_exponentials(steps, rate, scale):
    t = np.cumsum([0.0, *steps])
    g = log_growth(TimeSeries(t, scale * np.exp(rate * t)))
    assert np.allclose(g.v, rate, rtol=0.0, atol=1e-10)


@SETTINGS
@given(
    hnp.arrays(float, st.integers(1, 20), elements=st.floats(-5.0, 5.0)),
    st.floats(1e-3, 1e3),
)
def test_partition_fn_matches_the_naive_sum(a, m):
    with np.errstate(over="ignore"):
        naive = float(np.sum(m ** (-a)))
    if math.isfinite(naive):
        assert partition_fn(MarketEnsemble(a), m) == pytest.approx(naive, rel=1e-12)


PL = PriceLevelParams(alpha=0.641, gamma=5.93e-4, m0=603.8)
REL = IERelation(k=1.4, d_ref=100.0, s_ref=80.0)
SOLOW = SolowCapitalParams(sigma=2.0, delta=1.0, k0=1.0, i0=1.0, dep0=1.0)
SERIES = TimeSeries(np.linspace(1.0, 1000.0, 11), np.linspace(5.0, 50.0, 11))

# every public closed form of one array argument x, each output in a tuple
CLOSED_FORMS = {
    "ge_source": lambda x: (ge_source(REL, x),),
    "ge_price": lambda x: (ge_price(REL, x),),
    "demand_curve": lambda x: demand_curve(REL, 90.0, x),
    "supply_curve": lambda x: supply_curve(REL, 70.0, x),
    "k_index": lambda x: (k_index(10.0 * x, x, PL),),
    "k_index_gradient": lambda x: k_index_gradient(10.0 * x, x, PL),
    "price_level": lambda x: (price_level(10.0 * x, x, PL),),
    "price_level_at_index": lambda x: (price_level_at_index(1.0 + x / 1000.0, x, 1.0, 1.0),),
    "growth_relations": lambda x: growth_relations(x, x),
    "constant_price_delta": lambda x: (constant_price_delta(REL, 90.0, 70.0, x),),
    "interest_rate": lambda x: (interest_rate(x, 2.0, InterestParams(3.49, 0.124)),),
    "cobb_douglas": lambda x: (cobb_douglas(x, x, CobbDouglasParams(1.0, 0.3, 0.7)),),
    "solow_investment": lambda x: (solow_investment(x, SOLOW),),
    "solow_depreciation": lambda x: (solow_depreciation(x, SOLOW),),
    "interp_linear": lambda x: (interp_linear(SERIES, x),),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
@SETTINGS
@given(hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=3, max_side=4), elements=st.floats(1.0, 1000.0)))
def test_scalar_in_scalar_out_array_in_array_out(name, x):
    outs = CLOSED_FORMS[name](x)
    if x.ndim == 0:
        assert all(type(out) is float for out in outs)
        assert outs == CLOSED_FORMS[name](float(x))
    else:
        assert all(isinstance(out, np.ndarray) and out.shape == x.shape for out in outs)


# LOESS array path against the per-point oracle. Gaps stay within a factor
# of 20 of each other, as on sampled data; evenly spaced grids with a
# binary step have exact distance ties in every window.
@st.composite
def loess_cases(draw):
    n = draw(st.integers(3, 60))
    start = draw(st.floats(1900.0, 2100.0))
    if draw(st.booleans()):
        t = start + draw(st.sampled_from([0.25, 0.5, 1.0])) * np.arange(n)
    else:
        gaps = draw(hnp.arrays(float, n - 1, elements=st.floats(0.05, 1.0)))
        t = start + np.concatenate([[0.0], np.cumsum(gaps)])
    v = draw(hnp.arrays(float, n, elements=st.floats(-1e3, 1e3)))
    degree = draw(st.sampled_from([1, 2]))
    # a span whose window holds about q >= degree + 1 points
    q = draw(st.integers(degree + 1, n))
    span = draw(st.floats((q - 0.5) / n, q / n))
    assume(math.ceil(span * n) >= degree + 1)
    return TimeSeries(t, v), LoessConfig(degree=degree, span=span)


@settings(SETTINGS, max_examples=300, derandomize=True)
@given(loess_cases())
def test_loess_matches_per_point_oracle(case):
    ts, config = case
    try:
        want, scale = loess_oracle(ts, config)
    except SingularFit as exc:
        with pytest.raises(SingularFit, match=f"^{re.escape(str(exc))}$"):
            loess_smooth(ts, config)
        return
    assert np.all(np.abs(loess_smooth(ts, config).v - want) <= LOESS_TOL * scale)
