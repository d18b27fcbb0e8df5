"""The argument rules that `_checks` writes once, checked through the
public arguments that use them: counts are whole numbers, and timestamps
are checked without taking their differences."""

import math
import warnings

import numpy as np
import pytest

from infoeq import (
    FitProblem,
    IERelation,
    LoessConfig,
    MonteCarloConfig,
    TimeSeries,
    fluctuation_comparison,
    load_csv,
    loess_smooth,
    ode_oracle,
)
from infoeq.errors import DomainError

# count argument -> (its minimum, a call passing it value)
COUNTS = {
    "n0": (1, lambda value: MonteCarloConfig(n0=value)),
    "runs": (1, lambda value: MonteCarloConfig(runs=value)),
    "seed": (0, lambda value: MonteCarloConfig(seed=value)),
    "max_iter": (1, lambda value: FitProblem(lambda x: float(x @ x), [1.0], max_iter=value)),
    "bins": (1, lambda value: fluctuation_comparison(np.linspace(-1.0, 1.0, 40), bins=value)),
    "steps": (1000, lambda value: ode_oracle(IERelation(1.5, 2.0, 3.0), 4.0, steps=value)),
    "degree": (1, lambda value: LoessConfig(degree=value)),
}
BELOW = "minimum - 1"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.5, "3", BELOW])
@pytest.mark.parametrize("label", sorted(COUNTS))
def test_count_arguments_accept_only_whole_numbers(label, bad):
    minimum, call = COUNTS[label]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{label} must be "):
            call(minimum - 1 if bad == BELOW else bad)


def test_whole_counts_are_stored_as_int():
    config = MonteCarloConfig(n0=np.int64(3), runs=2.0, seed=np.float64(7.0))
    assert [(type(v), v) for v in (config.n0, config.runs, config.seed)] == [(int, 3), (int, 2), (int, 7)]
    assert type(FitProblem(lambda x: 0.0, [1.0], max_iter=5.0).max_iter) is int


def test_a_whole_float_degree_smooths_as_its_int():
    ts = TimeSeries(np.arange(12.0), np.sin(np.arange(12.0)))
    config = LoessConfig(degree=2.0, span=0.5)
    assert type(config.degree) is int
    assert np.array_equal(loess_smooth(ts, config).v, loess_smooth(ts, LoessConfig(degree=2, span=0.5)).v)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda path: TimeSeries([-1e308, 1e308], [0.0, 1.0]), "span less than the float range"),
        (lambda path: load_csv(path), "span less than the float range"),
        (lambda path: TimeSeries([1e308, -1e308], [0.0, 1.0]), "be strictly increasing"),
    ],
    ids=["constructor", "load_csv", "decreasing"],
)
def test_timestamps_near_the_float_extremes_need_no_difference(tmp_path, make, message):
    # the timestamp difference overflows, so neither check may take it as floats
    (tmp_path / "wide.csv").write_text("date,value\n1e308,2.0\n-1e308,1.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^timestamps must {message}$"):
            make(tmp_path / "wide.csv")
