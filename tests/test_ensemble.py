import math
import tracemalloc
import warnings

import numpy as np
import pytest

from infoeq import (
    DomainError,
    EntropyParams,
    InsufficientData,
    MarketEnsemble,
    ModelDomainError,
    MonteCarloConfig,
    TimeSeries,
    avg_index,
    avg_output,
    avg_price,
    entropy,
    entropy_delta,
    entropy_stirling,
    fluctuation_comparison,
    monte_carlo,
    partition_fn,
    series_changes,
)
from infoeq.ensemble import _BLOCK


class TestMarketEnsemble:
    def test_n0_is_market_count(self):
        assert MarketEnsemble(np.array([1.0, 2.0, 3.0])).n0 == 3

    def test_draws_are_read_only(self):
        ens = MarketEnsemble(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ens.a[0] = 5.0

    def test_callers_array_stays_writable(self):
        a = np.array([1.0, 2.0])
        ens = MarketEnsemble(a)
        a[0] = 3.0
        assert np.array_equal(ens.a, [1.0, 2.0])
        assert not ens.a.flags.writeable

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainError):
            MarketEnsemble(np.array([]))
        with pytest.raises(DomainError):
            MarketEnsemble(np.array([[1.0]]))
        with pytest.raises(DomainError):
            MarketEnsemble(np.array([1.0, np.nan]))


class TestPartitionFunction:
    def test_small_case_by_hand(self):
        # Z(2) for a = (1, 2) is 1/2 + 1/4
        ens = MarketEnsemble(np.array([1.0, 2.0]))
        assert partition_fn(ens, 2.0) == pytest.approx(0.75, rel=1e-14)

    def test_z_at_one_is_exactly_n0(self):
        rng = np.random.default_rng(0)
        for n in (1, 7, 100):
            ens = MarketEnsemble(rng.normal(1.5, 0.5, n))
            assert partition_fn(ens, 1.0) == float(n)

    def test_matches_naive_sum_in_safe_range(self):
        rng = np.random.default_rng(1)
        ens = MarketEnsemble(rng.uniform(0.5, 3.0, 40))
        for m in (0.5, 1.0, 10.0, 500.0):
            naive = float(np.sum(m ** (-ens.a)))
            assert partition_fn(ens, m) == pytest.approx(naive, rel=1e-13)

    def test_no_overflow_for_extreme_arguments(self):
        # a large and m tiny pushes m**(-a) past the double range
        ens = MarketEnsemble(np.array([400.0, 500.0]))
        z = partition_fn(ens, 1e-3)
        assert z == math.inf  # saturates instead of raising

    def test_rejects_non_positive_m(self):
        ens = MarketEnsemble(np.array([1.0]))
        with pytest.raises(DomainError):
            partition_fn(ens, 0.0)


class TestEnsembleAverages:
    def test_avg_index_at_one_is_the_sample_mean(self):
        rng = np.random.default_rng(2)
        a = rng.normal(1.5, 0.5, 100)
        ens = MarketEnsemble(a)
        assert avg_index(ens, 1.0) == float(np.mean(a))

    def test_avg_index_weights_low_indices_at_large_m(self):
        ens = MarketEnsemble(np.array([1.0, 3.0]))
        assert avg_index(ens, 1000.0) == pytest.approx(1.0, abs=1e-5)

    def test_avg_index_non_increasing(self):
        rng = np.random.default_rng(3)
        ens = MarketEnsemble(rng.normal(1.5, 0.5, 60))
        grid = np.geomspace(1.0, 1000.0, 80)
        values = np.array([avg_index(ens, m) for m in grid])
        assert np.all(np.diff(values) <= 1e-12)

    def test_avg_output_identity(self):
        ens = MarketEnsemble(np.array([1.0, 2.0, 4.0]))
        m = 3.0
        assert avg_output(ens, m) == pytest.approx(9.0 / partition_fn(ens, m), rel=1e-14)
        assert avg_output(ens, 1.0) == 3.0

    def test_avg_price_matches_naive_weighted_sum(self):
        # each term a*m**(a-1) * m**(-a) collapses to a/m, so the naive
        # weighted expectation of the price factor must agree
        rng = np.random.default_rng(4)
        a = rng.uniform(0.5, 3.0, 30)
        ens = MarketEnsemble(a)
        for m in (0.5, 2.0, 50.0):
            naive = float(np.sum(a * m ** (a - 1.0) * m ** (-a)) / np.sum(m ** (-a)))
            assert avg_price(ens, m) == pytest.approx(naive, rel=1e-13)

    def test_avg_price_single_market_is_detector_value(self):
        ens = MarketEnsemble(np.array([2.0]))
        for m in (0.5, 1.0, 7.0):
            assert avg_price(ens, m) == pytest.approx(2.0 * m, rel=1e-13)

    def test_avg_price_identical_markets(self):
        ens = MarketEnsemble(np.full(5, 1.3))
        m = 4.0
        assert avg_price(ens, m) == pytest.approx(1.3 * m**0.3, rel=1e-13)


class TestMonteCarlo:
    def test_reproducible_bit_for_bit(self):
        config = MonteCarloConfig(n0=20, runs=5, m_grid=np.geomspace(1.0, 100.0, 7), seed=9)
        a = monte_carlo(config)
        b = monte_carlo(config)
        assert np.array_equal(a.avg_a, b.avg_a)
        assert np.array_equal(a.avg_n, b.avg_n)
        assert np.array_equal(a.avg_price, b.avg_price)

    def test_seed_changes_results(self):
        grid = np.geomspace(1.0, 100.0, 5)
        a = monte_carlo(MonteCarloConfig(n0=10, runs=2, m_grid=grid, seed=0))
        b = monte_carlo(MonteCarloConfig(n0=10, runs=2, m_grid=grid, seed=1))
        assert not np.array_equal(a.avg_a, b.avg_a)

    def test_runs_use_independent_substreams(self):
        # prefix stability: the first runs of a longer simulation equal a
        # shorter simulation with the same seed
        grid = np.geomspace(1.0, 100.0, 5)
        short = monte_carlo(MonteCarloConfig(n0=10, runs=2, m_grid=grid, seed=5))
        long = monte_carlo(MonteCarloConfig(n0=10, runs=4, m_grid=grid, seed=5))
        assert np.array_equal(short.avg_a, long.avg_a[:2])

    def test_initial_output_is_n0(self):
        config = MonteCarloConfig(n0=25, runs=3, m_grid=np.geomspace(1.0, 10.0, 4), seed=2)
        out = monte_carlo(config)
        assert np.all(out.avg_n[:, 0] == 25.0)

    def test_shapes_and_runs_property(self):
        config = MonteCarloConfig(n0=5, runs=4, m_grid=np.geomspace(1.0, 10.0, 6), seed=0)
        out = monte_carlo(config)
        assert out.avg_a.shape == (4, 6)
        assert out.runs == 4

    def test_config_validation(self):
        with pytest.raises(DomainError):
            MonteCarloConfig(runs=0)
        with pytest.raises(DomainError):
            MonteCarloConfig(n0=0)
        with pytest.raises(DomainError):
            MonteCarloConfig(a_sd=-0.1)
        with pytest.raises(DomainError):
            MonteCarloConfig(m_grid=np.array([2.0, 1.0]))
        with pytest.raises(DomainError):
            MonteCarloConfig(m_grid=np.array([0.0, 1.0]))

    def test_callers_m_grid_stays_writable(self):
        grid = np.array([1.0, 2.0])
        config = MonteCarloConfig(m_grid=grid)
        grid[0] = 0.5
        assert np.array_equal(config.m_grid, [1.0, 2.0])
        assert not config.m_grid.flags.writeable


def scalar_monte_carlo(config):
    """(avg_a, avg_n, avg_price) from the scalar averages, one run and m at a time."""
    out = np.empty((3, config.runs, config.m_grid.size))
    for run in range(config.runs):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(run,)))
        ens = MarketEnsemble(rng.normal(config.a_mean, config.a_sd, config.n0))
        for j, m in enumerate(config.m_grid):
            out[:, run, j] = avg_index(ens, m), avg_output(ens, m), avg_price(ens, m)
    return out


def assert_matches_scalar(result, config):
    expect = scalar_monte_carlo(config)
    assert np.array_equal(result.avg_a, expect[0])
    assert np.array_equal(result.avg_n, expect[1])
    assert np.array_equal(result.avg_price, expect[2])


class TestMonteCarloMatchesScalarOracle:
    def test_last_block_of_runs_is_partial(self):
        config = MonteCarloConfig(n0=10, runs=70, m_grid=np.geomspace(1.0, 1000.0, 100), seed=3)
        runs_per_block = _BLOCK // (config.n0 * config.m_grid.size)
        assert 1 < runs_per_block < config.runs and config.runs % runs_per_block != 0
        assert_matches_scalar(monte_carlo(config), config)

    def test_one_run_spans_several_blocks(self):
        config = MonteCarloConfig(n0=500, runs=3, m_grid=np.geomspace(1.0, 1000.0, 200), seed=4)
        assert config.n0 * config.m_grid.size > _BLOCK
        assert_matches_scalar(monte_carlo(config), config)

    def test_wide_draws_and_grid(self):
        config = MonteCarloConfig(n0=37, runs=7, a_sd=3.0, m_grid=np.geomspace(1.0, 1e6, 33), seed=1)
        assert_matches_scalar(monte_carlo(config), config)

    def test_overflowing_partition_function_is_silent(self):
        config = MonteCarloConfig(n0=20, runs=6, a_sd=50.0, m_grid=np.geomspace(1.0, 1e300, 25), seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = monte_carlo(config)
        assert np.any(result.avg_n == 0.0)  # Z(m) saturated to inf
        assert_matches_scalar(result, config)

    def test_underflowing_partition_function_is_silent(self):
        # every a_i*log(m) above ~745 underflows Z(m) to 0: <N> and the price saturate to inf
        config = MonteCarloConfig(n0=2, runs=3, m_grid=np.geomspace(1.0, 1e300, 3), seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = monte_carlo(config)
            assert_matches_scalar(result, config)
            ens = MarketEnsemble([1.2, 1.6])
            assert partition_fn(ens, 1e300) == 0.0
            assert avg_output(ens, 1e300) == math.inf
            assert avg_price(ens, 1e300) == math.inf
            assert avg_price(MarketEnsemble([-1.2, -1.6]), 1e-300) == -math.inf
        assert np.any(np.isposinf(result.avg_n)) and np.any(np.isposinf(result.avg_price))

    def test_default_run_peak_memory(self):
        tracemalloc.start()
        try:
            monte_carlo(MonteCarloConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_draws_do_not_grow_with_the_run_count(self):
        # 2,000 runs of 500 draws hold 8 MB at once if drawn before the blocks
        config = MonteCarloConfig(n0=500, runs=2000, m_grid=np.array([10.0]), seed=2)
        tracemalloc.start()
        try:
            monte_carlo(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_non_finite_draws_raise(self):
        config = MonteCarloConfig(n0=500, runs=200, a_sd=1e308, m_grid=np.array([10.0]), seed=0)
        with pytest.raises(DomainError, match="index draws must be finite"):
            monte_carlo(config)


PARAMS = EntropyParams(k=1.6, gamma=5.93e-4, m0=603.8)
SCALE = PARAMS.gamma * PARAMS.m0

# 50-digit value of log Gamma(251) / 1.6
S_REF = 708.7782698692831003947


class TestEntropy:
    def test_reference_value(self):
        n = 250.0 * SCALE
        assert entropy(n, PARAMS) == pytest.approx(S_REF, rel=1e-13)

    def test_zero_at_unit_occupation(self):
        assert entropy(SCALE, PARAMS) == 0.0

    def test_rejects_occupation_below_one(self):
        with pytest.raises(ModelDomainError):
            entropy(0.5 * SCALE, PARAMS)

    def test_strictly_increasing_in_n(self):
        n = SCALE * np.geomspace(1.5, 1e6, 200)
        values = np.array([entropy(v, PARAMS) for v in n])
        assert np.all(np.diff(values) > 0)

    def test_stirling_within_one_percent_above_hundred(self):
        for x in (100.0, 300.0, 1e4, 1e8):
            n = x * SCALE
            exact = entropy(n, PARAMS)
            approx = entropy_stirling(n, PARAMS)
            assert abs(approx - exact) / exact < 0.01

    def test_delta_error_shrinks_linearly(self):
        # steps small against the occupation scale, where the first-order
        # form is within its linear error regime
        n = 500.0 * SCALE
        errors = []
        for dn in (0.1 * SCALE, 0.05 * SCALE, 0.025 * SCALE):
            fd = entropy(n + dn, PARAMS) - entropy(n, PARAMS)
            errors.append(abs(entropy_delta(n, dn, PARAMS) - fd))
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.1)
        assert errors[1] / errors[2] == pytest.approx(2.0, rel=0.1)


class TestSeriesChanges:
    def test_log_percent(self):
        ts = TimeSeries([0.0, 1.0, 2.0], [100.0, 110.0, 99.0])
        out = series_changes(ts)
        expect = 100.0 * np.diff(np.log([100.0, 110.0, 99.0]))
        assert np.array_equal(out, expect)

    def test_levels(self):
        ts = TimeSeries([0.0, 1.0, 2.0], [5.0, 7.0, 6.0])
        assert np.array_equal(series_changes(ts, mode="levels"), [2.0, -1.0])

    def test_log_mode_rejects_non_positive(self):
        ts = TimeSeries([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(DomainError):
            series_changes(ts)

    def test_unknown_mode(self):
        ts = TimeSeries([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            series_changes(ts, mode="pct")


class TestFluctuationComparison:
    def samples(self, n=200, seed=0):
        return np.random.default_rng(seed).normal(0.5, 2.0, n)

    def test_histogram_mass_equals_sample_count(self):
        s = self.samples()
        out = fluctuation_comparison(s, bins=25)
        assert float(np.sum(out.count)) == float(s.size)

    def test_theory_mass_matches_positive_side(self):
        s = self.samples()
        out = fluctuation_comparison(s, bins=25)
        pos = out.centers > 0.0
        assert np.sum(out.theory[pos]) == pytest.approx(np.sum(out.count[pos]), rel=1e-12)

    def test_theory_is_exponential_in_center(self):
        s = self.samples()
        out = fluctuation_comparison(s, bins=20)
        ratio = out.theory[1:] / out.theory[:-1]
        widths = np.diff(out.centers)
        assert np.allclose(ratio, np.exp(widths), rtol=1e-12)

    def test_deterministic_across_calls(self):
        s = self.samples()
        a = fluctuation_comparison(s, bins=30)
        b = fluctuation_comparison(s.copy(), bins=30)
        assert np.array_equal(a.theory, b.theory)
        assert np.array_equal(a.count, b.count)

    def test_needs_thirty_samples(self):
        with pytest.raises(InsufficientData):
            fluctuation_comparison(np.zeros(29) + np.arange(29))

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            fluctuation_comparison(np.full(40, np.nan))
        with pytest.raises(DomainError):
            fluctuation_comparison(self.samples(), bins=0)

    def test_samples_spanning_the_float_range_are_a_domain_error(self):
        s = 1.7e308 * np.linspace(-1.0, 1.0, 40)
        with pytest.raises(DomainError, match="span"):
            fluctuation_comparison(s, bins=5)

    def test_centers_near_the_float_maximum_give_a_finite_curve(self):
        s = np.linspace(1.0e308, 1.7e308, 40)
        with np.errstate(all="raise", under="ignore"):
            out = fluctuation_comparison(s, bins=5)
        assert np.all(np.isfinite(out.centers)) and np.all(np.isfinite(out.theory))
        assert np.sum(out.theory) == pytest.approx(40.0, rel=1e-12)


def test_level_changes_beyond_the_float_range_name_series_changes():
    ts = TimeSeries(np.arange(4.0), [-1e308, 1e308, -1e308, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^series_changes: a level difference exceeds the float range$"):
            series_changes(ts, mode="levels")
    # differences in range keep their bits
    v = np.array([1e308, 0.0, -1e308, 0.1, 0.3])
    assert np.diff(v).tobytes() == series_changes(TimeSeries(np.arange(5.0), v), mode="levels").tobytes()
