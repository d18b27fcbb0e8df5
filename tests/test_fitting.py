import math
import warnings

import numpy as np
import pytest

from infoeq import (
    CobbDouglasParams,
    DomainError,
    FitProblem,
    FitResult,
    InterestParams,
    ModelDomainError,
    PriceLevelParams,
    RankDeficient,
    TimeSeries,
    bundled_params,
    bundled_series,
    cobb_douglas,
    cobb_douglas_loglinear,
    fit_cobb_douglas,
    fit_interest,
    fit_price_level,
    fit_report,
    interest_rate,
    interp_linear,
    minimize,
    price_level,
)
from infoeq import fitting
from infoeq.fitting import _lsq


class TestFitProblem:
    def test_default_names(self):
        p = FitProblem(lambda x: float(x @ x), np.array([1.0, 2.0]))
        assert p.names == ("x0", "x1")

    def test_rejects_bad_x0(self):
        f = lambda x: 0.0
        with pytest.raises(DomainError):
            FitProblem(f, np.array([[1.0]]))
        with pytest.raises(DomainError):
            FitProblem(f, np.array([np.inf]))
        with pytest.raises(DomainError):
            FitProblem(f, np.array([]))

    def test_rejects_bad_bounds(self):
        f = lambda x: 0.0
        with pytest.raises(DomainError):
            FitProblem(f, np.array([0.0, 0.0]), lower=np.array([0.0]))
        with pytest.raises(DomainError):
            FitProblem(f, np.array([0.0]), lower=np.array([1.0]), upper=np.array([-1.0]))
        with pytest.raises(DomainError):
            FitProblem(f, np.array([5.0]), lower=np.array([0.0]), upper=np.array([1.0]))

    def test_rejects_bad_settings(self):
        f = lambda x: 0.0
        with pytest.raises(DomainError):
            FitProblem(f, np.array([0.0]), tol=0.0)
        with pytest.raises(DomainError):
            FitProblem(f, np.array([0.0]), max_iter=0)
        with pytest.raises(DomainError):
            FitProblem(f, np.array([0.0]), names=("a", "b"))


class TestMinimize:
    def test_shifted_quadratic(self):
        target = np.array([3.0, -2.0, 0.5])
        f = lambda x: float(np.sum((x - target) ** 2))
        out = minimize(FitProblem(f, np.zeros(3)))
        assert out.converged
        assert out.x == pytest.approx(target, abs=1e-8)
        assert out.f_star < 1e-15

    def test_anisotropic_quadratic(self):
        scales = np.array([1.0, 1e4])
        f = lambda x: float(np.sum(scales * (x - 1.0) ** 2))
        out = minimize(FitProblem(f, np.array([10.0, -10.0])))
        assert out.x == pytest.approx([1.0, 1.0], abs=1e-7)

    def test_rosenbrock(self):
        f = lambda x: float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)
        out = minimize(FitProblem(f, np.array([-1.2, 1.0]), tol=1e-12))
        assert out.converged
        assert out.x == pytest.approx([1.0, 1.0], abs=1e-6)

    def test_never_worse_than_start(self):
        # nasty non-smooth objective; the only guarantee is no increase
        f = lambda x: float(np.sum(np.abs(x)) + 0.3 * np.sum(np.cos(7.0 * x)))
        x0 = np.array([2.3, -1.7])
        out = minimize(FitProblem(f, x0))
        assert out.f_star <= f(x0)

    def test_bounded_minimum_lands_on_boundary(self):
        f = lambda x: float((x[0] - 5.0) ** 2)
        out = minimize(
            FitProblem(f, np.array([0.5]), lower=np.array([0.0]), upper=np.array([2.0]))
        )
        assert out.x[0] == pytest.approx(2.0, abs=1e-9)
        assert out.x[0] <= 2.0

    def test_bounds_always_respected(self):
        calls = []
        lo, hi = np.array([-1.0, 0.0]), np.array([1.0, 3.0])

        def f(x):
            calls.append(x.copy())
            return float(np.sum((x - np.array([4.0, -4.0])) ** 2))

        minimize(FitProblem(f, np.array([0.0, 1.5]), lower=lo, upper=hi))
        seen = np.array(calls)
        assert np.all(seen >= lo - 1e-12)
        assert np.all(seen <= hi + 1e-12)

    def test_deterministic(self):
        f = lambda x: float((x[0] ** 2 - 3.0) ** 2 + np.sin(x[1]) ** 2 + x[1] ** 2 * 0.1)
        p = lambda: FitProblem(f, np.array([0.7, 1.9]), tol=1e-10)
        a, b = minimize(p()), minimize(p())
        assert np.array_equal(a.x, b.x)
        assert a.f_star == b.f_star
        assert a.iterations == b.iterations

    def test_iteration_cap_reports_non_convergence(self):
        f = lambda x: float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)
        out = minimize(FitProblem(f, np.array([-1.2, 1.0]), max_iter=1))
        assert not out.converged
        assert out.f_star <= f(np.array([-1.2, 1.0]))

    def test_start_at_minimum(self):
        f = lambda x: float(np.sum(x**2))
        out = minimize(FitProblem(f, np.zeros(2)))
        assert out.converged
        assert out.f_star == 0.0

    def test_names_flow_through(self):
        f = lambda x: float(np.sum(x**2))
        out = minimize(FitProblem(f, np.array([1.0]), names=("gain",)))
        assert set(out.params()) == {"gain"}


class TestLineSearch:
    """Evaluation budgets of the bracket-plus-Brent line search."""

    def counted(self, f):
        calls = []

        def objective(x):
            calls.append(1)
            return f(x)

        return objective, calls

    def test_one_dimensional_quadratic_within_budget(self):
        objective, calls = self.counted(lambda x: float((x[0] - 3.0) ** 2))
        out = minimize(FitProblem(objective, np.array([1.0])))
        assert out.converged
        assert out.x[0] == pytest.approx(3.0, abs=1e-8)
        assert len(calls) <= 40

    def test_start_at_minimum_within_budget(self):
        objective, calls = self.counted(lambda x: float(np.sum(x**2)))
        out = minimize(FitProblem(objective, np.zeros(2)))
        assert out.converged and out.f_star == 0.0
        assert len(calls) <= 40

    def test_objective_unbounded_below_ends_finite(self):
        # decreases without bound and is NaN at infinity: the doubling must
        # stop short of an infinite step, or Brent never narrows its bracket
        def f(x):
            v = float(x[0])
            return -v if math.isfinite(v) else math.nan

        with np.errstate(over="ignore"):  # the step norm near 1e308
            out = minimize(FitProblem(f, np.array([1.0])))
        assert math.isfinite(out.f_star) and out.f_star <= -1.0

    @pytest.mark.parametrize("x0", [[1.0], [1.0, 2.0]])
    def test_objective_unbounded_below_is_not_converged(self, x0):
        # the search runs to the edge of the float range and must say so,
        # with no overflow on the way
        def f(x):
            v = float(np.sum(x))
            return -v if math.isfinite(v) else math.nan

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = minimize(FitProblem(f, np.array(x0)))
        assert out.converged is False
        assert math.isfinite(out.f_star) and out.f_star <= -1.0


@pytest.mark.parametrize("x0", [2.0, 5.0, -5.0, 100.0])
def test_unbounded_search_from_a_large_start_does_not_overflow(x0):
    # the objective sees z * |x0|: the scaled box keeps that below the float
    # maximum too, so the search stops at the edge with no overflow
    def f(x):
        v = float(x[0])
        return -v if math.isfinite(v) else math.nan

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = minimize(FitProblem(f, np.array([x0])))
    assert out.converged is False
    assert math.isfinite(out.f_star) and out.f_star <= -1.0


def demo_price_level_data():
    """The inputs of the price-level fit in demos/07 (synthetic, seeded)
    and in demos/08_cli_tour.sh (bundled snapshots)."""
    rng = np.random.default_rng(42)
    grid = np.linspace(1960.0, 2010.0, 201)
    u = grid - grid[0]
    true = PriceLevelParams(alpha=0.641, gamma=5.93e-4, m0=603.8)
    n = TimeSeries(grid, 500.0 * np.exp(0.065 * u) * (1 + 0.02 * np.sin(0.4 * u)))
    m = TimeSeries(grid, 280.0 * np.exp(0.070 * u))
    p = TimeSeries(grid, price_level(n.v, m.v, true) * np.exp(rng.normal(0.0, 0.002, grid.size)))
    x0 = (true.alpha * 1.6, true.gamma * 0.5, true.m0 * 1.4)
    bundled = [bundled_series(name) for name in ("gdp", "mbcurrcir", "pcepilfe")]
    return {
        "demo07": (n, m, p, grid, x0),
        "demo08": (*bundled, np.linspace(1960.0, 2014.0, 55), (78.0, 4.7e-4, 720.0)),
    }


class TestPriceLevelProfile:
    @pytest.mark.parametrize("case", ["demo07", "demo08"])
    def test_search_finds_the_dense_grid_minimum(self, case, monkeypatch):
        searches = []

        def recording(problem):
            result = minimize(problem)
            searches.append((problem, result))
            return result

        monkeypatch.setattr(fitting, "minimize", recording)
        fit_price_level(*demo_price_level_data()[case])
        [(problem, result)] = searches
        c_grid = np.geomspace(problem.lower[0], problem.upper[0], 400)
        grid_min = min(problem.objective(np.array([c])) for c in c_grid)
        assert problem.objective(result.x) == result.f_star
        assert result.f_star <= grid_min * (1.0 + 1e-12)


def jittered_price_level_fits(count, seed=2024):
    """(grid, x0) of bundled-data price-level fits as the calibrate benchmark
    draws them: grids near 1960-2014 with 50-60 points, x0 within e**+-0.1 of
    the demos/08_cli_tour.sh start."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        start, stop = round(rng.uniform(1959.5, 1961.0), 3), round(rng.uniform(2013.0, 2015.5), 3)
        grid = np.linspace(start, stop, int(rng.integers(50, 61)))
        x0 = [round(v * math.exp(rng.uniform(-0.1, 0.1)), 6) for v in (78.0, 4.7e-4, 720.0)]
        yield grid, x0


def test_price_level_search_confirms_in_few_evaluations(monkeypatch):
    # each line search starts from the step its direction last took, so the
    # confirming cycles of the two-quiet-cycle rule probe near the minimum
    # instead of re-bracketing from unit steps (median 55 at unit probes)
    series = [bundled_series(name) for name in ("gdp", "mbcurrcir", "pcepilfe")]
    searches = []

    def counting(problem):
        calls = []

        def objective(x):
            calls.append(1)
            return problem.objective(x)

        box = (problem.lower, problem.upper, problem.names, problem.tol, problem.max_iter)
        result = minimize(FitProblem(objective, problem.x0, *box))
        searches.append((problem, result, len(calls)))
        return result

    monkeypatch.setattr(fitting, "minimize", counting)
    for grid, x0 in jittered_price_level_fits(120):
        fit_price_level(*series, grid, x0)
    assert len(searches) == 120
    assert all(result.converged for _, result, _ in searches)
    assert np.median([evals for _, _, evals in searches]) <= 42
    for problem, result, _ in searches[:10]:
        c_grid = np.geomspace(problem.lower[0], problem.upper[0], 400)
        grid_min = min(problem.objective(np.array([c])) for c in c_grid)
        assert result.f_star <= grid_min * (1.0 + 1e-12)


def price_level_series(grid, params):
    u = grid - grid[0]
    n = TimeSeries(grid, 600.0 * np.exp(0.068 * u - 1.5e-4 * u**2))
    m = TimeSeries(grid, 32.0 * np.exp(0.052 * u + 0.75e-4 * u**2))
    p = TimeSeries(grid, price_level(n.v, m.v, params))
    return n, m, p


class TestFitPriceLevel:
    GRID = np.linspace(1960.0, 2014.0, 120)
    TRUE = PriceLevelParams(alpha=0.641, gamma=5.93e-4, m0=603.8)

    def test_recovers_parameters(self):
        n, m, p = price_level_series(self.GRID, self.TRUE)
        x0 = np.array([0.55, 7.0e-4, 520.0])
        out = fit_price_level(n, m, p, self.GRID, x0)
        assert out.converged
        got = out.params()
        assert got["alpha"] == pytest.approx(self.TRUE.alpha, rel=1e-4)
        assert got["gamma"] * got["M0"] == pytest.approx(
            self.TRUE.gamma * self.TRUE.m0, rel=1e-4
        )
        assert out.residuals is not None
        assert out.residuals.size == self.GRID.size

    def test_rejects_x0_outside_model_domain(self):
        # gamma*M0 at or above min(M) makes the log index undefined
        n, m, p = price_level_series(self.GRID, self.TRUE)
        bad = np.array([0.641, 0.5, 603.8])
        with pytest.raises(ModelDomainError):
            fit_price_level(n, m, p, self.GRID, bad)

    def test_rejects_unsafe_explicit_bounds(self):
        n, m, p = price_level_series(self.GRID, self.TRUE)
        x0 = np.array([0.641, 5.93e-4, 603.8])
        bounds = (np.array([0.1, 1e-5, 100.0]), np.array([2.0, 1.0, 5000.0]))
        with pytest.raises(ModelDomainError):
            fit_price_level(n, m, p, self.GRID, x0, bounds=bounds)

    def test_respects_max_iter(self):
        n, m, p = price_level_series(self.GRID, self.TRUE)
        out = fit_price_level(n, m, p, self.GRID, np.array([0.5, 8e-4, 450.0]), max_iter=1)
        assert not out.converged


class TestFitInterest:
    GRID = np.linspace(1960.0, 2014.0, 120)

    def test_recovers_parameters(self):
        grid = self.GRID
        u = grid - grid[0]
        k_i, k_p = 3.49, 0.124
        true = InterestParams(k_i=k_i, k_p=k_p)
        n = TimeSeries(grid, 600.0 * np.exp(0.068 * u - 1.5e-4 * u**2))
        m_long = TimeSeries(grid, 32.0 * np.exp(0.052 * u + 0.75e-4 * u**2))
        m_short = TimeSeries(grid, m_long.v * (1.6 + 0.01 * u))
        r_long = TimeSeries(grid, interest_rate(n.v, m_long.v, true))
        r_short = TimeSeries(grid, interest_rate(n.v, m_short.v, true))
        out = fit_interest(n, m_long, m_short, r_long, r_short, grid, np.array([3.0, 0.2]))
        assert out.converged
        got = out.params()
        assert got["k_i"] == pytest.approx(k_i, rel=1e-6)
        assert got["k_p"] == pytest.approx(k_p, rel=1e-6)
        # residuals cover both maturities
        assert out.residuals.size == 2 * grid.size


class TestCobbDouglasLogLinear:
    def test_exact_recovery(self):
        rng = np.random.default_rng(8)
        capital = rng.uniform(50.0, 200.0, 40)
        labor = rng.uniform(20.0, 90.0, 40)
        output = 0.17 * capital**1.3 * labor**0.6
        got = cobb_douglas_loglinear(capital, labor, output)
        assert got.a == pytest.approx(0.17, rel=1e-10)
        assert got.k1 == pytest.approx(1.3, rel=1e-10)
        assert got.k2 == pytest.approx(0.6, rel=1e-10)

    def test_constant_capital_is_rank_deficient(self):
        labor = np.linspace(10.0, 20.0, 30)
        capital = np.full(30, 100.0)
        output = 2.0 * labor
        with pytest.raises(RankDeficient):
            cobb_douglas_loglinear(capital, labor, output)

    def test_rejects_non_positive_inputs(self):
        with pytest.raises(DomainError):
            cobb_douglas_loglinear(np.array([1.0, -1.0]), np.ones(2), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_inputs(self, bad):
        # NaN used to reach the SVD and raise an untyped LinAlgError
        with pytest.raises(DomainError, match="capital"):
            cobb_douglas_loglinear(np.array([1.0, bad, 3.0]), np.array([1.0, 2.0, 5.0]), np.ones(3))


class TestFitCobbDouglas:
    def test_recovers_parameters_from_closed_form_start(self):
        grid = np.linspace(1960.0, 2014.0, 120)
        u = grid - grid[0]
        n = TimeSeries(grid, 600.0 * np.exp(0.068 * u - 1.5e-4 * u**2))
        k = TimeSeries(grid, 2000.0 * np.exp(0.055 * u - 2e-4 * u**2))
        l = TimeSeries(grid, 120.0 * np.exp(0.018 * u + 1e-4 * u**2))
        a_true, k1_true, k2_true = 0.0024, 0.44, 0.84
        n = TimeSeries(grid, a_true * k.v**k1_true * l.v**k2_true)
        out = fit_cobb_douglas(n, k, l, grid)
        assert out.converged
        got = out.params()
        assert got["A"] == pytest.approx(a_true, rel=1e-3)
        assert got["k1"] == pytest.approx(k1_true, rel=1e-3)
        assert got["k2"] == pytest.approx(k2_true, rel=1e-3)


class TestFitReport:
    def test_structure(self):
        r = FitResult(
            x=np.array([1.5, 2.5]),
            f_star=0.125,
            iterations=7,
            converged=True,
            names=("a", "b"),
            residuals=np.array([0.1, -0.2, 0.2]),
        )
        report = fit_report(r)
        assert report["parameters"] == {"a": 1.5, "b": 2.5}
        assert report["f_star"] == 0.125
        assert report["iterations"] == 7
        assert report["converged"] is True
        res = report["residuals"]
        assert res["count"] == 3
        assert res["rmse"] == pytest.approx(np.sqrt(0.09 / 3.0), rel=1e-12)
        assert res["max_abs"] == pytest.approx(0.2, rel=1e-12)

    def test_no_residuals(self):
        r = FitResult(x=np.array([1.0]), f_star=0.0, iterations=1, converged=True)
        assert "residuals" not in fit_report(r)


def assert_kkt(design, target, g, h, b):
    """b is feasible and 2*design.T@r + g_active.T@lam = 0 for some lam >= 0."""
    slack = 1e-9 * (1.0 + np.abs(h))
    assert np.all(g @ b <= h + slack)
    active = np.isfinite(h) & (np.abs(g @ b - h) <= slack)
    grad = 2.0 * design.T @ (design @ b - target)
    lam = np.linalg.lstsq(g[active].T, -grad, rcond=None)[0] if active.any() else np.zeros(0)
    scale = 2.0 * np.linalg.norm(design.T @ design) * (1.0 + np.linalg.norm(b))
    assert np.linalg.norm(grad + g[active].T @ lam) <= 1e-9 * scale
    assert np.all(lam >= -1e-9 * scale)
    return active


class TestLsq:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("binding", [False, True])
    def test_kkt_certificate_on_random_boxes(self, seed, binding):
        rng = np.random.default_rng([seed, binding])
        n = 1 + seed % 3
        design = rng.normal(size=(30, n)) + np.arange(n)
        target = rng.normal(size=30)
        free = np.linalg.lstsq(design, target, rcond=None)[0]
        # a box around the unconstrained optimum, or one it lies outside of
        centre = free + (rng.uniform(1.0, 3.0, n) * rng.choice([-1.0, 1.0], n) if binding else 0.0)
        lower, upper = centre - rng.uniform(0.1, 1.0, n), centre + rng.uniform(0.1, 1.0, n)
        g = np.vstack([-np.eye(n), np.eye(n), rng.normal(size=(1, n))])
        h = np.concatenate([-lower, upper, [np.inf]])  # the last row constrains nothing
        b = _lsq(design, target, g, h)
        active = assert_kkt(design, target, g, h, b)
        assert active.any() == binding
        if not binding:
            assert b == pytest.approx(free, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_kkt_certificate_on_general_rows(self, seed):
        rng = np.random.default_rng([seed, 7])
        design = rng.normal(size=(20, 2))
        target = rng.normal(size=20) + 5.0
        g = rng.normal(size=(4, 2))
        h = rng.uniform(0.0, 1.0, 4)  # b = 0 is feasible
        assert_kkt(design, target, g, h, _lsq(design, target, g, h))

    def test_rank_deficient_design(self):
        design = np.column_stack([np.ones(5), np.full(5, 2.0)])
        with pytest.raises(RankDeficient):
            _lsq(design, np.arange(5.0), np.empty((0, 2)), np.empty(0))


def rank_designs():
    # with this noise an R-diagonal test (|r_33| against max|r_kk|*40*eps)
    # calls the 1e-14 design full rank; matrix_rank does not
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 1.0, 40)
    one = np.ones_like(x)
    return {
        "collinear": np.column_stack([one, x, 2.0 * x]),
        "constant": np.column_stack([one, x, 5.0 * one]),
        "noise_1e-14": np.column_stack([one, x, 2.0 * x + 1e-14 * rng.standard_normal(x.size)]),
        "noise_1e-10": np.column_stack([one, x, 2.0 * x + 1e-10 * rng.standard_normal(x.size)]),
        "one_row": np.array([[1.0, 2.0, 3.0]]),
    }


@pytest.mark.parametrize("name", list(rank_designs()))
def test_lsq_rank_check_agrees_with_matrix_rank(name):
    design = rank_designs()[name]
    full = np.linalg.matrix_rank(design) == design.shape[1]
    target = np.arange(design.shape[0], dtype=float)
    try:
        _lsq(design, target, np.empty((0, design.shape[1])), np.empty(0))
        deficient = False
    except RankDeficient:
        deficient = True
    assert deficient != full


def lsq_problem(n, rows, log_scales, seed, general):
    """A random design with column scales 10**log_scales, its target, and
    constraints (g, h): a box around a point away from the unconstrained
    optimum with some bounds infinite, or general rows that point satisfies."""
    rng = np.random.default_rng(seed)
    design = rng.normal(size=(rows, n)) * 10.0 ** np.asarray(log_scales[:n])
    target = rng.normal(size=rows) * 10.0 ** rng.uniform(-2.0, 2.0)
    spread = np.linalg.norm(target) / np.linalg.norm(design, axis=0)  # the natural size of each parameter
    centre = np.linalg.lstsq(design, target, rcond=None)[0] + 2.0 * spread * rng.normal(size=n)
    if general:
        g = rng.normal(size=(int(rng.integers(1, 7)), n)) / spread
        return design, target, g, g @ centre + rng.uniform(0.0, 1.0, len(g)), None
    lower = np.where(rng.random(n) < 0.25, -np.inf, centre - spread * rng.uniform(0.1, 1.0, n))
    upper = np.where(rng.random(n) < 0.25, np.inf, centre + spread * rng.uniform(0.1, 1.0, n))
    return design, target, np.vstack([-np.eye(n), np.eye(n)]), np.concatenate([-lower, upper]), centre


def test_lsq_property_kkt_and_no_worse_than_search():
    """On random designs and boxes or rows, _lsq meets the KKT certificate,
    and on boxes its f is no worse than the direction-set search's."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 3),
        extra=st.integers(1, 37),
        log_scales=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
        general=st.booleans(),
    )
    def check(n, extra, log_scales, seed, general):
        design, target, g, h, centre = lsq_problem(n, n + extra, log_scales, seed, general)
        b = _lsq(design, target, g, h)
        assert_kkt(design, target, g, h, b)
        if centre is not None:
            lower, upper = -h[:n], h[n:]
            f = ssr(design @ b - target)
            f_search = search_f(lambda x: ssr(design @ x - target), centre, lower, upper)
            assert f <= f_search * (1.0 + 1e-8)

    check()


def noisy(v, rng, sd=0.01):
    return v * np.exp(sd * rng.standard_normal(v.size))


def ssr(r):
    return float(r @ r)


def search_f(objective, x0, lower, upper):
    """f that the box-constrained direction-set search reaches from x0."""
    return minimize(FitProblem(objective, np.asarray(x0, dtype=float), lower, upper, tol=1e-12)).f_star


GRID = np.linspace(1960.0, 2014.0, 80)
U = GRID - GRID[0]
N = 600.0 * np.exp(0.068 * U - 1.5e-4 * U**2)
M = 32.0 * np.exp(0.052 * U + 0.75e-4 * U**2)
MB = M * (1.6 + 0.01 * U)
CAPITAL = 2000.0 * np.exp(0.055 * U - 2e-4 * U**2)
LABOR = 120.0 * np.exp(0.018 * U + 1e-4 * U**2)
PL = PriceLevelParams(alpha=0.641, gamma=5.93e-4, m0=603.8)
IR = InterestParams(k_i=3.49, k_p=0.124)
CD = CobbDouglasParams(a=0.0024, k1=0.44, k2=0.84)


def ts(v, grid=GRID):
    return TimeSeries(grid, v)


class TestExactFitsMatchSearch:
    """Each exact fit reaches at most the search's f on the same objective and box."""

    def test_price_level_noisy_synthetic(self):
        p = noisy(price_level(N, M, PL), np.random.default_rng(1))
        x0 = np.array([PL.alpha * 1.3, PL.gamma * 0.7, PL.m0 * 1.2])
        out = fit_price_level(ts(N), ts(M), ts(p), GRID, x0)
        assert out.converged

        def objective(x):
            return ssr(np.log(price_level(N, M, PriceLevelParams(*x))) - np.log(p))

        assert out.f_star == pytest.approx(objective(out.x), rel=1e-12)
        assert out.f_star <= search_f(objective, x0, x0 / 5.0, x0 * 5.0) * (1.0 + 1e-8)

    def test_price_level_binding_gamma_bound(self):
        p = noisy(price_level(N, M, PL), np.random.default_rng(4))
        x0 = np.array([PL.alpha * 1.3, PL.gamma * 0.7, PL.m0 * 1.2])
        lower, upper = x0 / 5.0, x0 * np.array([5.0, 1.1, 5.0])
        out = fit_price_level(ts(N), ts(M), ts(p), GRID, x0, bounds=(lower, upper))
        assert out.params()["gamma"] == pytest.approx(upper[1], rel=1e-9)
        assert np.all(out.x >= lower) and np.all(out.x <= upper)

        def objective(x):
            return ssr(np.log(price_level(N, M, PriceLevelParams(*x))) - np.log(p))

        assert out.f_star <= search_f(objective, x0, lower, upper) * (1.0 + 1e-8)

    def test_price_level_cli_tour_fit(self):
        # the fit in demos/08_cli_tour.sh
        grid = np.linspace(1960.0, 2014.0, 55)
        series = [bundled_series(name) for name in ("gdp", "mbcurrcir", "pcepilfe")]
        n, m, p = (np.asarray(interp_linear(s, grid)) for s in series)
        x0 = np.array([78.0, 4.7e-4, 720.0])
        out = fit_price_level(*series, grid, x0)
        assert out.converged

        def objective(x):
            return ssr(np.log(price_level(n, m, PriceLevelParams(*x))) - np.log(p))

        assert out.f_star == pytest.approx(objective(out.x), rel=1e-12)
        assert out.f_star <= search_f(objective, x0, x0 / 5.0, x0 * 5.0) * (1.0 + 1e-8)

    def test_interest_noisy_synthetic(self):
        rng = np.random.default_rng(2)
        r_long = noisy(interest_rate(N, M, IR), rng)
        r_short = noisy(interest_rate(N, MB, IR), rng)
        x0 = np.array([IR.k_i * 1.2, IR.k_p * 0.8])
        out = fit_interest(ts(N), ts(M), ts(MB), ts(r_long), ts(r_short), GRID, x0)

        def objective(x):
            params = InterestParams(*x)
            return ssr(np.log(interest_rate(N, M, params)) - np.log(r_long)) + ssr(
                np.log(interest_rate(N, MB, params)) - np.log(r_short)
            )

        assert out.f_star == pytest.approx(objective(out.x), rel=1e-12)
        assert out.f_star <= search_f(objective, x0, x0 / 5.0, x0 * 5.0) * (1.0 + 1e-8)

    def test_cobb_douglas_noisy_synthetic(self):
        output = noisy(cobb_douglas(CAPITAL, LABOR, CD), np.random.default_rng(3))
        x0 = np.array([CD.a * 1.2, CD.k1 * 0.8, CD.k2 * 1.2])
        out = fit_cobb_douglas(ts(output), ts(CAPITAL), ts(LABOR), GRID, x0)

        def objective(x):
            return ssr(np.log(cobb_douglas(CAPITAL, LABOR, CobbDouglasParams(*x))) - np.log(output))

        lower = np.array([x0[0] / 5.0, x0[1] - 2.0, x0[2] - 2.0])
        upper = np.array([x0[0] * 5.0, x0[1] + 2.0, x0[2] + 2.0])
        assert out.f_star == pytest.approx(objective(out.x), rel=1e-12)
        assert out.f_star <= search_f(objective, x0, lower, upper) * (1.0 + 1e-8)


class TestFitInterestBox:
    GRID = np.linspace(1960.0, 2014.0, 55)

    def bundled(self):
        names = ("gdp", "mbcurrcir", "ambsl", "gs10", "tb3ms")
        return [bundled_series(name) for name in names], self.GRID

    def test_default_box_holds_k_p_on_its_upper_bound(self):
        series, grid = self.bundled()
        cal = bundled_params()
        x0 = np.array([cal["k_i"], cal["k_p"]])
        out = fit_interest(*series, grid, x0)
        assert out.converged
        assert out.params()["k_p"] == pytest.approx(5.0 * cal["k_p"], rel=1e-12)
        assert out.params()["k_p"] <= 5.0 * cal["k_p"]
        assert 0.2 * cal["k_i"] < out.params()["k_i"] < 5.0 * cal["k_i"]

    def test_at_bound_names_k_p_in_the_default_box_and_nothing_in_a_wide_one(self):
        series, grid = self.bundled()
        x0 = np.array([3.49, 0.124])
        out = fit_interest(*series, grid, x0)
        assert out.at_bound == ("k_p",)
        assert fit_report(out)["at_bound"] == ["k_p"]
        wide = fit_interest(*series, grid, x0, bounds=(np.zeros(2), np.full(2, np.inf)))
        assert wide.at_bound == ()
        assert fit_report(wide)["at_bound"] == []

    def test_wide_box_reproduces_lstsq_on_stacked_logs(self):
        series, grid = self.bundled()
        n, m_long, m_short, r_long, r_short = (np.asarray(interp_linear(s, grid)) for s in series)
        x0 = np.array([3.49, 0.124])
        out = fit_interest(*series, grid, x0, bounds=(np.zeros(2), np.full(2, np.inf)))
        design = np.column_stack(
            [np.log(np.concatenate([n / m_long, n / m_short])), np.ones(2 * grid.size)]
        )
        a, b = np.linalg.lstsq(design, np.log(np.concatenate([r_long, r_short])), rcond=None)[0]
        assert out.params()["k_i"] == pytest.approx(1.0 / a, rel=1e-10)
        assert out.params()["k_p"] == pytest.approx(np.exp(-b / a), rel=1e-10)


    def test_rates_falling_with_n_over_m_leave_k_i_unbounded(self):
        # with no upper bound on k_i the best slope 1/k_i is 0
        rate = 0.05 * np.exp(-0.01 * U)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelDomainError, match="k_i is unbounded"):
                fit_interest(
                    ts(N), ts(M), ts(MB), ts(rate), ts(rate), GRID, np.array([3.0, 0.2]),
                    bounds=(np.zeros(2), np.full(2, np.inf)),
                )


class TestClosedFormsDoNotSearch:
    def test_interest_and_cobb_douglas_call_no_search(self, monkeypatch):
        def no_search(problem):
            raise AssertionError("closed-form fit called minimize")

        monkeypatch.setattr(fitting, "minimize", no_search)
        r_long, r_short = interest_rate(N, M, IR), interest_rate(N, MB, IR)
        fit_interest(ts(N), ts(M), ts(MB), ts(r_long), ts(r_short), GRID, np.array([3.0, 0.2]))
        fit_cobb_douglas(ts(cobb_douglas(CAPITAL, LABOR, CD)), ts(CAPITAL), ts(LABOR), GRID)

    def test_price_level_searches_one_parameter(self, monkeypatch):
        sizes = []

        def recording(problem):
            sizes.append(problem.x0.size)
            return minimize(problem)

        monkeypatch.setattr(fitting, "minimize", recording)
        fit_price_level(ts(N), ts(M), ts(price_level(N, M, PL)), GRID, np.array([0.5, 7e-4, 500.0]))
        assert sizes == [1]


def fit_call(model, sign=1.0):
    """fit(x0, bounds) on synthetic data whose fitted series is multiplied by sign."""
    if model == "price-level":
        data = (ts(N), ts(M), ts(sign * price_level(N, M, PL)))
        return lambda x0, bounds: fit_price_level(*data, GRID, x0, bounds), np.array([0.6, 6e-4, 600.0])
    if model == "interest":
        data = (ts(N), ts(M), ts(MB), ts(sign * interest_rate(N, M, IR)), ts(interest_rate(N, MB, IR)))
        return lambda x0, bounds: fit_interest(*data, GRID, x0, bounds), np.array([3.0, 0.2])
    data = (ts(sign * cobb_douglas(CAPITAL, LABOR, CD)), ts(CAPITAL), ts(LABOR))
    return lambda x0, bounds: fit_cobb_douglas(*data, GRID, x0, bounds), np.array([0.002, 0.5, 0.8])


INVALID = {
    "x0 wrong shape": lambda x0: (x0[:-1], None),
    "x0 not finite": lambda x0: (np.r_[x0[:-1], np.nan], None),
    "x0 not positive": lambda x0: (np.r_[-x0[0], x0[1:]], None),
    "bounds wrong shape": lambda x0: (x0, (x0[:-1] / 2.0, x0[:-1] * 2.0)),
    "lower above upper": lambda x0: (x0, (x0 * 2.0, x0 / 2.0)),
    "x0 outside explicit box": lambda x0: (x0, (x0 * 1.5, x0 * 2.0)),
    "negative bound on a positive parameter": lambda x0: (x0, (np.r_[-1.0, x0[1:] / 2.0], x0 * 2.0)),
}


class TestFitValidation:
    @pytest.mark.parametrize("model", ["price-level", "interest", "cobb-douglas"])
    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_rejects_invalid_start_or_box(self, model, case):
        fit, x0 = fit_call(model)
        fit(x0, None)  # the valid problem fits
        with pytest.raises(DomainError):
            fit(*INVALID[case](x0))

    @pytest.mark.parametrize("model", ["price-level", "interest", "cobb-douglas"])
    def test_log_transform_requires_positive_data(self, model):
        fit, x0 = fit_call(model, sign=-1.0)
        with pytest.raises(DomainError, match="positive data"):
            fit(x0, None)

    @pytest.mark.parametrize("model", ["price-level", "interest", "cobb-douglas"])
    def test_at_bound_names_exactly_the_parameters_on_a_bound(self, model):
        fit, x0 = fit_call(model)
        lower, upper = x0 * 0.9, x0 * 1.05
        out = fit(x0, (lower, upper))
        on = np.isclose(out.x, lower, rtol=1e-10, atol=0.0) | np.isclose(out.x, upper, rtol=1e-10, atol=0.0)
        assert out.at_bound == tuple(np.array(out.names)[on])
        assert out.at_bound  # this box binds for every model
        assert fit(x0, None).at_bound == ()

    @pytest.mark.parametrize("model", ["price-level", "interest", "cobb-douglas"])
    def test_returned_parameters_lie_in_the_box(self, model):
        fit, x0 = fit_call(model)
        lower, upper = x0 * 0.9, x0 * 1.05
        out = fit(x0, (lower, upper))
        assert np.all(out.x >= lower) and np.all(out.x <= upper)
        assert out.f_star == float(out.residuals @ out.residuals)


class TestRankDeficientFits:
    def test_price_level_on_one_point_grid(self):
        grid = np.array([1990.0])
        with pytest.raises(RankDeficient):
            fit_price_level(ts(N), ts(M), ts(price_level(N, M, PL)), grid, np.array([0.6, 6e-4, 600.0]))

    def test_cobb_douglas_on_one_point_grid(self):
        grid = np.array([1990.0])
        with pytest.raises(RankDeficient):
            fit_cobb_douglas(ts(cobb_douglas(CAPITAL, LABOR, CD)), ts(CAPITAL), ts(LABOR), grid)

    def test_interest_on_constant_n_over_m(self):
        m = 0.05 * N
        rate = interest_rate(N, m, IR)
        with pytest.raises(RankDeficient):
            fit_interest(ts(N), ts(m), ts(m), ts(rate), ts(rate), GRID, np.array([3.0, 0.2]))
