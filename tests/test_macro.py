import math
import warnings

import numpy as np
import pytest

from infoeq import (
    CobbDouglasParams,
    CurveShift,
    DegenerateEquilibrium,
    DomainError,
    EntropyParams,
    IERelation,
    InterestParams,
    ModelDomainError,
    PriceLevelParams,
    SolowCapitalParams,
    TimeSeries,
    adas_curves,
    adas_equilibrium,
    cobb_douglas,
    demand_curve,
    growth_relations,
    inflation_model,
    interest_rate,
    interp_linear,
    islm_curves,
    islm_equilibrium,
    k_index,
    k_index_gradient,
    log_growth,
    money_mediation,
    okun_hours,
    output_investment_relation,
    price_level,
    price_level_at_index,
    ridge_sigma,
    solow_crossing,
    solow_depreciation,
    solow_equilibrium,
    solow_investment,
    supply_curve,
)
from infoeq.macro import _bisect_root

US = PriceLevelParams(alpha=0.641, gamma=5.93e-4, m0=603.8)

# 50-digit reference values at n=15518, m=915 with the parameters above
K_REF = 1.360799498075763006853
P_REF = 1.013413245845118380402
DK_DN_REF = 8.213270063866724304281e-06
DK_DM_REF = -1.895504837654007211366e-04
# 100 ** (1/3.49)
I_REF = 3.741673624754695626536


class TestKIndex:
    def test_reference_value(self):
        assert k_index(15518.0, 915.0, US) == pytest.approx(K_REF, rel=1e-14)

    def test_equals_ratio_of_logs(self):
        scale = US.gamma * US.m0
        n, m = 4000.0, 300.0
        expect = math.log(n / scale) / math.log(m / scale)
        assert k_index(n, m, US) == pytest.approx(expect, rel=1e-15)

    def test_array_broadcast(self):
        n = np.array([1000.0, 2000.0])
        out = k_index(n, 300.0, US)
        assert out.shape == (2,)
        assert out[0] == k_index(1000.0, 300.0, US)

    def test_rejects_ratio_at_or_below_one(self):
        scale = US.gamma * US.m0
        with pytest.raises(ModelDomainError):
            k_index(scale, 300.0, US)
        with pytest.raises(ModelDomainError):
            k_index(1000.0, 0.9 * scale, US)

    def test_gradient_reference_values(self):
        dk_dn, dk_dm = k_index_gradient(15518.0, 915.0, US)
        assert dk_dn == pytest.approx(DK_DN_REF, rel=1e-13)
        assert dk_dm == pytest.approx(DK_DM_REF, rel=1e-13)

    def test_gradient_matches_finite_differences(self):
        n, m = 5000.0, 400.0
        dk_dn, dk_dm = k_index_gradient(n, m, US)
        h = 1e-6 * n
        fd_n = (k_index(n + h, m, US) - k_index(n - h, m, US)) / (2 * h)
        h = 1e-6 * m
        fd_m = (k_index(n, m + h, US) - k_index(n, m - h, US)) / (2 * h)
        assert dk_dn == pytest.approx(fd_n, rel=1e-7)
        assert dk_dm == pytest.approx(fd_m, rel=1e-7)


class TestPriceLevel:
    def test_reference_value(self):
        assert price_level(15518.0, 915.0, US) == pytest.approx(P_REF, rel=1e-14)

    def test_quantity_theory_limit_at_fixed_index(self):
        # k pinned at 2 collapses the price level to P proportional to m
        m = np.geomspace(10.0, 10000.0, 50)
        ratio = price_level_at_index(2.0, m, US.alpha, US.m0) / m
        spread = np.max(ratio) / np.min(ratio) - 1.0
        assert spread < 1e-12

    def test_index_two_data_reduce_to_quantity_theory(self):
        scale = US.gamma * US.m0
        m = np.geomspace(50.0, 2000.0, 20)
        n = scale * (m / scale) ** 2
        k = k_index(n, m, US)
        assert np.allclose(k, 2.0, rtol=1e-13)
        p = price_level(n, m, US)
        assert np.allclose(p / m, 2.0 * US.alpha / US.m0, rtol=1e-12)

    def test_rejects_non_positive_index_or_m(self):
        with pytest.raises(ModelDomainError):
            price_level_at_index(-1.0, 100.0, 1.0, 1.0)
        with pytest.raises(ModelDomainError):
            price_level_at_index(2.0, 0.0, 1.0, 1.0)

    def test_params_validated(self):
        with pytest.raises(DomainError):
            PriceLevelParams(alpha=0.0, gamma=1.0, m0=1.0)


class TestInflationModel:
    def grid(self):
        return np.linspace(1990.0, 2010.0, 21)

    def series(self):
        t = np.linspace(1985.0, 2015.0, 121)
        m = 100.0 * np.exp(0.06 * (t - 1985.0))
        scale = US.gamma * US.m0
        n = scale * (m / scale) ** 2
        return TimeSeries(t, n), TimeSeries(t, m)

    def test_equals_growth_of_model_price_series(self):
        n_ts, m_ts = self.series()
        grid = self.grid()
        out = inflation_model(n_ts, m_ts, US, grid)
        p = price_level(interp_linear(n_ts, grid), interp_linear(m_ts, grid), US)
        expect = log_growth(TimeSeries(grid, p))
        assert np.array_equal(out.v, expect.v)
        assert out.units == "1/yr"

    def test_index_two_inflation_tracks_money_growth(self):
        n_ts, m_ts = self.series()
        out = inflation_model(n_ts, m_ts, US, self.grid())
        # interior points: linear interpolation of the exponential biases
        # levels slightly, but growth stays within a tenth of a percent
        assert np.allclose(out.v[1:-1], 0.06, atol=1e-3)

    def test_growth_relation_identities(self):
        pi, gn = growth_relations(1.4, 0.05)
        assert pi == pytest.approx(0.4 * 0.05, rel=1e-15)
        assert gn == pytest.approx(1.4 * 0.05, rel=1e-15)
        pi, gn = growth_relations(np.array([1.0, 2.0]), 0.1)
        assert np.allclose(pi, [0.0, 0.1])
        assert np.allclose(gn, [0.1, 0.2])


class TestInterestRate:
    def test_reference_value(self):
        params = InterestParams(k_i=3.49, k_p=0.124)
        assert interest_rate(12.4, 1.0, params) == pytest.approx(I_REF, rel=1e-14)

    def test_homogeneous_of_degree_zero(self):
        params = InterestParams(k_i=2.0, k_p=0.5)
        assert interest_rate(30.0, 10.0, params) == pytest.approx(
            interest_rate(3.0, 1.0, params), rel=1e-14
        )

    def test_power_law_identity(self):
        params = InterestParams(k_i=3.49, k_p=0.124)
        i = interest_rate(1000.0, 40.0, params)
        assert i**params.k_i == pytest.approx((1000.0 / 40.0) / params.k_p, rel=1e-12)

    def test_rejects_non_positive(self):
        params = InterestParams(k_i=1.0, k_p=1.0)
        with pytest.raises(ModelDomainError):
            interest_rate(0.0, 1.0, params)


class TestOkunHours:
    def test_identity_on_grid(self):
        t = np.linspace(2000.0, 2010.0, 41)
        n_ts = TimeSeries(t, 100.0 * np.exp(0.05 * (t - 2000.0)))
        p_ts = TimeSeries(t, 1.0 + 0.02 * (t - 2000.0))
        grid = np.linspace(2001.0, 2009.0, 17)
        hours = okun_hours(n_ts, p_ts, k_h=60.0, grid=grid)
        n = interp_linear(n_ts, grid)
        p = interp_linear(p_ts, grid)
        assert np.allclose(hours.v * p * 60.0, n, rtol=1e-12)
        assert hours.units == "h"

    def test_hours_growth_equals_real_growth(self):
        t = np.linspace(2000.0, 2010.0, 101)
        n_ts = TimeSeries(t, 100.0 * np.exp(0.05 * (t - 2000.0)))
        p_ts = TimeSeries(t, np.exp(0.02 * (t - 2000.0)))
        hours = okun_hours(n_ts, p_ts, k_h=60.0, grid=t)
        g = log_growth(hours)
        assert np.allclose(g.v, 0.03, atol=1e-4)


class TestCobbDouglas:
    def test_scalar_value(self):
        params = CobbDouglasParams(a=2.0, k1=0.5, k2=0.5)
        assert cobb_douglas(4.0, 9.0, params) == pytest.approx(2.0 * 2.0 * 3.0, rel=1e-14)

    def test_series_form(self):
        t = np.array([0.0, 1.0, 2.0])
        cap = TimeSeries(t, [1.0, 4.0, 9.0])
        lab = TimeSeries(t, [1.0, 1.0, 1.0])
        params = CobbDouglasParams(a=3.0, k1=0.5, k2=1.0)
        out = cobb_douglas(cap, lab, params)
        assert isinstance(out, TimeSeries)
        assert np.allclose(out.v, [3.0, 6.0, 9.0], rtol=1e-14)

    def test_series_timestamps_must_match(self):
        a = TimeSeries([0.0, 1.0], [1.0, 2.0])
        b = TimeSeries([0.0, 2.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            cobb_douglas(a, b, CobbDouglasParams(a=1.0, k1=1.0, k2=1.0))

    def test_negative_exponents_allowed(self):
        params = CobbDouglasParams(a=1.0, k1=-1.0, k2=2.0)
        assert cobb_douglas(2.0, 3.0, params) == pytest.approx(4.5, rel=1e-14)


class TestSolow:
    PARAMS = SolowCapitalParams(sigma=2.0, delta=1.2, k0=100.0, i0=10.0, dep0=8.0)

    def test_curves_pass_through_reference(self):
        assert solow_investment(100.0, self.PARAMS) == pytest.approx(10.0, rel=1e-15)
        assert solow_depreciation(100.0, self.PARAMS) == pytest.approx(8.0, rel=1e-15)

    def test_closed_form_crossing(self):
        k_star = solow_equilibrium(self.PARAMS)
        i = solow_investment(k_star, self.PARAMS)
        d = solow_depreciation(k_star, self.PARAMS)
        assert i == pytest.approx(d, rel=1e-12)

    def test_numeric_crossing_agrees(self):
        assert solow_crossing(self.PARAMS) == pytest.approx(
            solow_equilibrium(self.PARAMS), rel=1e-9
        )

    def test_equilibrium_is_stable_for_sigma_above_delta(self):
        k_star = solow_equilibrium(self.PARAMS)
        below, above = 0.5 * k_star, 2.0 * k_star
        assert solow_investment(below, self.PARAMS) > solow_depreciation(below, self.PARAMS)
        assert solow_investment(above, self.PARAMS) < solow_depreciation(above, self.PARAMS)

    def test_equilibrium_beyond_float_range_is_domain_error(self):
        with pytest.raises(DomainError, match="^solow_equilibrium: exp.* exceeds the float range$"):
            solow_equilibrium(SolowCapitalParams(1.0, 0.999, 1.0, 1e10, 1.0))

    def test_degenerate_when_indices_match(self):
        params = SolowCapitalParams(sigma=1.5, delta=1.5, k0=1.0, i0=2.0, dep0=1.0)
        with pytest.raises(DegenerateEquilibrium):
            solow_equilibrium(params)
        with pytest.raises(DegenerateEquilibrium):
            solow_crossing(params)


class TestADAS:
    N0, S0, KA, NREF, SREF = 120.0, 11.0, 1.4, 100.0, 10.0

    def curves(self, sweep):
        return adas_curves(self.N0, self.S0, self.KA, self.NREF, self.SREF, sweep, sweep)

    def test_ad_falls_and_sras_rises(self):
        sweep = np.linspace(-20.0, 20.0, 41)
        out = self.curves(sweep)
        assert np.all(np.diff(out.ad[:, 1]) < 0)
        assert np.all(np.diff(out.sras[:, 1]) > 0)

    def test_ad_is_a_demand_curve_in_disguise(self):
        # the exponential AD curve is the constant-source demand curve of
        # the relation with index k_a and source level n0/k_a**2
        sweep = np.linspace(-15.0, 15.0, 11)
        out = self.curves(sweep)
        rel = IERelation(k=self.KA, d_ref=self.N0 / self.KA**2, s_ref=self.SREF)
        s = self.SREF * np.exp(self.KA * sweep / self.N0)
        price, delta = demand_curve(rel, d0=self.N0 / self.KA**2, s=s)
        assert np.allclose(price, out.ad[:, 1], rtol=1e-12)
        assert np.allclose(delta, sweep, rtol=1e-10, atol=1e-10)

    def test_sras_is_a_supply_curve_in_disguise(self):
        sweep = np.linspace(-15.0, 15.0, 11)
        out = self.curves(sweep)
        rel = IERelation(k=1.0 / self.KA, d_ref=self.NREF, s_ref=self.SREF)
        d = self.NREF * np.exp(sweep / (self.KA * self.S0))
        price, delta = supply_curve(rel, s0=self.S0, d=d)
        assert np.allclose(price, out.sras[:, 1], rtol=1e-12)
        assert np.allclose(delta, sweep, rtol=1e-10, atol=1e-10)

    def test_lras_follows_general_equilibrium_price(self):
        sweep = np.array([0.0])
        out = self.curves(sweep)
        s, p = out.lras[:, 0], out.lras[:, 1]
        rel = IERelation(k=self.KA, d_ref=self.NREF, s_ref=self.SREF)
        from infoeq import ge_price

        assert np.allclose(p, ge_price(rel, s), rtol=1e-13)

    def test_equilibrium_lies_on_both_curves(self):
        x_star, p_star = adas_equilibrium(self.N0, self.S0, self.KA, self.NREF, self.SREF)
        out = adas_curves(
            self.N0, self.S0, self.KA, self.NREF, self.SREF, np.array([x_star]), np.array([x_star])
        )
        assert out.ad[0, 1] == pytest.approx(p_star, rel=1e-12)
        assert out.sras[0, 1] == pytest.approx(p_star, rel=1e-9)

    def test_positive_supply_shift_lowers_price(self):
        _, p0 = adas_equilibrium(self.N0, self.S0, self.KA, self.NREF, self.SREF)
        x1, p1 = adas_equilibrium(
            self.N0, self.S0, self.KA, self.NREF, self.SREF, supply_shift=5.0
        )
        assert p1 < p0
        # shifted SRAS evaluated at x - shift reproduces the same price
        out = adas_curves(
            self.N0, self.S0, self.KA, self.NREF, self.SREF,
            np.array([x1]), np.array([x1 - 5.0]),
        )
        assert out.sras[0, 1] == pytest.approx(p1, rel=1e-9)


class TestISLM:
    ARGS = dict(n0=100.0, m_ref=50.0, s_ref=20.0, k_p=0.3, k_s=1.1, k_i=2.5)

    def test_lm_falls_in_delta_m_and_is_falls_in_delta_n(self):
        sweep = np.linspace(-10.0, 10.0, 21)
        out = islm_curves(
            self.ARGS["n0"], CurveShift(), self.ARGS["m_ref"], self.ARGS["s_ref"],
            self.ARGS["k_p"], self.ARGS["k_s"], self.ARGS["k_i"], sweep,
        )
        assert np.all(np.diff(out.lm[:, 1]) < 0)
        assert np.all(np.diff(out.is_curve[:, 1]) < 0)

    def test_monetary_expansion_lowers_rate_raises_output(self):
        x0, i0 = islm_equilibrium(**self.ARGS)
        x1, i1 = islm_equilibrium(**self.ARGS, delta_m=8.0)
        assert i1 < i0
        assert x1 > x0

    def test_fiscal_shift_raises_rate_and_output(self):
        x0, i0 = islm_equilibrium(**self.ARGS)
        x1, i1 = islm_equilibrium(**self.ARGS, is_shift=10.0)
        assert i1 > i0 and x1 > x0

    def test_equilibrium_rate_consistent_with_curves(self):
        delta_m = 6.0
        x_star, i_star = islm_equilibrium(**self.ARGS, delta_m=delta_m)
        # LM as a function of delta_n at fixed delta_m: reconstruct directly
        n_eff = self.ARGS["n0"] + x_star
        lm_pow = (n_eff / (self.ARGS["k_p"] * self.ARGS["m_ref"])) * math.exp(
            -self.ARGS["k_p"] * delta_m / n_eff
        )
        is_pow = (self.ARGS["n0"] / (self.ARGS["k_s"] * self.ARGS["s_ref"])) * math.exp(
            -self.ARGS["k_s"] * x_star / self.ARGS["n0"]
        )
        assert lm_pow ** (1 / self.ARGS["k_i"]) == pytest.approx(i_star, rel=1e-12)
        assert is_pow ** (1 / self.ARGS["k_i"]) == pytest.approx(i_star, rel=1e-9)

    def test_shifted_source_must_stay_positive(self):
        with pytest.raises(ModelDomainError):
            islm_curves(
                10.0, CurveShift(delta_n=-10.0), 50.0, 20.0, 0.3, 1.1, 2.5, np.array([0.0])
            )


class TestSmallPieces:
    def test_money_mediation(self):
        assert money_mediation(2.8, 2.0) == pytest.approx(1.4, rel=1e-15)

    def test_output_investment_relation_defaults_to_unit_index(self):
        rel = output_investment_relation(100.0, 20.0)
        assert rel.k == 1.0 and rel.d_ref == 100.0 and rel.s_ref == 20.0

    def test_ridge_sigma_reference_value(self):
        assert ridge_sigma(1.5, 1e-2) == pytest.approx(0.07925722298092989407228, rel=1e-14)

    def test_ridge_sigma_formula(self):
        kappa, gamma = 2.0, 0.3
        expect = gamma * math.exp(-(kappa + math.log(gamma)) / kappa)
        assert ridge_sigma(kappa, gamma) == expect

    def test_ridge_sigma_beyond_float_range_is_domain_error(self):
        with pytest.raises(DomainError, match="^ridge_sigma: exp.* exceeds the float range$"):
            ridge_sigma(1e-3, 1e-300)

    def test_ridge_sigma_in_range_although_its_exponent_is_not(self):
        # exp(1398.97...) overflows, but gamma * exp(...) = exp(698.98...) does not
        sigma = ridge_sigma(0.5, 1e-304)
        assert math.isfinite(sigma)
        assert sigma == pytest.approx(math.exp(math.log(1e-304) * (1.0 - 1.0 / 0.5) - 1.0), rel=1e-12)

    @pytest.mark.parametrize("kappa, gamma", [(1e-3, 1e-300), (0.5, 1e-310)])
    def test_ridge_sigma_beyond_float_range_still_raises(self, kappa, gamma):
        with pytest.raises(DomainError, match="^ridge_sigma: exp.* exceeds the float range$"):
            ridge_sigma(kappa, gamma)

    def test_ridge_sigma_rejects_non_positive(self):
        with pytest.raises(DomainError):
            ridge_sigma(0.0, 1.0)
        with pytest.raises(DomainError):
            ridge_sigma(1.0, -1.0)


SOLOW = SolowCapitalParams(sigma=2.0, delta=1.0, k0=1.0, i0=1.0, dep0=1.0)


def _okun_with_k_h(k_h):
    t = np.array([2000.0, 2001.0])
    return okun_hours(TimeSeries(t, [1.0, 2.0]), TimeSeries(t, [1.0, 1.0]), k_h, t)


# each model fed one non-finite value where it takes model data
NON_FINITE_CALLS = {
    "interest_rate": lambda bad: interest_rate(bad, 1.0, InterestParams(1.0, 1.0)),
    "cobb_douglas": lambda bad: cobb_douglas(bad, 1.0, CobbDouglasParams(1.0, 0.3, 0.7)),
    "price_level_at_index": lambda bad: price_level_at_index(bad, 1.0, 1.0, 1.0),
    "solow_investment": lambda bad: solow_investment(bad, SOLOW),
    "solow_depreciation": lambda bad: solow_depreciation(bad, SOLOW),
    "okun_hours": _okun_with_k_h,
    "growth_relations": lambda bad: growth_relations(1.4, bad),
}


class TestNonFiniteModelData:
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("model", sorted(NON_FINITE_CALLS))
    def test_raises_model_domain_error(self, model, bad):
        with pytest.raises(ModelDomainError):
            NON_FINITE_CALLS[model](bad)

    @pytest.mark.parametrize("model", sorted(set(NON_FINITE_CALLS) - {"okun_hours"}))
    def test_one_nan_in_an_array_is_enough(self, model):
        with pytest.raises(ModelDomainError):
            NON_FINITE_CALLS[model](np.array([2.0, math.nan, 3.0]))


class TestParamsFieldsMustBeRealNumbers:
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: IERelation(k=v, d_ref=1.0, s_ref=1.0),
            lambda v: PriceLevelParams(alpha=1.0, gamma=v, m0=1.0),
            lambda v: InterestParams(k_i=v, k_p=1.0),
            lambda v: CobbDouglasParams(a=1.0, k1=v, k2=0.5),
            lambda v: SolowCapitalParams(sigma=2.0, delta=1.0, k0=v, i0=1.0, dep0=1.0),
            lambda v: EntropyParams(k=v, gamma=1.0, m0=1.0),
        ],
        ids=["IERelation", "PriceLevel", "Interest", "CobbDouglas", "SolowCapital", "Entropy"],
    )
    @pytest.mark.parametrize("value", ["1", np.array([1.0, 2.0]), None], ids=["str", "array", "None"])
    def test_non_real_field_raises_domain_error(self, make, value):
        make(1.0)  # a real value is accepted
        with pytest.raises(DomainError):
            make(value)


ADAS = dict(n0=100.0, s0=80.0, k_a=1.4, n_ref=90.0, s_ref=75.0)
ISLM = dict(n0=100.0, m_ref=35.0, s_ref=90.0, k_p=2.0, k_s=1.3, k_i=2.6)


class TestEquilibriumArguments:
    @pytest.mark.parametrize(
        "name, value",
        [("n0", -1.0), ("s0", 0.0), ("k_a", math.nan), ("n_ref", math.inf), ("s_ref", -2.0),
         ("supply_shift", math.nan)],
    )
    def test_adas_rejects_bad_argument(self, name, value):
        with pytest.raises(DomainError, match=name):
            adas_equilibrium(**{**ADAS, name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("n0", 0.0), ("m_ref", -1.0), ("s_ref", math.nan), ("k_p", -0.3), ("k_s", math.inf),
         ("k_i", 0.0), ("delta_m", math.inf), ("is_shift", math.nan)],
    )
    def test_islm_rejects_bad_argument(self, name, value):
        with pytest.raises(DomainError, match=name):
            islm_equilibrium(**{**ISLM, name: value})


class TestADASClosedForm:
    @pytest.mark.parametrize("shift", [0.0, 3.0, -40.0, 250.0])
    def test_crossing_lies_on_both_curves(self, shift):
        x_star, p_star = adas_equilibrium(**ADAS, supply_shift=shift)
        out = adas_curves(**ADAS, delta_n=np.array([x_star]), delta_s=np.array([x_star - shift]))
        assert out.ad[0, 1] == pytest.approx(p_star, rel=1e-13)
        assert out.sras[0, 1] == pytest.approx(p_star, rel=1e-13)

    @pytest.mark.parametrize("shift", [0.0, 3.0, -40.0, 250.0])
    def test_agrees_with_bisection(self, shift):
        n0, s0, k_a, n_ref, s_ref = ADAS.values()

        def gap(x):  # log SRAS - log AD, the function the crossing used to be bisected on
            log_ad = math.log(n0 / (k_a * s_ref)) - k_a * x / n0
            log_sras = math.log(n_ref / (k_a * s0)) + (x - shift) / (k_a * s0)
            return log_sras - log_ad

        x_star, _ = adas_equilibrium(**ADAS, supply_shift=shift)
        assert x_star == pytest.approx(_bisect_root(gap, 0.0, tol=1e-10), rel=1e-10)


class TestProductsAtTheFloatRange:
    """Products that are not exponentials are formed from their logs: beyond
    the float range a DomainError names the function, and no warning leaks."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize(
        "name, call",
        [
            ("supply_curve", lambda: supply_curve(IERelation(1e-300, 1.0, 1.0), 1e300, 2.0)),
            ("growth_relations", lambda: growth_relations(1e300, 1e300)),
            ("k_index_gradient",
             lambda: k_index_gradient(1e300, 1.0000000000001e-300, PriceLevelParams(1.0, 1e-300, 1.0))),
        ],
    )
    def test_beyond_the_range_names_the_function(self, name, call):
        with pytest.raises(DomainError, match=f"^{name}: "):
            call()

    def test_an_overflowing_scale_times_a_zero_log_is_zero(self):
        price, shift = demand_curve(IERelation(1e300, 1.0, 1e300), 1e300, 1e300)
        assert math.isfinite(price)
        assert shift == 0.0

    def test_an_overflowing_scale_times_a_small_log_is_returned(self):
        # k*d0 and s0/k are 1e310, log(s/s_ref) about 1e-12 and log(d/d_ref) 2**-52
        s = 1e5 * (1.0 + 1e-12)
        _, shift = demand_curve(IERelation(1e300, 1.0, 1e5), 1e10, s)
        assert shift == pytest.approx(1e300 * (math.log(s) - math.log(1e5)) * 1e10, rel=1e-13)
        assert 1e297 < shift < 1e299
        _, shift = supply_curve(IERelation(1e-300, 1.0, 1.0), 1e10, 1.0 + 2.0**-52)
        assert shift == pytest.approx(1e300 * 2.0**-52 * 1e10, rel=1e-13)

    def test_islm_crossing_where_both_curves_overflow(self):
        # near the crossing both slope terms exceed the float range, so their
        # logs are compared; x* = sqrt(1e-17) to an mpmath bisection at 60 digits
        x_star, i_star = islm_equilibrium(1e-155, 1.0, 1.0, 1.0, 1e162, 1.0, 1e300, 0.0)
        assert x_star == pytest.approx(3.162277660168379e-9, rel=1e-9)
        assert i_star == 0.0
