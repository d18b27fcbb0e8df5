import math
import warnings

import numpy as np
import pytest

from infoeq import (
    DomainError,
    IERelation,
    LinearizedCurves,
    compose,
    constant_price,
    constant_price_delta,
    demand_curve,
    elasticities,
    ge_price,
    ge_source,
    invert,
    linearize,
    ode_oracle,
    supply_curve,
)

# high-precision reference values for k=1.7, d_ref=3, s_ref=2 at s=5
GE_SOURCE_REF = 14.24358361748201015081
GE_PRICE_REF = 4.842818429943883451275


def random_relations(n, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield IERelation(
            k=float(rng.uniform(0.2, 5.0)),
            d_ref=float(rng.uniform(0.1, 100.0)),
            s_ref=float(rng.uniform(0.1, 100.0)),
        )


class TestIERelation:
    def test_rejects_non_positive_fields(self):
        with pytest.raises(DomainError):
            IERelation(k=0.0, d_ref=1.0, s_ref=1.0)
        with pytest.raises(DomainError):
            IERelation(k=1.0, d_ref=-1.0, s_ref=1.0)
        with pytest.raises(DomainError):
            IERelation(k=1.0, d_ref=1.0, s_ref=math.inf)

    def test_detector_is_informational(self):
        rel = IERelation(k=1.0, d_ref=1.0, s_ref=1.0, detector="price")
        assert rel.detector == "price"


class TestGeneralEquilibrium:
    def test_source_matches_reference_value(self):
        rel = IERelation(k=1.7, d_ref=3.0, s_ref=2.0)
        assert ge_source(rel, 5.0) == pytest.approx(GE_SOURCE_REF, rel=1e-14)

    def test_price_matches_reference_value(self):
        rel = IERelation(k=1.7, d_ref=3.0, s_ref=2.0)
        assert ge_price(rel, 5.0) == pytest.approx(GE_PRICE_REF, rel=1e-14)

    def test_passes_through_reference_point(self):
        for rel in random_relations(20, seed=1):
            assert ge_source(rel, rel.s_ref) == pytest.approx(rel.d_ref, rel=1e-14)

    def test_price_is_k_times_ratio(self):
        # P = dD/dS = k * D/S everywhere on the solution
        rel = IERelation(k=2.3, d_ref=7.0, s_ref=3.0)
        s = np.geomspace(0.5, 20.0, 15)
        d = ge_source(rel, s)
        assert np.allclose(ge_price(rel, s), rel.k * d / s, rtol=1e-13)

    def test_array_and_scalar_forms_agree(self):
        rel = IERelation(k=1.1, d_ref=2.0, s_ref=4.0)
        s = np.array([1.0, 2.0, 8.0])
        arr = ge_source(rel, s)
        assert arr.shape == (3,)
        assert arr[1] == ge_source(rel, 2.0)

    def test_rejects_non_positive_s(self):
        rel = IERelation(k=1.0, d_ref=1.0, s_ref=1.0)
        with pytest.raises(DomainError):
            ge_source(rel, 0.0)
        with pytest.raises(DomainError):
            ge_price(rel, [1.0, -2.0])


class TestPartialEquilibrium:
    def test_demand_price_form(self):
        rel = IERelation(k=1.5, d_ref=10.0, s_ref=4.0)
        price, delta = demand_curve(rel, d0=10.0, s=4.0)
        assert price == pytest.approx(1.5 * 10.0 / 4.0, rel=1e-15)
        assert delta == 0.0

    def test_demand_price_falls_as_quantity_rises(self):
        rel = IERelation(k=1.5, d_ref=10.0, s_ref=4.0)
        s = np.linspace(2.0, 8.0, 30)
        price, delta = demand_curve(rel, d0=10.0, s=s)
        assert np.all(np.diff(delta) > 0)
        assert np.all(np.diff(price) < 0)

    def test_supply_price_rises_with_quantity(self):
        rel = IERelation(k=1.5, d_ref=10.0, s_ref=4.0)
        d = np.linspace(5.0, 20.0, 30)
        price, delta = supply_curve(rel, s0=4.0, d=d)
        assert np.all(np.diff(delta) > 0)
        assert np.all(np.diff(price) > 0)

    def test_supply_shift_form(self):
        rel = IERelation(k=2.0, d_ref=6.0, s_ref=3.0)
        price, delta = supply_curve(rel, s0=3.0, d=12.0)
        assert price == pytest.approx(2.0 * 12.0 / 3.0, rel=1e-15)
        assert delta == pytest.approx((3.0 / 2.0) * math.log(2.0), rel=1e-15)

    def test_constant_price_is_ratio_of_deltas(self):
        rel = IERelation(k=1.3, d_ref=5.0, s_ref=2.0)
        p = constant_price(rel, d0=5.0, s0=2.0)
        assert p == 1.3 * 5.0 / 2.0
        assert constant_price_delta(rel, 5.0, 2.0, 0.4) == pytest.approx(p * 0.4)

    def test_constant_price_delta_rejects_nan_shift(self):
        rel = IERelation(k=1.3, d_ref=5.0, s_ref=2.0)
        with pytest.raises(DomainError):
            constant_price_delta(rel, 5.0, 2.0, np.array([0.4, math.nan]))


class TestLinearize:
    def test_coefficient_forms(self):
        rel = IERelation(k=1.7, d_ref=3.0, s_ref=2.0)
        lin = linearize(rel, d0=3.0, s0=2.0)
        assert lin.alpha == pytest.approx(3.0 + 1.7 * 3.0, rel=1e-15)
        assert lin.beta == 2.0
        assert lin.gamma == pytest.approx(2.0 - 2.0 / 1.7, rel=1e-15)
        assert lin.delta == pytest.approx(4.0 / (1.7**2 * 3.0), rel=1e-15)

    def test_both_lines_pass_through_references(self):
        rel = IERelation(k=1.7, d_ref=3.0, s_ref=2.0)
        lin = linearize(rel, d0=3.0, s0=2.0)
        p_demand = rel.k * 3.0 / rel.s_ref
        assert lin.demand(p_demand) == pytest.approx(rel.d_ref, rel=1e-13)
        p_supply = rel.k * rel.d_ref / 2.0
        assert lin.supply(p_supply) == pytest.approx(rel.s_ref, rel=1e-13)

    def test_demand_slopes_down_supply_slopes_up(self):
        rel = IERelation(k=0.8, d_ref=4.0, s_ref=6.0)
        lin = linearize(rel, d0=4.0, s0=6.0)
        p = np.array([0.5, 1.0])
        assert lin.demand(p)[1] < lin.demand(p)[0]
        assert lin.supply(p)[1] > lin.supply(p)[0]

    def test_elasticities(self):
        rel = IERelation(k=1.7, d_ref=3.0, s_ref=2.0)
        e_d, e_s = elasticities(rel, d0=3.0, s0=2.0)
        assert e_d == pytest.approx(-1.7, rel=1e-15)
        assert e_s == pytest.approx(2.0 / (1.7 * 2.0), rel=1e-15)


class TestRatiosAtTheFloatRange:
    """Products and ratios of parameters beyond the float range raise a
    DomainError naming the function, with no warning on the way; one whose
    partial products leave the range but whose result does not is returned."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize(
        "name, call",
        [
            ("linearize", lambda: linearize(IERelation(1e-300, 1.0, 1.0), 1.0, 1e300)),
            ("constant_price", lambda: constant_price(IERelation(1e300, 1.0, 1.0), 1e300, 1.0)),
            ("elasticities", lambda: elasticities(IERelation(1e300, 1e-300, 1.0), 1.0, 1.0)),
            ("linearize", lambda: linearize(IERelation(1.0, 1e308, 1.0), 1e308, 1.0)),
        ],
    )
    def test_beyond_the_range_names_the_function(self, name, call):
        with pytest.raises(DomainError, match=f"^{name}: "):
            call()

    def test_partial_products_beyond_the_range(self):
        assert constant_price(IERelation(1e300, 1.0, 1.0), 1e300, 1e300) == pytest.approx(1e300, rel=1e-13)
        assert constant_price_delta(IERelation(1e-300, 1.0, 1.0), 1e-300, 1e-300, 2.0) == pytest.approx(
            2e-300, rel=1e-13
        )

    def test_in_range_values_are_the_plain_expressions(self):
        rel = IERelation(k=1.7, d_ref=3.0, s_ref=2.0)
        lin = linearize(rel, d0=2.5, s0=1.8)
        assert lin == LinearizedCurves(3.0 + 1.7 * 2.5, 2.0, 2.0 - 1.8 / 1.7, 1.8**2 / (1.7**2 * 3.0))
        assert elasticities(rel, 2.5, 1.8) == (-1.7 * 2.5 / 3.0, 1.8 / (1.7 * 2.0))


class TestInvert:
    def test_swaps_references_and_reciprocates_k(self):
        rel = IERelation(k=4.0, d_ref=3.0, s_ref=2.0, detector="p")
        inv = invert(rel)
        assert inv.k == 0.25
        assert inv.d_ref == 2.0 and inv.s_ref == 3.0
        assert inv.detector == "p"

    def test_double_inversion_is_bit_exact(self):
        # 1/(1/k) == k fails for a sizeable share of doubles, so the
        # original index is cached; the round trip must be exact anyway
        for rel in random_relations(200, seed=2):
            back = invert(invert(rel))
            assert back.k == rel.k
            assert back.d_ref == rel.d_ref and back.s_ref == rel.s_ref

    def test_single_inversion_within_one_ulp(self):
        for rel in random_relations(200, seed=3):
            product = invert(rel).k * rel.k
            assert abs(product - 1.0) <= np.spacing(1.0)

    def test_inverted_map_is_functional_inverse(self):
        rel = IERelation(k=1.9, d_ref=5.0, s_ref=3.0)
        inv = invert(rel)
        s = 7.0
        d = ge_source(rel, s)
        assert ge_source(inv, d) == pytest.approx(s, rel=1e-13)


class TestCompose:
    def test_index_product_is_exact(self):
        ab = IERelation(k=1.3, d_ref=2.0, s_ref=5.0)
        bc = IERelation(k=2.1, d_ref=5.0, s_ref=7.0)
        assert compose(ab, bc).k == 1.3 * 2.1

    def test_outer_references_survive(self):
        ab = IERelation(k=1.3, d_ref=2.0, s_ref=5.0, detector="x")
        bc = IERelation(k=2.1, d_ref=5.0, s_ref=7.0)
        ac = compose(ab, bc)
        assert ac.d_ref == 2.0 and ac.s_ref == 7.0
        assert ac.detector == "x"

    def test_matches_functional_composition_on_shared_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            mid = float(rng.uniform(0.5, 20.0))
            ab = IERelation(k=float(rng.uniform(0.2, 5.0)), d_ref=float(rng.uniform(0.5, 20.0)), s_ref=mid)
            bc = IERelation(k=float(rng.uniform(0.2, 5.0)), d_ref=mid, s_ref=float(rng.uniform(0.5, 20.0)))
            c = float(rng.uniform(0.5, 20.0))
            direct = ge_source(compose(ab, bc), c)
            chained = ge_source(ab, ge_source(bc, c))
            assert direct == pytest.approx(chained, rel=1e-12)


class TestOdeOracle:
    def test_matches_closed_form(self):
        rel = IERelation(k=1.7, d_ref=3.0, s_ref=2.0)
        assert ode_oracle(rel, 5.0) == pytest.approx(ge_source(rel, 5.0), rel=1e-10)

    def test_integrates_downward_too(self):
        rel = IERelation(k=0.6, d_ref=3.0, s_ref=4.0)
        assert ode_oracle(rel, 1.5) == pytest.approx(ge_source(rel, 1.5), rel=1e-10)

    def test_custom_start_point(self):
        rel = IERelation(k=2.0, d_ref=1.0, s_ref=1.0)
        out = ode_oracle(rel, 4.0, s_start=2.0, d_start=4.0)
        assert out == pytest.approx(16.0, rel=1e-10)

    def test_rejects_too_few_steps(self):
        rel = IERelation(k=1.0, d_ref=1.0, s_ref=1.0)
        with pytest.raises(DomainError):
            ode_oracle(rel, 2.0, steps=100)
