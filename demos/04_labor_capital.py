"""Hours, production, and the capital market.

Three views of the real side. First the hours relation H = N/(P*k_H),
which makes hours growth track real output growth one for one. Then a
two-factor production function estimated from the bundled capital and
hours series, first by the log-linear closed form and then by the
derivative-free fitter. Last, a capital market where investment fills
and depreciation drains the stock, with a closed-form equilibrium.
"""

import math

import numpy as np

from infoeq import (
    SolowCapitalParams,
    TimeSeries,
    bundled_params,
    bundled_series,
    cobb_douglas_loglinear,
    fit_cobb_douglas,
    interp_linear,
    okun_hours,
    solow_crossing,
    solow_depreciation,
    solow_equilibrium,
    solow_investment,
)

cal = bundled_params()
gdp = bundled_series("gdp")
deflator = bundled_series("pcepilfe")
hours = bundled_series("hours")
capital = bundled_series("rknanpusa")

marks = np.arange(1965.0, 2015.0, 10.0)
model_hours = okun_hours(gdp, deflator, cal["k_H"], marks)
observed = interp_linear(hours, marks)
print("hours index, model vs observed (k_H = %.3f):" % cal["k_H"])
for year, hm, ho in zip(marks, model_hours.v, observed):
    print(f"  {year:4.0f}   {hm:7.2f} / {ho:7.2f}   {hm / ho - 1.0:+6.2%}")

# production function on the annual overlap of all three series
grid = np.arange(1960.0, 2012.0)
k_in = interp_linear(capital, grid)
l_in = interp_linear(hours, grid)
n_in = interp_linear(gdp, grid)
closed = cobb_douglas_loglinear(k_in, l_in, n_in)
print(f"\nclosed-form production estimate: A={closed.a:.3e}, "
      f"k1={closed.k1:.3f}, k2={closed.k2:.3f}")
print(f"reference file values:           A={cal['A']:.3e}, "
      f"k1={cal['k1']:.3f}, k2={cal['k2']:.3f}")
print(f"exponent sum {closed.k1 + closed.k2:.3f} (1 would be constant returns)")

fit = fit_cobb_douglas(
    TimeSeries(grid, n_in), TimeSeries(grid, k_in), TimeSeries(grid, l_in), grid
)
print(f"box-constrained least squares:   A={fit.params()['A']:.3e}, "
      f"k1={fit.params()['k1']:.3f}, k2={fit.params()['k2']:.3f} "
      f"(converged={fit.converged})")

# capital market: investment vs depreciation around a reference stock
solow = SolowCapitalParams(sigma=4.0, delta=2.5, k0=50000.0, i0=3000.0, dep0=2600.0)
k_star = solow_equilibrium(solow)
k_cross = solow_crossing(solow)
print(f"\ncapital equilibrium: closed form {k_star:,.0f}, "
      f"numeric crossing {k_cross:,.0f}")
for k in (0.6 * k_star, k_star, 1.4 * k_star):
    inv = solow_investment(k, solow)
    dep = solow_depreciation(k, solow)
    if math.isclose(inv, dep, rel_tol=1e-9):
        verdict = "steady"
    else:
        verdict = "grows" if inv > dep else "shrinks"
    print(f"  K={k:9,.0f}: investment {inv:7,.0f}, depreciation {dep:7,.0f} -> {verdict}")
