"""Command line interface.

Subcommands: smooth, eval, fit, ensemble, fluctuation. `eval` and `fit`
look their model up in a table and run one pipeline: the --grid, the
--params file (eval), the --input series, each LOESS-smoothed when
--span is set, then the model or fit, then the output. All numeric
output is written at repr precision so piping through the CLI loses
nothing relative to calling the library. Exit codes: 0 success, 1 usage,
2 unreadable or malformed input, 3 domain violation (a size over
MAX_CELLS included), 4 fit did not converge (the report is still written).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .ensemble import MonteCarloConfig, fluctuation_comparison, monte_carlo, series_changes
from .errors import DomainError, InfoEqError, ParseError
from .fitting import fit_cobb_douglas, fit_interest, fit_price_level, fit_report
from .macro import (
    CurveShift,
    adas_curves,
    adas_equilibrium,
    cobb_douglas,
    inflation_model,
    interest_rate,
    islm_curves,
    islm_equilibrium,
    okun_hours,
    price_level,
    ridge_sigma,
)
from .paramfile import (
    cobb_douglas_params,
    interest_params,
    load_params,
    price_level_params,
)
from .timeseries import LoessConfig, _csv_text, interp_linear, load_csv, loess_smooth

__all__ = ["main"]

# the most cells (grid points, bins, Monte Carlo rows or draws) that one
# command-line size may ask for; larger sizes raise DomainError unallocated
MAX_CELLS = 10**7


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the convention here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_cells(cells: int, what: str) -> None:
    if cells > MAX_CELLS:
        raise DomainError(f"{what} asks for {cells} cells, over the limit of {MAX_CELLS}")


def _parse_grid(spec: str, scale: str, parser: _Parser) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        parser.error(f"grid must be start:stop:count, got {spec!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        parser.error(f"grid must be start:stop:count, got {spec!r}")
    if count < 1:
        parser.error("grid count must be at least 1")
    _check_cells(count, "grid count")
    if scale == "log" and (start <= 0.0 or stop <= 0.0):
        parser.error("log grid endpoints must be positive")
    # an infinite endpoint gives non-finite points, which every command refuses
    with np.errstate(invalid="ignore"):
        return np.geomspace(start, stop, count) if scale == "log" else np.linspace(start, stop, count)


def _require_grid(args, parser: _Parser) -> np.ndarray:
    if args.grid is None:
        parser.error("--grid is required for this model")
    return _parse_grid(args.grid, args.grid_scale, parser)


def _input_paths(args, parser: _Parser, required: tuple[str, ...]) -> dict[str, str]:
    paths: dict[str, str] = {}
    for item in args.input or []:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            parser.error(f"--input expects name=path, got {item!r}")
        if name in paths:
            parser.error(f"duplicate --input name {name!r}")
        paths[name] = path
    missing = [name for name in required if name not in paths]
    if missing:
        parser.error(f"missing --input series: {', '.join(missing)}")
    extra = [name for name in paths if name not in required]
    if extra:
        parser.error(f"unexpected --input series: {', '.join(extra)}")
    return paths


def _series(args, parser: _Parser, names: tuple[str, ...]) -> list:
    """The --input series `names`, in that order, LOESS-smoothed when --span is set."""
    smooth = None if args.span is None else LoessConfig(degree=args.degree, span=args.span)
    paths = _input_paths(args, parser, names)
    series = [load_csv(paths[name], name=name) for name in names]
    return series if smooth is None else [loess_smooth(ts, smooth) for ts in series]


def _require_scalars(args, parser: _Parser, names: tuple[str, ...]) -> list[float]:
    values = [getattr(args, name.replace("-", "_")) for name in names]
    for name, value in zip(names, values):
        if value is None:
            parser.error(f"--{name} is required for this model")
    return values


def _parse_x0(text: str, count: int, parser: _Parser) -> np.ndarray:
    try:
        values = np.array([float(p) for p in text.split(",")])
    except ValueError:
        parser.error(f"--x0 must be comma-separated numbers, got {text!r}")
    if values.size != count:
        parser.error(f"--x0 must have {count} values, got {values.size}")
    return values


# The model tables call each library function through its module-global
# name when a command runs, never through a reference kept from import
# time, so a tracer that swaps those globals sees every call.


def _on_grid(series, grid) -> list:
    return [interp_linear(ts, grid) for ts in series]


def _okun_params(params: dict[str, float]) -> float:
    if "k_H" not in params:
        raise ParseError("missing keys: k_H")
    return params["k_H"]


# model -> (--input names, values on grid t from the series s and the
# --params dict p, which each model converts to its own parameters)
SERIES_MODELS = {
    "price-level": (("n", "m"), lambda s, t, p: price_level(*_on_grid(s, t), price_level_params(p))),
    "inflation": (("n", "m"), lambda s, t, p: inflation_model(*s, price_level_params(p), t).v),
    "interest": (("n", "m"), lambda s, t, p: interest_rate(*_on_grid(s, t), interest_params(p))),
    "okun": (("n", "p"), lambda s, t, p: okun_hours(*s, _okun_params(p), t).v),
    "cobb-douglas": (("k", "l"), lambda s, t, p: cobb_douglas(*_on_grid(s, t), cobb_douglas_params(p))),
}


def _adas_crossing(base, args) -> str:
    x_star, p_star = adas_equilibrium(*base, supply_shift=args.supply_shift)
    return f"delta_n,price\n{x_star!r},{p_star!r}\n"


def _adas_sweep(base, args, sweep) -> str:
    curves = adas_curves(*base, delta_n=sweep, delta_s=sweep)
    return _csv_text("x,ad,sras", (sweep, curves.ad[:, 1], curves.sras[:, 1]))


def _islm_crossing(base, args) -> str:
    x_star, i_star = islm_equilibrium(*base, delta_m=args.delta_m, is_shift=args.is_shift)
    return f"delta_n,rate\n{x_star!r},{i_star!r}\n"


def _islm_sweep(base, args, sweep) -> str:
    n0, *rest = base
    curves = islm_curves(n0, CurveShift(delta_n=args.delta_n, delta_m=args.delta_m), *rest, sweep)
    return _csv_text("x,lm,is", (sweep, curves.lm[:, 1], curves.is_curve[:, 1]))


# model -> (required flags, in the library's argument order; --equilibrium
# writer; writer of the curves swept over --grid)
CURVE_MODELS = {
    "adas": (("n0", "s0", "k-a", "n-ref", "s-ref"), _adas_crossing, _adas_sweep),
    "islm": (("n0", "m-ref", "s-ref", "k-p", "k-s", "k-i"), _islm_crossing, _islm_sweep),
}

# model -> (--input names, --x0 names, whether --x0 is required, the fit on
# grid t of the series s from x0, None when --x0 is left out)
FITS = {
    "price-level": (
        ("n", "m", "p"),
        ("alpha", "gamma", "M0"),
        True,
        lambda s, t, x0, args: fit_price_level(*s, t, x0, tol=args.tol, max_iter=args.max_iter),
    ),
    "interest": (
        ("n", "mlong", "mshort", "rlong", "rshort"),
        ("k_i", "k_p"),
        True,
        lambda s, t, x0, args: fit_interest(*s, t, x0),
    ),
    # without x0 the fit starts from the log-linear closed form
    "cobb-douglas": (
        ("n", "k", "l"),
        ("A", "k1", "k2"),
        False,
        lambda s, t, x0, args: fit_cobb_douglas(*s, t, x0),
    ),
}


def _cmd_smooth(args, parser: _Parser) -> int:
    ts = load_csv(args.path)
    smoothed = loess_smooth(ts, LoessConfig(degree=args.degree, span=args.span))
    _emit(_csv_text("date,value", (smoothed.t, smoothed.v)), args.output)
    return 0


def _cmd_eval(args, parser: _Parser) -> int:
    if args.model == "ridge":
        kappa, gamma = _require_scalars(args, parser, ("kappa", "gamma"))
        _emit(f"{ridge_sigma(kappa, gamma)!r}\n", args.output)
        return 0
    if args.model in CURVE_MODELS:
        flags, crossing, sweep = CURVE_MODELS[args.model]
        base = _require_scalars(args, parser, flags)
        text = crossing(base, args) if args.equilibrium else sweep(base, args, _require_grid(args, parser))
        _emit(text, args.output)
        return 0
    names, values = SERIES_MODELS[args.model]
    grid = _require_grid(args, parser)
    if args.params is None:
        parser.error("--params is required for this model")
    params = load_params(args.params)
    series = _series(args, parser, names)
    _emit(_csv_text("t,value", (grid, np.atleast_1d(values(series, grid, params)))), args.output)
    return 0


def _cmd_fit(args, parser: _Parser) -> int:
    names, x0_names, x0_required, fit = FITS[args.model]
    grid = _require_grid(args, parser)
    series = _series(args, parser, names)
    if args.x0 is None and x0_required:
        parser.error(f"--x0 {','.join(x0_names)} is required for this model")
    x0 = None if args.x0 is None else _parse_x0(args.x0, len(x0_names), parser)
    result = fit(series, grid, x0, args)
    _emit(json.dumps(fit_report(result), indent=2) + "\n", args.output)
    if result.at_bound:
        print(f"infoeq: warning: fit ended on a bound: {', '.join(result.at_bound)}", file=sys.stderr)
    return 0 if result.converged else 4


def _cmd_ensemble(args, parser: _Parser) -> int:
    kwargs = dict(n0=args.n0, a_mean=args.a_mean, a_sd=args.a_sd, runs=args.runs, seed=args.seed)
    if args.m_grid is not None:
        kwargs["m_grid"] = _parse_grid(args.m_grid, args.m_grid_scale, parser)
    config = MonteCarloConfig(**kwargs)
    _check_cells(config.runs * config.m_grid.size, "--runs x grid")
    _check_cells(config.runs * config.n0, "--runs x --n0 draws")
    result = monte_carlo(config)
    runs, size = result.avg_a.shape
    columns = (
        np.repeat(np.arange(runs), size),
        np.tile(result.m_grid, runs),
        result.avg_a.ravel(),
        result.avg_n.ravel(),
        result.avg_price.ravel(),
    )
    _emit(_csv_text("run,m,avg_a,avg_n,avg_price", columns), args.output)
    return 0


def _cmd_fluctuation(args, parser: _Parser) -> int:
    _check_cells(args.bins, "--bins")
    ts = load_csv(args.path)
    changes = series_changes(ts, mode=args.mode)
    result = fluctuation_comparison(changes, bins=args.bins)
    columns = (result.bin_left, result.bin_right, result.count.astype(int), result.theory)
    _emit(_csv_text("bin_left,bin_right,count,theory", columns), args.output)
    return 0


def _add_output(sub: _Parser) -> None:
    sub.add_argument("-o", "--output", metavar="PATH", help="write here instead of stdout")


def _add_model_inputs(sub: _Parser) -> None:
    """The --input series, the grid and the LOESS flags that eval and fit share."""
    sub.add_argument("--input", action="append", metavar="NAME=PATH", help="named input series (repeatable)")
    sub.add_argument("--grid", metavar="START:STOP:COUNT", help="evaluation grid")
    sub.add_argument("--grid-scale", choices=("lin", "log"), default="lin")
    sub.add_argument("--span", type=float, help="smooth inputs first with this LOESS span")
    sub.add_argument("--degree", type=int, choices=(1, 2), default=2, help="LOESS degree")


def build_parser() -> _Parser:
    from . import __version__

    parser = _Parser(prog="infoeq", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"infoeq {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    smooth = commands.add_parser("smooth", help="LOESS-smooth a CSV series")
    smooth.add_argument("path", help="input CSV (date,value)")
    smooth.add_argument("--span", type=float, default=1.0, help="window fraction (0, 1]")
    smooth.add_argument("--degree", type=int, choices=(1, 2), default=2)
    _add_output(smooth)
    smooth.set_defaults(func=_cmd_smooth)

    ev = commands.add_parser("eval", help="evaluate a model")
    ev.add_argument("model", choices=(*SERIES_MODELS, *CURVE_MODELS, "ridge"))
    ev.add_argument("--params", metavar="PATH", help="key=value parameter file")
    _add_model_inputs(ev)
    for flag in ("--n0", "--s0", "--k-a", "--n-ref", "--s-ref", "--m-ref", "--k-p", "--k-s", "--k-i"):
        ev.add_argument(flag, type=float, help="curve parameter (adas/islm)")
    ev.add_argument("--supply-shift", type=float, default=0.0, help="adas: shift SRAS right")
    ev.add_argument("--delta-n", type=float, default=0.0, help="islm: shift the LM source")
    ev.add_argument("--delta-m", type=float, default=0.0, help="islm: money shift")
    ev.add_argument("--is-shift", type=float, default=0.0, help="islm: shift the IS curve")
    ev.add_argument("--equilibrium", action="store_true", help="adas/islm: output the crossing only")
    ev.add_argument("--kappa", type=float, help="ridge: 1/k")
    ev.add_argument("--gamma", type=float, help="ridge: log scale over m0")
    _add_output(ev)
    ev.set_defaults(func=_cmd_eval)

    fit = commands.add_parser("fit", help="fit a model, write a JSON report")
    fit.add_argument("model", choices=tuple(FITS))
    _add_model_inputs(fit)
    fit.add_argument("--x0", metavar="V1,V2,...", help="starting parameters")
    fit.add_argument("--tol", type=float, default=1e-8, help="price-level only: search tolerance")
    fit.add_argument("--max-iter", type=int, default=10_000, help="price-level only: iteration cap")
    _add_output(fit)
    fit.set_defaults(func=_cmd_fit)

    ens = commands.add_parser("ensemble", help="Monte Carlo over random-index markets")
    ens.add_argument("--n0", type=int, default=100, help="markets per run")
    ens.add_argument("--a-mean", type=float, default=1.5)
    ens.add_argument("--a-sd", type=float, default=0.5)
    ens.add_argument("--runs", type=int, default=500)
    ens.add_argument("--seed", type=int, default=0)
    ens.add_argument("--m-grid", metavar="START:STOP:COUNT", help="default 1:1000:200 log")
    ens.add_argument("--m-grid-scale", choices=("lin", "log"), default="log")
    _add_output(ens)
    ens.set_defaults(func=_cmd_ensemble)

    fl = commands.add_parser("fluctuation", help="histogram series changes against e**dn")
    fl.add_argument("path", help="input CSV (date,value)")
    fl.add_argument("--mode", choices=("log_percent", "levels"), default="log_percent")
    fl.add_argument("--bins", type=int, default=30)
    _add_output(fl)
    fl.set_defaults(func=_cmd_fluctuation)

    return parser


# first matching type wins, so subclasses of InfoEqError precede it
EXIT_CODES = ((ParseError, 2), (OSError, 2), (InfoEqError, 3))


@functools.cache
def _parser() -> _Parser:
    """The process's one parser; parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"infoeq: error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
