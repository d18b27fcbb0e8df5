"""Command line interface.

Subcommands: smooth, eval, fit, ensemble, fluctuation. All numeric
output is written at repr precision so piping through the CLI loses
nothing relative to calling the library. Exit codes: 0 success, 1 usage,
2 unreadable or malformed input, 3 domain violation, 4 fit did not
converge (the report is still written).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .ensemble import MonteCarloConfig, fluctuation_comparison, monte_carlo, series_changes
from .errors import InfoEqError, NonConvergence, ParseError
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

EVAL_MODELS = (
    "price-level",
    "inflation",
    "interest",
    "okun",
    "cobb-douglas",
    "adas",
    "islm",
    "ridge",
)
FIT_MODELS = ("price-level", "interest", "cobb-douglas")

# which named --input series each model consumes
EVAL_INPUTS = {
    "price-level": ("n", "m"),
    "inflation": ("n", "m"),
    "interest": ("n", "m"),
    "okun": ("n", "p"),
    "cobb-douglas": ("k", "l"),
}
FIT_INPUTS = {
    "price-level": ("n", "m", "p"),
    "interest": ("n", "mlong", "mshort", "rlong", "rshort"),
    "cobb-douglas": ("n", "k", "l"),
}


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
    if scale == "log":
        if start <= 0.0 or stop <= 0.0:
            parser.error("log grid endpoints must be positive")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


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


def _load_inputs(args, parser: _Parser, required: tuple[str, ...], smooth: LoessConfig | None = None):
    paths = _input_paths(args, parser, required)
    out = {}
    for name in required:
        ts = load_csv(paths[name], name=name)
        if smooth is not None:
            ts = loess_smooth(ts, smooth)
        out[name] = ts
    return out


def _smooth_config(args) -> LoessConfig | None:
    if args.span is None:
        return None
    return LoessConfig(degree=args.degree, span=args.span)


def _require_params(args, parser: _Parser) -> dict[str, float]:
    if args.params is None:
        parser.error("--params is required for this model")
    return load_params(args.params)


def _require_scalars(args, parser: _Parser, names: tuple[str, ...]) -> dict[str, float]:
    out = {}
    for name in names:
        value = getattr(args, name.replace("-", "_"))
        if value is None:
            parser.error(f"--{name} is required for this model")
        out[name] = value
    return out


def _parse_floats(text: str, count: int, label: str, parser: _Parser) -> np.ndarray:
    try:
        values = np.array([float(p) for p in text.split(",")])
    except ValueError:
        parser.error(f"{label} must be comma-separated numbers, got {text!r}")
    if values.size != count:
        parser.error(f"{label} must have {count} values, got {values.size}")
    return values


def _cmd_smooth(args, parser: _Parser) -> int:
    ts = load_csv(args.path)
    smoothed = loess_smooth(ts, LoessConfig(degree=args.degree, span=args.span))
    _emit(_csv_text("date,value", (smoothed.t, smoothed.v)), args.output)
    return 0


def _cmd_eval(args, parser: _Parser) -> int:
    model = args.model

    if model == "ridge":
        scalars = _require_scalars(args, parser, ("kappa", "gamma"))
        _emit(f"{ridge_sigma(scalars['kappa'], scalars['gamma'])!r}\n", args.output)
        return 0

    if model == "adas":
        scalars = _require_scalars(args, parser, ("n0", "s0", "k-a", "n-ref", "s-ref"))
        base = (scalars["n0"], scalars["s0"], scalars["k-a"], scalars["n-ref"], scalars["s-ref"])
        if args.equilibrium:
            x_star, p_star = adas_equilibrium(*base, supply_shift=args.supply_shift)
            _emit(f"delta_n,price\n{x_star!r},{p_star!r}\n", args.output)
            return 0
        sweep = _require_grid(args, parser)
        curves = adas_curves(*base, delta_n=sweep, delta_s=sweep)
        _emit(_csv_text("x,ad,sras", (sweep, curves.ad[:, 1], curves.sras[:, 1])), args.output)
        return 0

    if model == "islm":
        scalars = _require_scalars(args, parser, ("n0", "m-ref", "s-ref", "k-p", "k-s", "k-i"))
        base = (
            scalars["n0"],
            scalars["m-ref"],
            scalars["s-ref"],
            scalars["k-p"],
            scalars["k-s"],
            scalars["k-i"],
        )
        if args.equilibrium:
            x_star, i_star = islm_equilibrium(*base, delta_m=args.delta_m, is_shift=args.is_shift)
            _emit(f"delta_n,rate\n{x_star!r},{i_star!r}\n", args.output)
            return 0
        sweep = _require_grid(args, parser)
        shift = CurveShift(delta_n=args.delta_n, delta_m=args.delta_m)
        curves = islm_curves(
            scalars["n0"],
            shift,
            scalars["m-ref"],
            scalars["s-ref"],
            scalars["k-p"],
            scalars["k-s"],
            scalars["k-i"],
            sweep,
        )
        _emit(_csv_text("x,lm,is", (sweep, curves.lm[:, 1], curves.is_curve[:, 1])), args.output)
        return 0

    grid = _require_grid(args, parser)
    params = _require_params(args, parser)
    series = _load_inputs(args, parser, EVAL_INPUTS[model], smooth=_smooth_config(args))

    if model == "price-level":
        n = interp_linear(series["n"], grid)
        m = interp_linear(series["m"], grid)
        values = price_level(n, m, price_level_params(params))
    elif model == "inflation":
        out = inflation_model(series["n"], series["m"], price_level_params(params), grid)
        values = out.v
    elif model == "interest":
        n = interp_linear(series["n"], grid)
        m = interp_linear(series["m"], grid)
        values = interest_rate(n, m, interest_params(params))
    elif model == "okun":
        if "k_H" not in params:
            raise ParseError("missing keys: k_H")
        out = okun_hours(series["n"], series["p"], params["k_H"], grid)
        values = out.v
    else:  # cobb-douglas
        kv = interp_linear(series["k"], grid)
        lv = interp_linear(series["l"], grid)
        values = cobb_douglas(kv, lv, cobb_douglas_params(params))

    _emit(_csv_text("t,value", (grid, np.atleast_1d(values))), args.output)
    return 0


def _cmd_fit(args, parser: _Parser) -> int:
    model = args.model
    grid = _require_grid(args, parser)
    smooth = _smooth_config(args)
    series = _load_inputs(args, parser, FIT_INPUTS[model])

    if model == "price-level":
        if args.x0 is None:
            parser.error("--x0 alpha,gamma,M0 is required for this model")
        x0 = _parse_floats(args.x0, 3, "--x0", parser)
        result = fit_price_level(
            series["n"],
            series["m"],
            series["p"],
            grid,
            x0,
            tol=args.tol,
            max_iter=args.max_iter,
            smooth=smooth,
        )
    elif model == "interest":
        if args.x0 is None:
            parser.error("--x0 k_i,k_p is required for this model")
        x0 = _parse_floats(args.x0, 2, "--x0", parser)
        result = fit_interest(
            series["n"],
            series["mlong"],
            series["mshort"],
            series["rlong"],
            series["rshort"],
            grid,
            x0,
            smooth=smooth,
        )
    else:  # cobb-douglas; x0 defaults to the log-linear closed form
        x0 = None if args.x0 is None else _parse_floats(args.x0, 3, "--x0", parser)
        result = fit_cobb_douglas(series["n"], series["k"], series["l"], grid, x0, smooth=smooth)

    _emit(json.dumps(fit_report(result), indent=2) + "\n", args.output)
    if result.at_bound:
        print(f"infoeq: warning: fit ended on a bound: {', '.join(result.at_bound)}", file=sys.stderr)
    return 0 if result.converged else 4


def _cmd_ensemble(args, parser: _Parser) -> int:
    kwargs = dict(n0=args.n0, a_mean=args.a_mean, a_sd=args.a_sd, runs=args.runs, seed=args.seed)
    if args.m_grid is not None:
        kwargs["m_grid"] = _parse_grid(args.m_grid, args.m_grid_scale, parser)
    result = monte_carlo(MonteCarloConfig(**kwargs))
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
    ts = load_csv(args.path)
    changes = series_changes(ts, mode=args.mode)
    result = fluctuation_comparison(changes, bins=args.bins)
    columns = (result.bin_left, result.bin_right, result.count.astype(int), result.theory)
    _emit(_csv_text("bin_left,bin_right,count,theory", columns), args.output)
    return 0


def _add_output(sub: _Parser) -> None:
    sub.add_argument("-o", "--output", metavar="PATH", help="write here instead of stdout")


def _add_grid(sub: _Parser) -> None:
    sub.add_argument("--grid", metavar="START:STOP:COUNT", help="evaluation grid")
    sub.add_argument("--grid-scale", choices=("lin", "log"), default="lin")


def _add_smoothing(sub: _Parser) -> None:
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
    ev.add_argument("model", choices=EVAL_MODELS)
    ev.add_argument("--params", metavar="PATH", help="key=value parameter file")
    ev.add_argument(
        "--input",
        action="append",
        metavar="NAME=PATH",
        help="named input series (repeatable)",
    )
    _add_grid(ev)
    _add_smoothing(ev)
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
    fit.add_argument("model", choices=FIT_MODELS)
    fit.add_argument(
        "--input",
        action="append",
        metavar="NAME=PATH",
        help="named input series (repeatable)",
    )
    _add_grid(fit)
    _add_smoothing(fit)
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
EXIT_CODES = ((ParseError, 2), (OSError, 2), (NonConvergence, 4), (InfoEqError, 3))


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
