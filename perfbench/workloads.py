"""The four benchmark workloads: seeded op streams plus their output checks.

An op is one or more `infoeq` command lines run back to back and timed as
a unit. Each workload is built so that its ops have a single cost mode;
NOTES.md records why each was chosen and which layer it stresses.
The smooth span is drawn stratified in blocks, so any run of whole blocks
covers its range evenly and the per-run medians move little from seed to
seed.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import oracles

SERIES_FILES = (
    "gdp",
    "mbcurrcir",
    "ambsl",
    "pcepilfe",
    "cpilfesl",
    "gs10",
    "tb3ms",
    "hours",
    "rknanpusa",
)
PARAMS_FILE = "us_params.txt"
MONTHLY = ("mbcurrcir", "ambsl", "pcepilfe", "cpilfesl", "gs10", "tb3ms")

ENSEMBLE_RUNS = 10
ENSEMBLE_N0 = 100
ENSEMBLE_GRID = np.geomspace(1.0, 1000.0, 200)  # the CLI default --m-grid

BLOCK = 12  # ops per stratified block


@dataclass
class Op:
    """Command lines of one op, each with the oracle for its stdout."""

    calls: list[list[str]]
    checks: list[Callable[[str], str | None]]

    def check(self, results: list[tuple[int, str]]) -> str | None:
        """None if every call exited 0 and passed its oracle, else the first reason."""
        for argv, (code, text), oracle in zip(self.calls, results, self.checks):
            reason = f"exit code {code}" if code != 0 else oracle(text)
            if reason is not None:
                return f"{' '.join(argv[:2])}: {reason}"
        return None


class Inputs:
    """Bundled snapshots staged into a scratch directory.

    The oracles' copies of the series are parsed on first use, so staging
    alone, which set-up time covers, does not pay for them.
    """

    def __init__(self, data_dir: Path, workdir: Path):
        self.dir = workdir
        for name in SERIES_FILES:
            shutil.copyfile(data_dir / f"{name}.csv", workdir / f"{name}.csv")
        shutil.copyfile(data_dir / PARAMS_FILE, workdir / PARAMS_FILE)

    def path(self, name: str) -> str:
        return str(self.dir / (name if name == PARAMS_FILE else f"{name}.csv"))

    @cached_property
    def series(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        return {name: oracles.read_series(self.path(name)) for name in SERIES_FILES}

    @cached_property
    def params(self) -> dict[str, float]:
        return oracles.read_params(self.path(PARAMS_FILE))


def _strata(rng, lo: float, hi: float) -> np.ndarray:
    """BLOCK values in [lo, hi), one per equal-width stratum, shuffled."""
    return lo + (hi - lo) * (rng.permutation(BLOCK) + rng.random(BLOCK)) / BLOCK


def _jitter(rng, value: float, rel: float = 0.1) -> float:
    return round(value * math.exp(rng.uniform(-rel, rel)), 6)


def _grid(rng, start: tuple[float, float], stop: tuple[float, float], count: tuple[int, int]):
    a = round(rng.uniform(*start), 3)
    b = round(rng.uniform(*stop), 3)
    n = int(rng.integers(count[0], count[1] + 1))
    return f"{a!r}:{b!r}:{n}", np.linspace(a, b, n)


def ensemble_ops(seed: int, inputs: Inputs) -> Iterator[Op]:
    """`infoeq ensemble --runs 10 --seed s`: Monte Carlo at the default n0 and grid."""
    rng = np.random.default_rng([seed, 1])
    while True:
        s = int(rng.integers(0, 2**31))
        yield Op(
            [["ensemble", "--runs", str(ENSEMBLE_RUNS), "--seed", str(s)]],
            [
                lambda text, s=s: oracles.check_ensemble(
                    text, s, ENSEMBLE_RUNS, ENSEMBLE_N0, 1.5, 0.5, ENSEMBLE_GRID
                )
            ],
        )


def smooth_ops(seed: int, inputs: Inputs) -> Iterator[Op]:
    """`infoeq smooth <monthly series> --span u --degree d`, u stratified in [0.1, 1.0]."""
    rng = np.random.default_rng([seed, 2])
    while True:
        spans = _strata(rng, 0.1, 1.0)
        names = rng.permutation(np.repeat(MONTHLY, BLOCK // len(MONTHLY)))
        degrees = rng.permutation(np.tile([1, 2], BLOCK // 2))
        for span, name, degree in zip(spans, names, degrees):
            span = min(round(float(span), 4), 1.0)
            degree = int(degree)
            picks = rng.integers(0, 1 << 30, 4)

            def check(text, name=name, span=span, degree=degree, picks=picks):
                t, v = inputs.series[name]
                sample = sorted({0, t.size - 1, *(int(p) % t.size for p in picks)})
                return oracles.check_smooth(text, t, v, span, degree, sample)

            yield Op(
                [["smooth", inputs.path(name), "--span", repr(span), "--degree", str(degree)]],
                [check],
            )


def _interp(inputs: Inputs, names: dict[str, str], grid) -> dict[str, np.ndarray]:
    return {role: np.interp(grid, *inputs.series[file]) for role, file in names.items()}


FIT_INPUTS = {
    "price-level": {"n": "gdp", "m": "mbcurrcir", "p": "pcepilfe"},
    "interest": {"n": "gdp", "mlong": "mbcurrcir", "mshort": "ambsl", "rlong": "gs10", "rshort": "tb3ms"},
    "cobb-douglas": {"n": "gdp", "k": "rknanpusa", "l": "hours"},
}


def calibrate_ops(seed: int, inputs: Inputs) -> Iterator[Op]:
    """One calibration round: fit price-level, interest and cobb-douglas.

    Grids and starting points scatter around `demos/08_cli_tour.sh`
    (price level) and the bundled calibration (interest rates).
    """
    rng = np.random.default_rng([seed, 3])
    while True:
        plan = [
            ("price-level", _grid(rng, (1959.5, 1961.0), (2013.0, 2015.5), (50, 60)),
             [_jitter(rng, 78.0), _jitter(rng, 4.7e-4), _jitter(rng, 720.0)]),
            ("interest", _grid(rng, (1959.5, 1961.0), (2013.0, 2015.5), (50, 60)),
             [_jitter(rng, 3.49), _jitter(rng, 0.124)]),
            ("cobb-douglas", _grid(rng, (1950.5, 1953.0), (2008.0, 2010.9), (50, 60)), None),
        ]
        calls, checks = [], []
        for model, (spec, grid), x0 in plan:
            argv = ["fit", model, f"--grid={spec}"]
            for role, file in FIT_INPUTS[model].items():
                argv += ["--input", f"{role}={inputs.path(file)}"]
            if x0 is not None:
                argv += ["--x0", ",".join(repr(x) for x in x0)]
            calls.append(argv)
            checks.append(
                lambda text, model=model, grid=grid, x0=x0: oracles.check_fit(
                    text, model, _interp(inputs, FIT_INPUTS[model], grid), x0
                )
            )
        yield Op(calls, checks)


EVAL_INPUTS = {
    "price-level": {"n": "gdp", "m": "mbcurrcir"},
    "inflation": {"n": "gdp", "m": "mbcurrcir"},
    "interest": {"n": "gdp", "m": "ambsl"},
    "okun": {"n": "gdp", "p": "pcepilfe"},
    "cobb-douglas": {"k": "rknanpusa", "l": "hours"},
}
EVAL_SPANS = {
    "price-level": ((1950.0, 1955.0), (2010.0, 2015.5)),
    "inflation": ((1950.0, 1955.0), (2010.0, 2015.5)),
    "interest": ((1950.0, 1955.0), (2010.0, 2015.5)),
    "okun": ((1960.0, 1965.0), (2010.0, 2015.5)),
    "cobb-douglas": ((1951.0, 1955.0), (2006.0, 2010.9)),
}
GRID_POINTS = (580, 620)
# A sweep takes ~65 ms. Three per op make the ten ops beyond the tail
# percentile span ~2 s, longer than the host's slow bursts; with one sweep
# per op such a burst alone moved the tail by ~40%.
SWEEPS_PER_OP = 3


def evaluate_ops(seed: int, inputs: Inputs) -> Iterator[Op]:
    """Model sweeps, SWEEPS_PER_OP to an op."""
    rng = np.random.default_rng([seed, 4])
    while True:
        calls, checks = [], []
        for _ in range(SWEEPS_PER_OP):
            _sweep(rng, inputs, calls, checks)
        yield Op(calls, checks)


def _sweep(rng, inputs: Inputs, calls: list, checks: list) -> None:
    """The five series `eval` models, then adas and islm curves."""
    for model, inputs_of in EVAL_INPUTS.items():
        spec, grid = _grid(rng, *EVAL_SPANS[model], GRID_POINTS)
        argv = ["eval", model, "--params", inputs.path(PARAMS_FILE), f"--grid={spec}"]
        for role, file in inputs_of.items():
            argv += ["--input", f"{role}={inputs.path(file)}"]
        calls.append(argv)
        checks.append(
            lambda text, model=model, grid=grid, inputs_of=inputs_of: oracles.check_columns(
                text,
                "t,value",
                grid,
                *oracles.eval_series(
                    model, grid, {r: inputs.series[f] for r, f in inputs_of.items()}, inputs.params
                ),
            )
        )

    spec, sweep = _grid(rng, (-10.0, -10.0), (10.0, 10.0), GRID_POINTS)
    adas = [_jitter(rng, x) for x in (100.0, 80.0, 1.4, 90.0, 75.0)]
    calls.append(
        ["eval", "adas", f"--grid={spec}"]
        + [f"--{flag}={x!r}" for flag, x in zip(("n0", "s0", "k-a", "n-ref", "s-ref"), adas)]
    )
    checks.append(
        lambda text, sweep=sweep, adas=adas: oracles.check_columns(
            text, "x,ad,sras", sweep, oracles.adas_columns(sweep, *adas)
        )
    )

    spec, sweep = _grid(rng, (-10.0, -10.0), (10.0, 10.0), GRID_POINTS)
    islm = [_jitter(rng, x) for x in (100.0, 35.0, 90.0, 2.0, 1.3, 2.6)]
    delta_m = round(rng.uniform(0.0, 1.5), 4)
    calls.append(
        ["eval", "islm", f"--grid={spec}", f"--delta-m={delta_m!r}"]
        + [f"--{flag}={x!r}" for flag, x in zip(("n0", "m-ref", "s-ref", "k-p", "k-s", "k-i"), islm)]
    )
    checks.append(
        lambda text, sweep=sweep, islm=islm, delta_m=delta_m: oracles.check_columns(
            text, "x,lm,is", sweep, oracles.islm_columns(sweep, *islm, delta_m)
        )
    )


WORKLOADS: dict[str, Callable[[int, Inputs], Iterator[Op]]] = {
    "ensemble": ensemble_ops,
    "smooth": smooth_ops,
    "calibrate": calibrate_ops,
    "evaluate": evaluate_ops,
}
