import contextlib
import io
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from infoeq import cli
from infoeq import (
    CobbDouglasParams,
    InterestParams,
    LoessConfig,
    MonteCarloConfig,
    PriceLevelParams,
    TimeSeries,
    adas_equilibrium,
    bundled_series,
    cobb_douglas,
    fit_cobb_douglas,
    fit_interest,
    fit_price_level,
    fit_report,
    inflation_model,
    interest_rate,
    interp_linear,
    islm_equilibrium,
    load_csv,
    loess_smooth,
    monte_carlo,
    okun_hours,
    price_level,
    ridge_sigma,
    save_csv,
    save_params,
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "infoeq", *args],
        capture_output=True,
        text=True,
    )


def parse_table(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


@pytest.fixture
def workdir(tmp_path):
    grid = np.linspace(1990.0, 2010.0, 81)
    u = grid - grid[0]
    n = TimeSeries(grid, 600.0 * np.exp(0.05 * u))
    m = TimeSeries(grid, 30.0 * np.exp(0.06 * u))
    save_csv(n, tmp_path / "n.csv")
    save_csv(m, tmp_path / "m.csv")
    params = {"alpha": 0.641, "gamma": 5.93e-4, "M0": 603.8, "k_H": 150.0}
    save_params(tmp_path / "params.txt", params)
    return tmp_path


class TestTopLevel:
    def test_version(self):
        out = run_cli("--version")
        assert out.returncode == 0
        assert out.stdout.startswith("infoeq ")

    def test_no_command_is_usage_error(self):
        assert run_cli().returncode == 1

    def test_unknown_model_is_usage_error(self):
        assert run_cli("eval", "laffer").returncode == 1

    def test_missing_input_is_usage_error(self, workdir):
        out = run_cli(
            "eval",
            "price-level",
            "--params",
            str(workdir / "params.txt"),
            "--grid",
            "1990:2010:5",
            "--input",
            f"n={workdir / 'n.csv'}",
        )
        assert out.returncode == 1
        assert "missing --input" in out.stderr

    def test_malformed_csv_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,value\n2000,1.0\nnot-a-date,2.0\n")
        out = run_cli("smooth", str(bad))
        assert out.returncode == 2
        assert "error" in out.stderr

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli("smooth", str(tmp_path / "absent.csv")).returncode == 2


class TestNonUtf8Input:
    """A file that is not UTF-8 is unreadable input: exit 2, one error line."""

    def run(self, capsys, argv):
        code = cli.main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"date,value\n2000-01-01,1.0\n2000-02-01,\xff\n")
        assert self.run(capsys, ["smooth", str(bad)]) == (2, "", "infoeq: error: file is not valid UTF-8\n")

    def test_params_exits_2(self, workdir, capsys):
        bad = workdir / "bad.txt"
        bad.write_bytes(b"alpha = 0.641\n\xff\n")
        argv = [
            "eval", "price-level", "--params", str(bad), "--grid", "1991:2009:5",
            "--input", f"n={workdir / 'n.csv'}", "--input", f"m={workdir / 'm.csv'}",
        ]
        assert self.run(capsys, argv) == (2, "", "infoeq: error: file is not valid UTF-8\n")


class TestSmooth:
    def test_matches_library(self, tmp_path):
        rng = np.random.default_rng(3)
        t = np.linspace(0.0, 10.0, 60)
        ts = TimeSeries(t, np.sin(t) + 0.1 * rng.normal(size=t.size))
        save_csv(ts, tmp_path / "raw.csv")

        out = run_cli("smooth", str(tmp_path / "raw.csv"), "--span", "0.4")
        assert out.returncode == 0
        header, rows = parse_table(out.stdout)
        assert header == ["date", "value"]

        expect = loess_smooth(load_csv(tmp_path / "raw.csv"), LoessConfig(degree=2, span=0.4))
        assert np.array_equal(rows[:, 0], expect.t)
        assert np.array_equal(rows[:, 1], expect.v)

    def test_output_file(self, tmp_path):
        t = np.linspace(0.0, 5.0, 30)
        save_csv(TimeSeries(t, t**2), tmp_path / "raw.csv")
        dest = tmp_path / "smooth.csv"
        out = run_cli("smooth", str(tmp_path / "raw.csv"), "-o", str(dest))
        assert out.returncode == 0
        assert out.stdout == ""
        assert dest.read_text().startswith("date,value\n")


class TestEval:
    def test_price_level_matches_library(self, workdir):
        out = run_cli(
            "eval",
            "price-level",
            "--params",
            str(workdir / "params.txt"),
            "--grid",
            "1991:2009:37",
            "--input",
            f"n={workdir / 'n.csv'}",
            "--input",
            f"m={workdir / 'm.csv'}",
        )
        assert out.returncode == 0
        header, rows = parse_table(out.stdout)
        assert header == ["t", "value"]

        grid = np.linspace(1991.0, 2009.0, 37)
        n = interp_linear(load_csv(workdir / "n.csv"), grid)
        m = interp_linear(load_csv(workdir / "m.csv"), grid)
        expect = price_level(n, m, PriceLevelParams(alpha=0.641, gamma=5.93e-4, m0=603.8))
        assert np.array_equal(rows[:, 0], grid)
        assert np.array_equal(rows[:, 1], expect)

    def test_nan_grid_time_exits_3_naming_it(self, workdir):
        out = run_cli(
            "eval",
            "price-level",
            "--params",
            str(workdir / "params.txt"),
            "--grid=nan:2009:3",
            "--input",
            f"n={workdir / 'n.csv'}",
            "--input",
            f"m={workdir / 'm.csv'}",
        )
        assert out.returncode == 3
        assert "t=nan outside sampled range" in out.stderr

    def test_okun_requires_k_h(self, workdir):
        save_params(workdir / "short.txt", {"alpha": 0.6})
        out = run_cli(
            "eval",
            "okun",
            "--params",
            str(workdir / "short.txt"),
            "--grid",
            "1991:2009:5",
            "--input",
            f"n={workdir / 'n.csv'}",
            "--input",
            f"p={workdir / 'm.csv'}",
        )
        assert out.returncode == 2
        assert "k_H" in out.stderr

    def test_adas_equilibrium_row(self):
        out = run_cli(
            "eval",
            "adas",
            "--equilibrium",
            "--n0",
            "100",
            "--s0",
            "80",
            "--k-a",
            "1.4",
            "--n-ref",
            "90",
            "--s-ref",
            "75",
            "--supply-shift",
            "3.0",
        )
        assert out.returncode == 0
        header, rows = parse_table(out.stdout)
        assert header == ["delta_n", "price"]
        expect = adas_equilibrium(100.0, 80.0, 1.4, 90.0, 75.0, supply_shift=3.0)
        assert rows[0, 0] == expect[0]
        assert rows[0, 1] == expect[1]

    def test_adas_sweep_columns(self):
        out = run_cli(
            "eval",
            "adas",
            "--n0",
            "100",
            "--s0",
            "80",
            "--k-a",
            "1.4",
            "--n-ref",
            "90",
            "--s-ref",
            "75",
            "--grid=-10:10:9",
        )
        assert out.returncode == 0
        header, rows = parse_table(out.stdout)
        assert header == ["x", "ad", "sras"]
        assert rows.shape == (9, 3)
        assert np.all(np.diff(rows[:, 1]) < 0)  # AD falls
        assert np.all(np.diff(rows[:, 2]) > 0)  # SRAS rises

    def test_islm_equilibrium_row(self):
        args = dict(n0=100.0, m_ref=35.0, s_ref=90.0, k_p=2.0, k_s=1.3, k_i=2.6)
        out = run_cli(
            "eval",
            "islm",
            "--equilibrium",
            "--n0",
            "100",
            "--m-ref",
            "35",
            "--s-ref",
            "90",
            "--k-p",
            "2",
            "--k-s",
            "1.3",
            "--k-i",
            "2.6",
            "--delta-m",
            "1.5",
        )
        assert out.returncode == 0
        header, rows = parse_table(out.stdout)
        assert header == ["delta_n", "rate"]
        expect = islm_equilibrium(delta_m=1.5, **args)
        assert rows[0, 0] == expect[0]
        assert rows[0, 1] == expect[1]

    def test_ridge_scalar(self):
        out = run_cli("eval", "ridge", "--kappa", "1.5", "--gamma", "0.01")
        assert out.returncode == 0
        assert float(out.stdout) == ridge_sigma(1.5, 0.01)

    def test_ridge_missing_scalar_is_usage_error(self):
        assert run_cli("eval", "ridge", "--kappa", "1.5").returncode == 1

    def test_ridge_overflow_exits_3_with_one_line(self, capsys):
        code, out, err = run_main(capsys, ["eval", "ridge", "--kappa", "1e-3", "--gamma", "1e-300"])
        assert (code, out) == (3, "")
        assert err.startswith("infoeq: error: ridge_sigma: exp(") and err.count("\n") == 1


ISLM_REST = ("--m-ref", "35", "--s-ref", "90", "--k-s", "1.3", "--k-i", "2.6")


class TestEquilibriumArguments:
    @pytest.mark.parametrize(
        "args, name",
        [
            (("adas", "--n0", "-1", "--s0", "80", "--k-a", "1.4", "--n-ref", "90", "--s-ref", "75"), "n0"),
            (("islm", "--n0", "0", "--k-p", "2", *ISLM_REST), "n0"),
            (("islm", "--n0", "100", "--k-p", "-0.3", *ISLM_REST), "k_p"),
        ],
    )
    def test_bad_argument_exits_3_with_one_line(self, args, name):
        out = run_cli("eval", args[0], "--equilibrium", *args[1:])
        assert out.returncode == 3
        assert out.stdout == ""
        assert out.stderr == f"infoeq: error: {name} must be positive and finite\n"


class TestFit:
    def test_cobb_douglas_report(self, tmp_path):
        grid = np.linspace(1960.0, 2014.0, 120)
        u = grid - grid[0]
        k = TimeSeries(grid, 2000.0 * np.exp(0.055 * u - 2e-4 * u**2))
        l = TimeSeries(grid, 120.0 * np.exp(0.018 * u + 1e-4 * u**2))
        n = TimeSeries(grid, 0.0024 * k.v**0.44 * l.v**0.84)
        save_csv(n, tmp_path / "n.csv")
        save_csv(k, tmp_path / "k.csv")
        save_csv(l, tmp_path / "l.csv")

        out = run_cli(
            "fit",
            "cobb-douglas",
            "--grid",
            "1960:2014:120",
            "--input",
            f"n={tmp_path / 'n.csv'}",
            "--input",
            f"k={tmp_path / 'k.csv'}",
            "--input",
            f"l={tmp_path / 'l.csv'}",
        )
        assert out.returncode == 0
        report = json.loads(out.stdout)
        assert report["converged"] is True
        assert report["parameters"]["A"] == pytest.approx(0.0024, rel=1e-3)
        assert report["parameters"]["k1"] == pytest.approx(0.44, rel=1e-3)
        assert report["parameters"]["k2"] == pytest.approx(0.84, rel=1e-3)
        assert report["residuals"]["count"] == 120

    def test_fit_on_a_bound_names_it(self, tmp_path):
        inputs = []
        for name, series in zip(
            ("n", "mlong", "mshort", "rlong", "rshort"), ("gdp", "mbcurrcir", "ambsl", "gs10", "tb3ms")
        ):
            save_csv(bundled_series(series), tmp_path / f"{name}.csv")
            inputs += ["--input", f"{name}={tmp_path / name}.csv"]
        out = run_cli("fit", "interest", "--grid", "1960:2014:55", "--x0", "3.49,0.124", *inputs)
        assert out.returncode == 0
        report = json.loads(out.stdout)
        assert report["converged"] is True
        assert report["at_bound"] == ["k_p"]
        assert out.stderr == "infoeq: warning: fit ended on a bound: k_p\n"

    def test_iteration_cap_exits_4_but_writes_report(self, workdir):
        p = TimeSeries(
            load_csv(workdir / "n.csv").t,
            price_level(
                load_csv(workdir / "n.csv").v,
                load_csv(workdir / "m.csv").v,
                PriceLevelParams(alpha=0.641, gamma=5.93e-4, m0=603.8),
            ),
        )
        save_csv(p, workdir / "p.csv")
        dest = workdir / "report.json"
        out = run_cli(
            "fit",
            "price-level",
            "--grid",
            "1991:2009:60",
            "--x0",
            "0.5,8e-4,450",
            "--max-iter",
            "1",
            "-o",
            str(dest),
            "--input",
            f"n={workdir / 'n.csv'}",
            "--input",
            f"m={workdir / 'm.csv'}",
            "--input",
            f"p={workdir / 'p.csv'}",
        )
        assert out.returncode == 4
        report = json.loads(dest.read_text())
        assert report["converged"] is False

    def test_price_level_requires_x0(self, workdir):
        out = run_cli(
            "fit",
            "price-level",
            "--grid",
            "1991:2009:10",
            "--input",
            f"n={workdir / 'n.csv'}",
            "--input",
            f"m={workdir / 'm.csv'}",
            "--input",
            f"p={workdir / 'n.csv'}",
        )
        assert out.returncode == 1
        assert "--x0" in out.stderr


class TestEnsemble:
    def test_matches_library_bit_for_bit(self):
        out = run_cli(
            "ensemble",
            "--n0",
            "5",
            "--runs",
            "2",
            "--seed",
            "7",
            "--m-grid",
            "1:100:4",
        )
        assert out.returncode == 0

        config = MonteCarloConfig(n0=5, runs=2, seed=7, m_grid=np.geomspace(1.0, 100.0, 4))
        result = monte_carlo(config)
        lines = ["run,m,avg_a,avg_n,avg_price\n"]
        for run in range(2):
            for i, m in enumerate(result.m_grid):
                lines.append(
                    f"{run},{float(m)!r},{float(result.avg_a[run, i])!r},"
                    f"{float(result.avg_n[run, i])!r},{float(result.avg_price[run, i])!r}\n"
                )
        assert out.stdout == "".join(lines)

    def test_underflowing_partition_function_is_silent(self):
        out = run_cli("ensemble", "--n0", "2", "--runs", "3", "--seed", "1", "--m-grid", "1:1e300:3")
        assert out.returncode == 0
        assert out.stderr == ""
        assert ",inf,inf\n" in out.stdout


class TestFluctuation:
    def test_counts_and_exit(self, tmp_path):
        rng = np.random.default_rng(11)
        t = np.arange(80, dtype=float)
        v = 100.0 * np.exp(np.cumsum(rng.normal(0.002, 0.01, t.size)))
        save_csv(TimeSeries(t, v), tmp_path / "series.csv")

        out = run_cli("fluctuation", str(tmp_path / "series.csv"), "--bins", "8")
        assert out.returncode == 0
        header, rows = parse_table(out.stdout)
        assert header == ["bin_left", "bin_right", "count", "theory"]
        assert rows.shape == (8, 4)
        assert int(np.sum(rows[:, 2])) == t.size - 1

    def test_too_few_changes_exits_3(self, tmp_path):
        t = np.arange(10, dtype=float)
        save_csv(TimeSeries(t, t + 1.0), tmp_path / "short.csv")
        out = run_cli("fluctuation", str(tmp_path / "short.csv"))
        assert out.returncode == 3

    def test_changes_near_the_float_maximum_give_a_finite_curve(self, tmp_path):
        # 60 yearly values rising in steps of about 1e306 to 5.9e307: e**center
        # overflows, so the curve is normalised in log space
        rng = np.random.default_rng(5)
        t = 1955.0 + np.arange(60.0)
        v = np.linspace(0.0, 5.9e307, 60) + rng.uniform(-3e305, 3e305, 60)
        save_csv(TimeSeries(t, v), tmp_path / "big.csv")
        out = run_cli("fluctuation", str(tmp_path / "big.csv"), "--mode", "levels", "--bins", "5")
        assert (out.returncode, out.stderr) == (0, "")
        header, rows = parse_table(out.stdout)
        assert rows.shape == (5, 4) and np.all(np.isfinite(rows))
        assert "nan" not in out.stdout


class TestParserReuse:
    """`main` parses every call with one parser built once per process."""

    @staticmethod
    def price_level_argv(workdir, *extra):
        return [
            "eval",
            "price-level",
            "--params",
            str(workdir / "params.txt"),
            "--grid",
            "1991:2009:37",
            "--input",
            f"n={workdir / 'n.csv'}",
            *extra,
        ]

    def run(self, capsys, argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_inputs_do_not_carry_over(self, workdir, capsys):
        full = self.price_level_argv(workdir, "--input", f"m={workdir / 'm.csv'}")
        first = self.run(capsys, full)
        assert first[0] == 0
        assert self.run(capsys, full) == first
        code, out, err = self.run(capsys, self.price_level_argv(workdir))
        assert code == 1 and out == ""
        assert "missing --input series: m" in err

    def test_span_does_not_carry_over(self, workdir, capsys):
        argv = self.price_level_argv(workdir, "--input", f"m={workdir / 'm.csv'}")
        plain = self.run(capsys, argv)
        smoothed = self.run(capsys, [*argv, "--span", "0.5"])
        assert plain[0] == smoothed[0] == 0
        assert smoothed[1] != plain[1]
        assert self.run(capsys, argv) == plain

    def test_valid_call_after_a_usage_error(self, workdir, capsys):
        code, out, err = self.run(capsys, ["eval", "no-such-model"])
        assert code == 1 and out == "" and "invalid choice" in err
        code, out, err = self.run(capsys, ["eval", "ridge", "--kappa", "2", "--gamma", "3"])
        assert (code, out, err) == (0, f"{ridge_sigma(2.0, 3.0)!r}\n", "")

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_main_leaves_module_attributes_identical(self, capsys):
        before = dict(vars(cli))
        assert self.run(capsys, ["eval", "ridge", "--kappa", "2", "--gamma", "3"])[0] == 0
        after = vars(cli)
        assert after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())


def run_main(capsys, argv):
    """(exit code, stdout, stderr) of one in-process `cli.main` call."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


MODEL_PARAMS = {
    "alpha": 64.68,
    "gamma": 5.93e-4,
    "M0": 603.8,
    "k_i": 3.49,
    "k_p": 0.124,
    "k_H": 1.48,
    "A": 0.0024,
    "k1": 0.44,
    "k2": 0.84,
}
GRID = "1961:2013:53"
SMOOTH = ("--span", "0.5", "--degree", "1")


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    """Noisy synthetic inputs for every series model and fit, plus a params file."""
    path = tmp_path_factory.mktemp("models")
    rng = np.random.default_rng(17)
    t = np.linspace(1960.0, 2014.0, 109)
    u = t - t[0]

    def noisy(v):
        return v * np.exp(0.01 * rng.normal(size=t.size))

    n = noisy(500.0 * np.exp(0.03 * u))
    mlong = noisy(40.0 * np.exp(0.05 * u))
    mshort = noisy(60.0 * np.exp(0.055 * u))
    k = noisy(2000.0 * np.exp(0.055 * u - 2e-4 * u**2))
    l = noisy(120.0 * np.exp(0.018 * u + 1e-4 * u**2))
    rates = InterestParams(k_i=3.49, k_p=0.124)
    values = {
        "n": n,
        "m": mlong,
        "mshort": mshort,
        "p": noisy(price_level(n, mlong, PriceLevelParams(alpha=64.68, gamma=5.93e-4, m0=603.8))),
        "rlong": noisy(interest_rate(n, mlong, rates)),
        "rshort": noisy(interest_rate(n, mshort, rates)),
        "k": k,
        "l": l,
        "y": noisy(cobb_douglas(k, l, CobbDouglasParams(a=0.0024, k1=0.44, k2=0.84))),
    }
    for name, v in values.items():
        save_csv(TimeSeries(t, v), path / f"{name}.csv")
    save_params(path / "params.txt", MODEL_PARAMS)
    return path


# model -> (--input name, file stem) pairs
EVAL_FILES = {
    "price-level": (("n", "n"), ("m", "m")),
    "inflation": (("n", "n"), ("m", "m")),
    "interest": (("n", "n"), ("m", "m")),
    "okun": (("n", "n"), ("p", "p")),
    "cobb-douglas": (("k", "k"), ("l", "l")),
}
FIT_FILES = {
    "price-level": (("n", "n"), ("m", "m"), ("p", "p")),
    "interest": (("n", "n"), ("mlong", "m"), ("mshort", "mshort"), ("rlong", "rlong"), ("rshort", "rshort")),
    "cobb-douglas": (("n", "y"), ("k", "k"), ("l", "l")),
}
FIT_X0 = {"price-level": "60,5e-4,650", "interest": "3.4,0.13", "cobb-douglas": None}


def eval_library(model, series, grid):
    """The values `infoeq eval <model>` should print, from the library directly."""
    if model == "price-level":
        n, m = (interp_linear(ts, grid) for ts in series)
        return price_level(n, m, PriceLevelParams(alpha=64.68, gamma=5.93e-4, m0=603.8))
    if model == "inflation":
        return inflation_model(*series, PriceLevelParams(alpha=64.68, gamma=5.93e-4, m0=603.8), grid).v
    if model == "interest":
        n, m = (interp_linear(ts, grid) for ts in series)
        return interest_rate(n, m, InterestParams(k_i=3.49, k_p=0.124))
    if model == "okun":
        return okun_hours(*series, 1.48, grid).v
    k, l = (interp_linear(ts, grid) for ts in series)
    return cobb_douglas(k, l, CobbDouglasParams(a=0.0024, k1=0.44, k2=0.84))


def fit_library(model, series, grid):
    if model == "price-level":
        return fit_price_level(*series, grid, [60.0, 5e-4, 650.0])
    if model == "interest":
        return fit_interest(*series, grid, [3.4, 0.13])
    return fit_cobb_douglas(*series, grid)


class TestModelPipeline:
    """`eval` and `fit` on every series model, plain and LOESS-smoothed, and
    the usage errors in the order the command checks them."""

    @staticmethod
    def inputs(model_dir, files):
        return [arg for role, stem in files for arg in ("--input", f"{role}={model_dir / stem}.csv")]

    @staticmethod
    def series(model_dir, files, smooth):
        out = [load_csv(model_dir / f"{stem}.csv") for _, stem in files]
        return [loess_smooth(ts, LoessConfig(degree=1, span=0.5)) for ts in out] if smooth else out

    @pytest.mark.parametrize("smooth", [False, True], ids=["plain", "span"])
    @pytest.mark.parametrize("model", list(EVAL_FILES))
    def test_eval_matches_library(self, model_dir, capsys, model, smooth):
        argv = ["eval", model, "--params", str(model_dir / "params.txt"), "--grid", GRID]
        argv += self.inputs(model_dir, EVAL_FILES[model]) + list(SMOOTH if smooth else ())
        code, out, err = run_main(capsys, argv)
        assert (code, err) == (0, "")
        header, rows = parse_table(out)
        grid = np.linspace(1961.0, 2013.0, 53)
        expect = eval_library(model, self.series(model_dir, EVAL_FILES[model], smooth), grid)
        assert header == ["t", "value"]
        assert np.array_equal(rows[:, 0], grid)
        assert np.array_equal(rows[:, 1], expect)

    @pytest.mark.parametrize("smooth", [False, True], ids=["plain", "span"])
    @pytest.mark.parametrize("model", list(FIT_FILES))
    def test_fit_matches_library(self, model_dir, capsys, model, smooth):
        argv = ["fit", model, "--grid", GRID, *self.inputs(model_dir, FIT_FILES[model])]
        argv += list(SMOOTH if smooth else ()) + (["--x0", FIT_X0[model]] if FIT_X0[model] else [])
        code, out, err = run_main(capsys, argv)
        grid = np.linspace(1961.0, 2013.0, 53)
        result = fit_library(model, self.series(model_dir, FIT_FILES[model], smooth), grid)
        assert code == (0 if result.converged else 4)
        assert json.loads(out) == json.loads(json.dumps(fit_report(result)))
        warning = f"infoeq: warning: fit ended on a bound: {', '.join(result.at_bound)}\n"
        assert err == (warning if result.at_bound else "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "price-level"], "--x0 alpha,gamma,M0 is required for this model"),
            (["fit", "interest"], "--x0 k_i,k_p is required for this model"),
            (["fit", "price-level", "--x0", "1,2"], "--x0 must have 3 values, got 2"),
            (["fit", "interest", "--x0", "1,2,3"], "--x0 must have 2 values, got 3"),
            (["fit", "cobb-douglas", "--x0", "1,2"], "--x0 must have 3 values, got 2"),
            (["fit", "price-level", "--x0", "1,a,3"], "--x0 must be comma-separated numbers, got '1,a,3'"),
            (["fit", "interest", "--x0", "x"], "--x0 must be comma-separated numbers, got 'x'"),
            (["fit", "cobb-douglas", "--x0", "1,,3"], "--x0 must be comma-separated numbers, got '1,,3'"),
        ],
    )
    def test_bad_x0_is_usage_error(self, model_dir, capsys, argv, message):
        argv = [*argv, "--grid", GRID, *self.inputs(model_dir, FIT_FILES[argv[1]])]
        code, out, err = run_main(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: infoeq ")
        assert err.splitlines()[-1] == f"infoeq: error: {message}"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "price-level", "--grid", GRID], "--params is required for this model"),
            (["eval", "okun", "--params", "p.txt"], "--grid is required for this model"),
            (["eval", "inflation"], "--grid is required for this model"),
            (["fit", "interest", "--x0", "1,2"], "--grid is required for this model"),
            (["eval", "adas", "--n0=1", "--s0=1", "--k-a=1", "--n-ref=1", "--s-ref=1"], "--grid is required for this model"),
            (["eval", "islm", "--n0=1", "--m-ref=1", "--s-ref=1", "--k-p=1", "--k-s=1"], "--k-i is required for this model"),
            (["eval", "ridge", "--gamma=1"], "--kappa is required for this model"),
        ],
    )
    def test_missing_flag_is_usage_error(self, capsys, argv, message):
        code, out, err = run_main(capsys, argv)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"infoeq: error: {message}"

    @pytest.mark.parametrize("command", ["eval", "fit"])
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--input", "q=q.csv"], "unexpected --input series: q"),
            (["--input", "n=again.csv"], "duplicate --input name 'n'"),
            (["--input", "n"], "--input expects name=path, got 'n'"),
        ],
    )
    def test_bad_input_is_usage_error(self, model_dir, capsys, command, extra, message):
        files = (FIT_FILES if command == "fit" else EVAL_FILES)["price-level"]
        argv = [command, "price-level", "--grid", GRID, *self.inputs(model_dir, files), *extra]
        if command == "eval":
            argv += ["--params", str(model_dir / "params.txt")]
        code, out, err = run_main(capsys, argv)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"infoeq: error: {message}"

    def test_missing_input_precedes_missing_x0(self, model_dir, capsys):
        argv = ["fit", "price-level", "--grid", GRID, *self.inputs(model_dir, FIT_FILES["price-level"][:2])]
        code, _, err = run_main(capsys, argv)
        assert code == 1
        assert err.splitlines()[-1] == "infoeq: error: missing --input series: p"

    def test_unreadable_input_precedes_missing_x0(self, model_dir, capsys):
        argv = ["fit", "interest", "--grid", GRID, *self.inputs(model_dir, FIT_FILES["interest"][:4])]
        argv += ["--input", f"rshort={model_dir / 'absent.csv'}"]
        code, out, err = run_main(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("infoeq: error: ") and err.count("\n") == 1

    def test_bad_span_precedes_missing_input(self, model_dir, capsys):
        argv = ["eval", "okun", "--params", str(model_dir / "params.txt"), "--grid", GRID, "--span", "2"]
        assert run_main(capsys, argv) == (3, "", "infoeq: error: span must lie in (0, 1]\n")

    def test_missing_params_key_after_inputs(self, model_dir, capsys):
        save_params(model_dir / "short.txt", {"alpha": 1.0})
        argv = ["eval", "cobb-douglas", "--params", str(model_dir / "short.txt"), "--grid", GRID]
        code, _, err = run_main(capsys, argv)
        assert code == 1
        assert err.splitlines()[-1] == "infoeq: error: missing --input series: k, l"
        argv += self.inputs(model_dir, EVAL_FILES["cobb-douglas"])
        assert run_main(capsys, argv) == (2, "", "infoeq: error: missing keys: A, k1, k2\n")


class TestTraceContract:
    """`eval` and `fit` reach every lower layer through a module global of
    `cli`, `fitting` or `macro`, which is where the benchmark's traced run
    wraps its spans; a reference captured at import would bypass them."""

    SPANS = (
        "macro.price_level",
        "macro.inflation_model",
        "macro.interest_rate",
        "macro.okun_hours",
        "macro.cobb_douglas",
        "fitting.fit_price_level",
        "fitting.fit_interest",
        "fitting.fit_cobb_douglas",
        "timeseries.load_csv",
        "paramfile.load_params",
    )

    def test_layer_spans_are_recorded(self, model_dir, capsys):
        import importlib
        from collections import Counter

        from perfbench.spans import PATCHED_MODULES, Recorder, instrument

        modules = {name: importlib.import_module(name) for name in PATCHED_MODULES}
        recorder = Recorder()
        with instrument(recorder, modules):
            for model, files in EVAL_FILES.items():
                argv = ["eval", model, "--params", str(model_dir / "params.txt"), "--grid", GRID]
                assert run_main(capsys, argv + TestModelPipeline.inputs(model_dir, files))[0] == 0
            for model, files in FIT_FILES.items():
                argv = ["fit", model, "--grid", GRID, *TestModelPipeline.inputs(model_dir, files)]
                x0 = ["--x0", FIT_X0[model]] if FIT_X0[model] else []
                assert run_main(capsys, argv + x0)[0] == 0
        counts = Counter(span.name for span in recorder.spans)
        assert [name for name in self.SPANS if not counts[name]] == []
        # two series per eval model and three, five and three per fit
        assert counts["timeseries.load_csv"] == counts["timeseries.interp_linear"] == 21


def adas_argv(*values):
    """`eval adas` with --n0, --s0, --k-a, --n-ref and --s-ref set to values."""
    flags = ("--n0", "--s0", "--k-a", "--n-ref", "--s-ref")
    return ["eval", "adas", *[item for pair in zip(flags, values) for item in pair]]


class TestFloatRange:
    """Closed forms past the float range end in one typed error line, and a
    crossing that is in range although its parameter products are not
    is printed."""

    @pytest.mark.parametrize(
        "argv",
        [
            [*adas_argv("1e300", "1e-300", "1e-300", "1", "1"), "--equilibrium"],
            [*adas_argv("1", "1", "1", "1", "1"), "--grid=-1e6:1e6:2"],
        ],
        ids=["adas-equilibrium", "adas-sweep"],
    )
    def test_exits_3_with_one_line(self, capsys, argv):
        code, out, err = run_main(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("infoeq: error: adas_") and err.count("\n") == 1
        assert "exceeds the float range" in err

    def test_islm_crossing_in_range(self, capsys):
        argv = ["eval", "islm", "--n0", "1", "--m-ref", "1e-300", "--s-ref", "1", "--k-p", "1e-300",
                "--k-s", "1", "--k-i", "1", "--equilibrium"]
        code, out, err = run_main(capsys, argv)
        assert (code, err) == (0, "")
        header, rows = parse_table(out)
        assert header == ["delta_n", "rate"]
        assert rows[0, 0] == -1.0
        assert rows[0, 1] == pytest.approx(np.e, rel=1e-9)


class TestSizeLimit:
    """Sizes over cli.MAX_CELLS exit 3 before anything is allocated (the
    limit is lowered here so that no test allocates near the real one)."""

    @pytest.fixture(autouse=True)
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CELLS", 100)

    @pytest.mark.parametrize(
        "argv, what",
        [
            ([*adas_argv("1", "1", "1", "1", "1"), "--grid=0:1:101"], "grid count"),
            (["ensemble", "--m-grid", "1:10:101"], "grid count"),
            (["ensemble", "--runs", "11", "--m-grid", "1:10:10"], "--runs x grid"),
            (["ensemble", "--runs", "2", "--n0", "51", "--m-grid", "1:10:10"], "--runs x --n0 draws"),
            (["fluctuation", "missing.csv", "--bins", "101"], "--bins"),
        ],
        ids=["eval-grid", "m-grid", "runs-x-grid", "draws", "bins"],
    )
    def test_over_the_limit_exits_3(self, capsys, argv, what):
        code, out, err = run_main(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"infoeq: error: {what} asks for ") and err.endswith("over the limit of 100\n")

    def test_at_the_limit_runs(self, capsys):
        argv = ["ensemble", "--runs", "10", "--n0", "10", "--m-grid", "1:10:10"]
        code, out, err = run_main(capsys, argv)
        assert (code, err) == (0, "")
        assert out.count("\n") == 101
        code, out, err = run_main(capsys, [*adas_argv("1", "1", "1", "1", "1"), "--grid=0:1:100"])
        assert (code, err) == (0, "")
        assert out.count("\n") == 101


def test_only_a_fit_report_exits_4():
    # fit's exit 4 comes from FitResult.converged; no exception maps to it
    assert [code for _, code in cli.EXIT_CODES] == [2, 2, 3]



class TestHostileFindings:
    """Calls that once raised a warning or an untyped exception out of main."""

    def test_level_changes_beyond_the_float_range_exit_3(self, tmp_path, capsys):
        path = tmp_path / "pm.csv"
        path.write_text("date,value\n" + "".join(f"{1960 + i}-01-01,{(-1) ** i * 1e308!r}\n" for i in range(40)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(capsys, ["fluctuation", str(path), "--mode", "levels", "--bins", "5"])
        assert (code, out) == (3, "")
        assert err == "infoeq: error: series_changes: a level difference exceeds the float range\n"

    @pytest.mark.parametrize("grid", ["inf:2009:3", "1991:-inf:3"])
    def test_infinite_grid_endpoint_exits_3(self, workdir, capsys, grid):
        argv = ["eval", "price-level", "--params", str(workdir / "params.txt"), f"--grid={grid}",
                "--input", f"n={workdir / 'n.csv'}", "--input", f"m={workdir / 'm.csv'}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("infoeq: error: t=") and err.count("\n") == 1

    def test_negative_seed_exits_3(self, capsys):
        code, out, err = run_main(capsys, ["ensemble", "--seed=-1", "--runs", "1", "--n0", "5"])
        assert (code, out, err) == (3, "", "infoeq: error: seed must be non-negative\n")

    def test_fit_box_beyond_working_precision_exits_3(self, model_dir, capsys):
        inputs = [f"--input={name}={model_dir / stem}.csv" for name, stem in FIT_FILES["cobb-douglas"]]
        argv = ["fit", "cobb-douglas", *inputs, "--grid=1961:2013:12", "--x0=0.0024,0.44,1e300"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(capsys, argv)
        assert (code, out) == (3, "")
        assert err == "infoeq: error: no point of the box solves the least squares to working precision\n"


# flag values that a hostile caller may pass, beside each flag's typical one
HOSTILE = ("0", "1e-300", "-1e-300", "1e300", "-1e300", "nan", "inf", "-inf", "-1")
NAN_CELL = re.compile(r"(?<![A-Za-z])nan(?![A-Za-z])", re.IGNORECASE)


def test_hostile_arguments_exit_cleanly(model_dir, tmp_path_factory):
    """Every subcommand on flags drawn from {typical, 0, +-1e-300, +-1e300,
    nan, +-inf, -1}, and on `smooth` and `fluctuation` inputs with values
    near +-1e306: exit 0-4 with no exception or warning, one error line on
    exit 2 or 3, and no nan cell on stdout."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    work = tmp_path_factory.mktemp("hostile")
    params_path, series_path = work / "params.txt", work / "series.csv"

    @st.composite
    def argvs(draw):
        def value(typical):
            return draw(st.sampled_from((typical,) * 6 + HOSTILE))

        def flags(**typical):
            """--name=value for each flag drawn (most of them)."""
            out = []
            for name, default in typical.items():
                if draw(st.integers(0, 4)):
                    out.append(f"--{name.replace('_', '-')}={value(default)}")
            return out

        def grid(start, stop, count):
            return f"--grid={value(start)}:{value(stop)}:{value(count)}"

        def series_file():
            """A yearly date,value file: typical values, values near 1e306, or
            near +-1e306 (fluctuation needs 31 rows)."""
            kind = draw(st.sampled_from([
                st.floats(1.0, 1000.0),
                st.floats(1e305, 2e306),
                st.one_of(st.floats(-2e306, 2e306), st.sampled_from([1e306, -1e306])),
            ]))
            size = draw(st.sampled_from([1, 3, 8, 40, 60]))
            values = draw(st.lists(kind, min_size=size, max_size=size))
            lines = "".join(f"{2000 + i}-01-01,{v!r}\n" for i, v in enumerate(values))
            series_path.write_text("date,value\n" + lines)
            return str(series_path)

        command = draw(st.sampled_from(["smooth", "eval", "fit", "ensemble", "fluctuation"]))
        if command == "smooth":
            return ["smooth", series_file(), *flags(span="0.5", degree="1")]
        if command == "fluctuation":
            mode = draw(st.sampled_from(["log_percent", "levels"]))
            return ["fluctuation", series_file(), "--mode", mode, *flags(bins="5")]
        if command == "ensemble":
            return ["ensemble", *flags(n0="20", a_mean="1.5", a_sd="0.5", runs="3", seed="0"),
                    f"--m-grid={value('1')}:{value('100')}:{value('10')}",
                    "--m-grid-scale", draw(st.sampled_from(["lin", "log"]))]
        if command == "fit":
            model = draw(st.sampled_from(sorted(FIT_FILES)))
            inputs = [f"--input={name}={model_dir / stem}.csv" for name, stem in FIT_FILES[model]]
            x0 = [value(v) for v in (FIT_X0[model] or "0.0024,0.44,0.84").split(",")]
            return ["fit", model, *inputs, grid("1961", "2013", "12"), f"--x0={','.join(x0)}",
                    *flags(span="0.5", tol="1e-8", max_iter="200")]
        model = draw(st.sampled_from([*EVAL_FILES, *cli.CURVE_MODELS, "ridge"]))
        if model == "ridge":
            return ["eval", "ridge", *flags(kappa="2", gamma="3")]
        if model == "adas":
            return ["eval", "adas", *flags(n0="1", s0="1", k_a="1", n_ref="1", s_ref="1", supply_shift="0.1"),
                    *draw(st.sampled_from([["--equilibrium"], [grid("-1", "1", "5")]]))]
        if model == "islm":
            return ["eval", "islm", *flags(n0="1", m_ref="1", s_ref="1", k_p="1", k_s="1", k_i="1",
                                           delta_n="0", delta_m="0", is_shift="0"),
                    *draw(st.sampled_from([["--equilibrium"], [grid("0.1", "1", "5")]]))]
        params_path.write_text("".join(f"{key} = {value(str(v))}\n" for key, v in MODEL_PARAMS.items()))
        inputs = [f"--input={name}={model_dir / stem}.csv" for name, stem in EVAL_FILES[model]]
        return ["eval", model, *inputs, "--params", str(params_path), grid("1961", "2013", "20"),
                *flags(span="0.5")]

    @hypothesis.settings(max_examples=1000, derandomize=True, database=None, deadline=None)
    @hypothesis.given(argv=argvs())
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 3, 4), (argv, code, err)
        if code in (2, 3):
            assert (out, err.count("\n"), err.startswith("infoeq: error: ")) == ("", 1, True), (argv, err)
        elif code != 1:
            assert all(line.startswith("infoeq: warning: ") for line in err.splitlines()), (argv, err)
        assert not NAN_CELL.search(out), (argv, out)

    check()
