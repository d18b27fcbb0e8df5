import json
import subprocess
import sys

import numpy as np
import pytest

from infoeq import cli
from infoeq import (
    LoessConfig,
    MonteCarloConfig,
    PriceLevelParams,
    TimeSeries,
    adas_equilibrium,
    bundled_series,
    interp_linear,
    islm_equilibrium,
    load_csv,
    loess_smooth,
    monte_carlo,
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
