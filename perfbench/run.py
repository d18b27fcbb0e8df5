"""Benchmark of the infoeq command line on the bundled snapshots.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`, never from an installed copy. One client in one process drives a
closed loop: each op calls `infoeq.cli.main(argv)` in-process with stdout
captured in memory, on inputs staged from the bundled snapshots into a
scratch directory under the checkout. Every op's output is checked by an
oracle outside the timed region.

With --trace 0 the end-to-end metrics are printed; with --trace 1 a
separate traced run prints the per-layer metrics. The last line of
stdout is the result object; the line before it is the environment
record. NOTES.md describes the workloads and metrics.
"""

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One thread per BLAS/OpenMP pool; set before anything imports numpy.
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

SETUP_REPEATS = 5  # child set-ups per run; setup_s is their median
COUNT_OPS = 4  # per-op counts are averaged over the seed's first ops, so they repeat exactly
TRACE_SHARE = {"own": 0.4, "other": 0.2}  # of --seconds, per workload pass in a traced run
PROBE_SERIES = "mbcurrcir"  # 828 points
PROBE_SPANS = (0.1, 0.4, 1.0)
PROBE_REPEATS = 3


def import_infoeq():
    """The package from this checkout's src/, or exit non-zero."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("infoeq.cli")
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import infoeq from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: infoeq resolved to {cli.__file__}, not under {SRC}")
    return cli


@contextlib.contextmanager
def staged_inputs():
    from perfbench.workloads import Inputs

    cli = import_infoeq()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        yield Inputs(Path(cli.__file__).parent / "data", workdir)
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):
            scratch.rmdir()


def invoke(main, argv) -> tuple[int, str]:
    """(exit code, stdout) of one in-process CLI call; -1 for an uncaught exception."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an op that crashes is a failed op, not a failed run
            return -1, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def run_op(main, op) -> tuple[list, float, float]:
    """Run one op; (results, wall seconds, process CPU seconds)."""
    w0, c0 = time.perf_counter(), time.process_time()
    results = [invoke(main, argv) for argv in op.calls]
    return results, time.perf_counter() - w0, time.process_time() - c0


def ops_for(name: str, seed: int, inputs):
    """The seed's op stream, after one untimed warm-up op."""
    from perfbench.workloads import WORKLOADS

    cli = import_infoeq()
    ops = WORKLOADS[name](seed, inputs)
    warm = next(WORKLOADS[name](seed, inputs))
    for argv in warm.calls:
        invoke(cli.main, argv)
    return ops


class Tally:
    """Ops attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, op, results) -> None:
        self.attempted += 1
        reason = op.check(results)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile) at the highest whole percentile with >= 10 samples above it."""
    n = len(samples)
    pct = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return sorted(samples)[rank - 1], pct


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to ready, for SETUP_REPEATS fresh child processes."""
    out = []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child exited {code} before ready")
        out.append(elapsed)
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally, env: dict) -> dict:
    setups = setup_seconds(workload, seed)
    cli = import_infoeq()
    with staged_inputs() as inputs:
        ops = ops_for(workload, seed, inputs)
        walls, cpus, busy = [], [], 0.0
        while busy < seconds:
            op = next(ops)
            results, wall, cpu = run_op(cli.main, op)
            busy += wall
            walls.append(wall * 1e3)
            cpus.append(cpu * 1e3)
            tally.check(op, results)
    tail_ms, pct = tail(walls)
    env["samples"] = {"ops": len(walls), "setups": len(setups)}
    env["tail_percentile"] = pct
    return {
        "op_ms_p50": metric(statistics.median(walls), "ms"),
        "op_ms_tail": metric(tail_ms, "ms"),
        "ops_per_s": metric(len(walls) / busy, "1/s"),
        "cpu_ms_p50": metric(statistics.median(cpus), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }


# --- traced run -----------------------------------------------------------------


def traced_pass(name: str, seed: int, inputs, budget: float, tally: Tally, paired: bool):
    """Traced ops of one workload for `budget` seconds (and at least COUNT_OPS ops).

    With `paired`, each op also runs untraced, alternating which goes first,
    and the per-op wall times of both are returned for the overhead ratio.
    """
    from perfbench.spans import PATCHED_MODULES, Recorder, instrument

    cli = import_infoeq()
    modules = {m: importlib.import_module(m) for m in PATCHED_MODULES}
    recorder = Recorder()
    traced_main = recorder.wrap("cli.main", cli.main)
    ops = ops_for(name, seed, inputs)
    plain, traced, spent = [], [], 0.0
    while spent < budget or recorder.op < COUNT_OPS:
        op = next(ops)
        modes = ((False, True) if recorder.op % 2 else (True, False)) if paired else (True,)
        for with_trace in modes:
            if with_trace:
                with instrument(recorder, modules):
                    results, wall, _ = run_op(traced_main, op)
                traced.append(wall)
            else:
                results, wall, _ = run_op(cli.main, op)
                plain.append(wall)
            tally.check(op, results)
            spent += wall
        recorder.op += 1
    return recorder.spans, plain, traced


def layer_metrics(passes: dict) -> tuple[dict, dict]:
    """Per-layer metrics from each workload's spans; also their sample counts.

    A metric whose spans never ran is left out rather than reported as 0.
    """
    from perfbench.spans import ancestors, self_seconds

    metrics, samples = {}, {}

    def put(key, unit, n, value):
        if n:
            metrics[key] = metric(value(), unit)
            samples[key] = n

    def named(name):
        return lambda n: n == name

    def is_model(n):
        return n.startswith("macro.")

    def pick(spans, match):
        return [i for i, s in enumerate(spans) if match(s.name)]

    def ms_p50(spans, name):
        idx = pick(spans, named(name))
        put(f"{name}.ms_p50", "ms", len(idx), lambda: statistics.median(spans[i].seconds * 1e3 for i in idx))

    def rate(spans, match, key, unit):
        """Work handled per second spent inside the matching spans."""
        idx = pick(spans, match)
        put(key, unit, len(idx), lambda: sum(spans[i].work for i in idx) / sum(spans[i].seconds for i in idx))

    def per_op(spans, key, reached, counted, weight=lambda i: 1.0):
        """Mean per op over the seed's first COUNT_OPS ops, so it repeats exactly."""
        total = sum(weight(i) for i in counted if spans[i].op < COUNT_OPS)
        put(key, "count", COUNT_OPS if reached else 0, lambda: total / COUNT_OPS)

    def ms_total(spans, name):
        """Median over ops of the time one op spends in `name`."""
        by_op = {}
        for i in pick(spans, named(name)):
            by_op[spans[i].op] = by_op.get(spans[i].op, 0.0) + spans[i].seconds * 1e3
        put(f"{name}.ms_total", "ms", len(by_op), lambda: statistics.median(by_op.values()))

    def self_p50(spans, name, key):
        idx = pick(spans, named(name))
        own = self_seconds(spans)
        put(key, "ms", len(idx), lambda: statistics.median(own[i] * 1e3 for i in idx))

    ens = passes["ensemble"]
    ms_p50(ens, "ensemble.monte_carlo")
    rate(ens, named("ensemble.monte_carlo"), "ensemble.monte_carlo.runs_per_s", "runs/s")

    smooth = passes["smooth"]
    ms_p50(smooth, "timeseries.loess_smooth")
    rate(smooth, named("timeseries.loess_smooth"), "timeseries.loess_smooth.points_per_s", "points/s")

    cal = passes["calibrate"]
    models = pick(cal, is_model)
    for fit in ("fitting.fit_price_level", "fitting.fit_interest", "fitting.fit_cobb_douglas"):
        fits = pick(cal, named(fit))
        ms_p50(cal, fit)
        per_op(cal, f"{fit}.iterations", fits, fits, weight=lambda i: cal[i].work)
        per_op(cal, f"{fit}.model_calls", fits, [i for i in models if fit in ancestors(cal, i)])
    minimize = pick(cal, named("fitting.minimize"))
    per_op(cal, "fitting.minimize.calls", minimize, minimize)
    self_p50(cal, "fitting.minimize", "fitting.minimize.self_ms_p50")
    per_op(cal, "macro.model.calls", models, models)
    put("macro.model.us_per_call", "us", len(models), lambda: sum(cal[i].seconds for i in models) / len(models) * 1e6)

    ev = passes["evaluate"]
    rate(ev, is_model, "macro.model.points_per_s", "points/s")
    ms_total(ev, "relations.ge_price")
    ms_p50(ev, "timeseries.load_csv")
    rate(ev, named("timeseries.load_csv"), "timeseries.load_csv.rows_per_s", "rows/s")
    loads = pick(ev, named("timeseries.interp_linear"))
    per_op(ev, "timeseries.interp_linear.calls", loads, loads)
    ms_total(ev, "timeseries.interp_linear")
    ms_p50(ev, "paramfile.load_params")
    self_p50(ev, "cli.main", "cli.self_ms_p50")
    return metrics, samples


def probes(inputs) -> dict:
    """Fixed-size baselines, called on the library directly, outside any op."""
    from infoeq import LoessConfig, MonteCarloConfig, load_csv, loess_smooth, monte_carlo

    from perfbench.workloads import SERIES_FILES

    def median_ms(fn, repeats=PROBE_REPEATS):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    out = {"ensemble.monte_carlo.default_ms": metric(median_ms(lambda: monte_carlo(MonteCarloConfig()), 1), "ms")}
    tracemalloc.start()
    try:
        monte_carlo(MonteCarloConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out["ensemble.monte_carlo.default_peak_mb"] = metric(peak / 2**20, "MB")
    series = load_csv(inputs.path(PROBE_SERIES))
    for span in PROBE_SPANS:
        out[f"timeseries.loess_smooth.span_{span}_ms"] = metric(
            median_ms(lambda: loess_smooth(series, LoessConfig(span=span))), "ms"
        )
    out["timeseries.load_csv.all9_ms"] = metric(
        median_ms(lambda: [load_csv(inputs.path(name)) for name in SERIES_FILES], 5), "ms"
    )
    return out


def per_layer(workload: str, seed: int, seconds: float, tally: Tally, env: dict) -> dict:
    from perfbench.workloads import WORKLOADS

    passes, overhead = {}, None
    with staged_inputs() as inputs:
        for name in sorted(WORKLOADS, key=lambda n: n != workload):
            own = name == workload
            share = TRACE_SHARE["own" if own else "other"]
            spans, plain, traced = traced_pass(name, seed, inputs, share * seconds, tally, paired=own)
            passes[name] = spans
            if own:
                overhead = statistics.median(traced) / statistics.median(plain) - 1.0
                env["samples"] = {"overhead_pairs": len(plain)}
        metrics, samples = layer_metrics(passes)
        metrics["trace.overhead_frac"] = metric(overhead, "frac")
        metrics.update(probes(inputs))
    env["samples"].update(samples)
    return metrics


def environment(args) -> dict:
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pinned_threads": {k: os.environ.get(k) for k in PINNED_THREADS},
    }


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:  # a child timed by setup_seconds: set up, say ready, leave
        with staged_inputs() as inputs:
            ops_for(args.workload, args.seed, inputs)
            print("ready", flush=True)
        return 0

    import_infoeq()
    env = environment(args)
    tally = Tally()
    run = per_layer if args.trace else end_to_end
    metrics = run(args.workload, args.seed, args.seconds, tally, env)
    env["failed_frac"] = tally.failed / max(tally.attempted, 1)
    env["failures"] = tally.reasons
    for reason in tally.reasons:
        print(f"perfbench: failed op: {reason}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
