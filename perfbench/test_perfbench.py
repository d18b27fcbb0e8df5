"""Tests of the benchmark itself: its oracles, its tracing and its statistics.

Run with `python3 -m pytest perfbench` from the checkout root.
"""

from __future__ import annotations

import importlib
import json
import math

import numpy as np
import pytest

from perfbench import run, spans
from perfbench.workloads import WORKLOADS

SEED = 7
PERTURB = 1.0 + 1e-6


@pytest.fixture(scope="module")
def inputs():
    with run.staged_inputs() as staged:
        yield staged


@pytest.fixture(scope="module")
def first_ops(inputs):
    """Each workload's first op for SEED, with its real CLI results."""
    cli = run.import_infoeq()
    out = {}
    for name, make in WORKLOADS.items():
        op = next(make(SEED, inputs))
        out[name] = op, [run.invoke(cli.main, argv) for argv in op.calls]
    return out


def _scale_csv_value(text: str, row: int, col: int) -> str:
    lines = text.splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) * PERTURB)
    lines[row] = ",".join(cells) + "\n"
    return "".join(lines)


def _scale_f_star(text: str) -> str:
    report = json.loads(text)
    report["f_star"] *= PERTURB
    return json.dumps(report, indent=2) + "\n"


# (call index, how to perturb one checked value of that call's stdout)
PERTURBATIONS = {
    "ensemble": [(0, lambda text: _scale_csv_value(text, 1234, 3))],  # one avg_n of run 6
    "smooth": [(0, lambda text: _scale_csv_value(text, 1, 1))],  # the first point is always sampled
    "calibrate": [(i, _scale_f_star) for i in range(3)],
    "evaluate": [(i, lambda text: _scale_csv_value(text, 300, -1)) for i in range(7)],
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_accepts_real_output(first_ops, name):
    op, results = first_ops[name]
    assert all(code == 0 for code, _ in results)
    assert op.check(results) is None


@pytest.mark.parametrize(
    "name, call, perturb",
    [(name, call, fn) for name, cases in sorted(PERTURBATIONS.items()) for call, fn in cases],
)
def test_oracle_flags_value_perturbed_by_1e6(first_ops, name, call, perturb):
    op, results = first_ops[name]
    code, text = results[call]
    bad = list(results)
    bad[call] = (code, perturb(text))
    assert bad[call][1] != text
    assert op.check(bad) is not None


def test_oracle_flags_nonzero_exit(first_ops):
    op, results = first_ops["calibrate"]
    bad = [(4, results[0][1])] + list(results[1:])
    assert op.check(bad) == "fit price-level: exit code 4"


def _attributes():
    return {name: dict(vars(importlib.import_module(name))) for name in spans.PATCHED_MODULES}


def _assert_identical(before, after):
    for name in before:
        assert before[name].keys() == after[name].keys()
        changed = [k for k in before[name] if before[name][k] is not after[name][k]]
        assert not changed, f"{name}: {changed}"


def test_traced_run_restores_module_attributes(inputs):
    run.import_infoeq()
    before = _attributes()
    tally = run.Tally()
    recorded, plain, traced = run.traced_pass("calibrate", SEED, inputs, 0.0, tally, paired=True)
    _assert_identical(before, _attributes())
    assert tally.failed == 0 and tally.attempted == 2 * run.COUNT_OPS
    assert len(plain) == len(traced) == run.COUNT_OPS
    names = {s.name for s in recorded}
    assert {"cli.main", "fitting.minimize", "fitting.fit_interest", "macro.price_level"} <= names


def test_instrument_restores_after_an_exception():
    run.import_infoeq()
    modules = {name: importlib.import_module(name) for name in spans.PATCHED_MODULES}
    before = _attributes()
    with pytest.raises(RuntimeError):
        with spans.instrument(spans.Recorder(), modules):
            assert modules["infoeq.cli"].load_csv is not before["infoeq.cli"]["load_csv"]
            raise RuntimeError
    _assert_identical(before, _attributes())


def test_self_time_subtracts_children():
    tree = [
        spans.Span("a", None, 0, 0.0, 10.0),
        spans.Span("b", 0, 0, 1.0, 4.0),
        spans.Span("c", 1, 0, 2.0, 3.0),
        spans.Span("d", 0, 0, 5.0, 7.0),
    ]
    assert spans.self_seconds(tree) == [5.0, 2.0, 1.0, 2.0]
    assert list(spans.ancestors(tree, 2)) == ["b", "a"]


@pytest.mark.parametrize("n", [11, 50, 200, 1000])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    samples = [float(x) for x in np.random.default_rng(n).permutation(n)]
    value, pct = run.tail(samples)

    def beyond(p):
        return n - math.ceil(p * n / 100)

    assert sum(s > value for s in samples) == beyond(pct) >= 10
    assert pct == 100 or beyond(pct + 1) < 10
