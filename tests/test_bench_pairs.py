"""The summary arithmetic of tools/bench_pairs.py on canned result lines.
Nothing here runs the benchmark."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402

SPECS = {
    "op_ms_p50": {"better": "lower", "bound": 0.25},
    "ops_per_s": {"better": "higher", "bound": 0.25},
    "fitting.minimize.calls": {"better": "lower", "bound": None},
}


def result(op_ms, ops, failed=0, attempted=100):
    """One run's last stdout line, as perfbench/run.py prints it."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {"op_ms_p50": {"value": op_ms, "unit": "ms"}, "ops_per_s": {"value": ops, "unit": "1/s"}},
    }


def pairs(parent_ms, change_ms, **kw):
    return [
        {"seed": seed, "parent": result(p, 1000.0 / p), "change": result(c, 1000.0 / c, **kw)}
        for seed, (p, c) in enumerate(zip(parent_ms, change_ms))
    ]


def test_parent_runs_first_on_even_seeds():
    assert [bench_pairs.order(seed) for seed in (10, 11, 12)] == [
        ("parent", "change"),
        ("change", "parent"),
        ("parent", "change"),
    ]


def test_seed_ranges_and_lists():
    assert bench_pairs.seeds_arg("101-104") == [101, 102, 103, 104]
    assert bench_pairs.seeds_arg("7,9") == [7, 9]
    assert bench_pairs.seeds_arg("5") == [5]


def test_median_and_inclusive_quartiles():
    assert bench_pairs.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.spread([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert bench_pairs.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_wins_count_each_pair_in_the_metric_direction_and_ties_for_neither():
    summary = bench_pairs.summarize(pairs([10.0, 10.0, 10.0, 10.0], [9.0, 11.0, 10.0, 8.0]), SPECS)
    op = summary["metrics"]["op_ms_p50"]
    assert op["change_wins"] == 2 and op["pairs"] == 4
    assert summary["metrics"]["ops_per_s"]["change_wins"] == 2
    assert op["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0}
    assert op["change"]["median"] == 9.5
    assert op["relative_change"] == pytest.approx(-0.05)


def test_metric_missing_from_the_results_is_left_out():
    summary = bench_pairs.summarize(pairs([10.0], [9.0]), SPECS)
    assert set(summary["metrics"]) == {"op_ms_p50", "ops_per_s"}


@pytest.mark.parametrize(
    "change_ms, within",
    [(12.5, True), (12.6, False), (5.0, True)],
    ids=["at-the-bound", "beyond-the-bound", "faster"],
)
def test_bound_is_relative_to_the_parent_median(change_ms, within):
    summary = bench_pairs.summarize(pairs([10.0] * 3, [change_ms] * 3), SPECS)
    assert summary["metrics"]["op_ms_p50"]["within_bound"] is within
    # ops/s = 1000/op_ms: 80/s against 100/s is 20% worse, inside the bound;
    # 79.4/s is not
    assert summary["metrics"]["ops_per_s"]["within_bound"] is (1000.0 / change_ms >= 75.0)
    assert summary["gate_passed"] is (within and 1000.0 / change_ms >= 75.0)


def test_more_failed_ops_than_the_parent_fails_the_gate():
    summary = bench_pairs.summarize(pairs([10.0] * 2, [9.0] * 2, failed=1), SPECS)
    assert summary["failed"] == {"parent": 0, "change": 2}
    assert summary["attempted"] == {"parent": 200, "change": 200}
    assert summary["gate_passed"] is False


def test_claim_needs_nine_wins_in_ten_and_a_gain_beyond_the_parent_iqr():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0]
    faster = [p - 1.0 for p in parent]
    summary = bench_pairs.summarize(pairs(parent, faster), SPECS, claim="op_ms_p50")
    assert summary["claim"]["holds"] and summary["claim"]["change_wins"] == 10
    assert summary["claim"]["median_gain"] == pytest.approx(1.0)
    assert summary["claim"]["parent_iqr"] == pytest.approx(10.075 - 9.925)

    eight_wins = faster[:8] + parent[8:]
    assert not bench_pairs.summarize(pairs(parent, eight_wins), SPECS, claim="op_ms_p50")["claim"]["holds"]

    small_gain = [p - 0.05 for p in parent]
    claim = bench_pairs.summarize(pairs(parent, small_gain), SPECS, claim="op_ms_p50")["claim"]
    assert claim["change_wins"] == 10 and not claim["holds"]


def canned_output():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0]
    summary = bench_pairs.summarize(pairs(parent, [p - 1.0 for p in parent]), SPECS, claim="op_ms_p50")
    revs = {"parent": {"rev": "abc1234", "commit": "abc1234" + "0" * 33},
            "change": {"rev": "WORKTREE", "commit": "def5678" + "0" * 33}}
    run = {"label": "claim", "revs": revs, "seeds": list(range(101, 111)), "seconds": 20.0,
           "workloads": {"calibrate": {"end_to_end": summary}}}
    return {"runs": [run]}


def test_show_prints_one_table_per_run_and_workload():
    lines = bench_pairs.show(canned_output()).splitlines()
    assert lines[0] == "### claim: calibrate, end-to-end"
    assert lines[2] == (
        "parent abc1234 (abc123400000), change WORKTREE (def567800000); 10 pairs of 20 s, seeds 101-110; "
        "failed ops 0/1000 parent, 0/1000 change; gate passed: True"
    )
    assert lines[4] == "| metric | parent median [q1, q3] | change median | change | wins | bound | claim |"
    assert lines[6] == (
        "| op_ms_p50 (ms) | 10 [9.925, 10.07] | 9 | -10.0% | 10/10 | within 25% "
        "| holds: gain 1 vs parent IQR 0.15 |"
    )
    # ops/s = 1000/op_ms, higher is better; no claim on it
    assert lines[7].startswith("| ops_per_s (1/s) | 100 [") and lines[7].endswith("| 10/10 | within 25% |  |")
    assert len(lines) == 8


def test_show_marks_a_bound_crossed_and_a_claim_that_fails(capsys, tmp_path):
    output = canned_output()
    summary = bench_pairs.summarize(pairs([10.0] * 10, [13.0] * 10), SPECS, claim="op_ms_p50")
    output["runs"][0]["workloads"]["calibrate"]["end_to_end"] = summary
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps(output))
    assert bench_pairs.main(["--show", str(path)]) == 0
    row = capsys.readouterr().out.splitlines()[6]
    assert row.endswith("| +30.0% | 0/10 | beyond 25% | fails: gain -3 vs parent IQR 0 |")
