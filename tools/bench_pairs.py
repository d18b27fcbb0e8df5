"""Paired benchmark runs of two revisions, summarised as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REV [--change REV] --workload W [--workload W ...]
        --seeds 101-110 [--seconds 20] [--trace] [--claim METRIC] [--label NAME] -o BENCH_<n>.json
    python3 tools/bench_pairs.py --show BENCH_<n>.json

Both revisions are checked out clean under `.bench_build/` (see
worktree.py; the default change is the working tree). For every seed
`perfbench/run.py` runs once in each checkout, the parent first on even
seeds and the change first on odd ones, with PYTHONDONTWRITEBYTECODE=1,
so that neither side gains from a bytecode cache or from its place in
the pair. The last stdout line of each run is its result.

Per workload and metric the summary holds the parent's and the change's
median and quartiles, the number of pairs the change won, the bound from
BENCHMARK.json and whether the change stays inside it, and the failed
ops of each side. With --claim, a workload's claim holds when the change
wins at least nine pairs in ten on that metric and its median beats the
parent's by more than the parent's interquartile range. Every raw pair,
its environment records and the exact commands are kept. An existing
output file gains the new run in its "runs" list. --trace adds one
traced run per seed, summarised the same way against the per-layer
metrics, which have no bound. --show prints the summaries of a file as
one Markdown table per run, workload and kind of metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

from worktree import ROOT, WORKTREE, checkout, resolve

SIDES = ("parent", "change")


def order(seed: int) -> tuple[str, str]:
    """Which side runs first for seed: the parent on even seeds."""
    return SIDES if seed % 2 == 0 else SIDES[::-1]


def seeds_arg(text: str) -> list[int]:
    """'101-110' or '101,105,107' as a list of seeds."""
    if "-" in text.strip("-"):
        first, last = (int(v) for v in text.split("-"))
        return list(range(first, last + 1))
    return [int(v) for v in text.split(",")]


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method, so a sorted sample's own
    points bound them)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], specs: dict[str, dict], claim: str | None = None) -> dict:
    """Summary of one workload's pairs.

    pairs: [{"seed": s, "parent": result, "change": result}], each result
    a run's last stdout line. specs: metric name -> {"better": "lower" or
    "higher", "bound": relative bound or None}. A metric that is missing
    from any result is left out.
    """
    sign = {"lower": 1.0, "higher": -1.0}
    metrics = {}
    for name, spec in specs.items():
        if not all(name in pair[side]["metrics"] for pair in pairs for side in SIDES):
            continue
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        s = sign[spec["better"]]
        parent, change = spread(values["parent"]), spread(values["change"])
        worse = s * (change["median"] - parent["median"]) / parent["median"]
        bound = spec.get("bound")
        metrics[name] = {
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "better": spec["better"],
            "parent": parent,
            "change": change,
            "change_wins": sum(s * c < s * p for p, c in zip(values["parent"], values["change"])),
            "pairs": len(pairs),
            "relative_change": (change["median"] - parent["median"]) / parent["median"],
            "bound": bound,
            "within_bound": None if bound is None else worse <= bound,
        }
    failed = {side: sum(pair[side]["failed"] for pair in pairs) for side in SIDES}
    attempted = {side: sum(pair[side]["attempted"] for pair in pairs) for side in SIDES}
    share = {side: failed[side] / max(attempted[side], 1) for side in SIDES}
    gate = share["change"] <= share["parent"] and all(
        m["within_bound"] is not False for m in metrics.values()
    )
    summary = {"metrics": metrics, "failed": failed, "attempted": attempted, "gate_passed": gate}
    if claim is not None and claim in metrics:
        m = metrics[claim]
        gain = sign[m["better"]] * (m["parent"]["median"] - m["change"]["median"])
        iqr = m["parent"]["q3"] - m["parent"]["q1"]
        summary["claim"] = {
            "metric": claim,
            "change_wins": m["change_wins"],
            "pairs": m["pairs"],
            "median_gain": gain,
            "parent_iqr": iqr,
            "holds": m["change_wins"] >= math.ceil(0.9 * m["pairs"]) and gain > iqr,
        }
    return summary


def _seeds_text(seeds: list[int]) -> str:
    if seeds == list(range(seeds[0], seeds[-1] + 1)):
        return f"{seeds[0]}-{seeds[-1]}"
    return ",".join(map(str, seeds))


def table(summary: dict) -> list[str]:
    """Markdown rows of one summary: per metric the parent's median and
    quartiles, the change's median, the relative change, the pairs the
    change won, the bound verdict and, on the claimed metric, the claim's."""
    claim = summary.get("claim", {})
    rows = [
        "| metric | parent median [q1, q3] | change median | change | wins | bound | claim |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, m in summary["metrics"].items():
        parent = m["parent"]
        bound = "" if m["bound"] is None else f"{'within' if m['within_bound'] else 'beyond'} {m['bound']:.0%}"
        verdict = ""
        if claim.get("metric") == name:
            held = "holds" if claim["holds"] else "fails"
            verdict = f"{held}: gain {claim['median_gain']:.4g} vs parent IQR {claim['parent_iqr']:.4g}"
        rows.append(
            f"| {name} ({m['unit']}) | {parent['median']:.4g} [{parent['q1']:.4g}, {parent['q3']:.4g}] "
            f"| {m['change']['median']:.4g} | {m['relative_change']:+.1%} | {m['change_wins']}/{m['pairs']} "
            f"| {bound} | {verdict} |"
        )
    return rows


def show(output: dict) -> str:
    """Every run of a BENCH file as Markdown: a heading per run, workload
    and kind of metric, one line of context, then its table."""
    lines = []
    for run in output["runs"]:
        revs = ", ".join(f"{side} {v['rev']} ({v['commit'][:12]})" for side, v in run["revs"].items())
        for workload, entry in run["workloads"].items():
            for kind, summary in entry.items():
                failed, attempted = summary["failed"], summary["attempted"]
                lines += [
                    f"### {run['label'] or 'run'}: {workload}, {kind.replace('_', '-')}",
                    "",
                    f"{revs}; {len(run['seeds'])} pairs of {run['seconds']:g} s, seeds {_seeds_text(run['seeds'])}; "
                    f"failed ops {failed['parent']}/{attempted['parent']} parent, "
                    f"{failed['change']}/{attempted['change']} change; gate passed: {summary['gate_passed']}",
                    "",
                    *table(summary),
                    "",
                ]
    return "\n".join(lines)


def metric_specs(benchmark: dict, trace: bool) -> dict[str, dict]:
    if trace:
        return {m["name"]: {"better": m["better"], "bound": None} for m in benchmark["per_layer"]}
    return {m["name"]: {"better": m["better"], "bound": m["bound"]} for m in benchmark["end_to_end"]}


def run_once(path: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One perfbench run in the checkout at path: its command, env record and result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(int(trace))]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=path, env=env, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return {
        "command": {"argv": argv, "cwd": str(path.relative_to(ROOT)), "env": {"PYTHONDONTWRITEBYTECODE": "1"}},
        "env": json.loads(lines[-2])["env"],
        "result": json.loads(lines[-1]),
        "stderr": done.stderr.splitlines(),
    }


def run_pairs(paths: dict[str, Path], workload: str, seeds: list[int], seconds: float, trace: bool) -> list:
    """One run per side and seed, in order(seed)."""
    pairs = []
    for seed in seeds:
        pair = {"seed": seed, "order": list(order(seed))}
        for side in order(seed):
            pair[side] = run_once(paths[side], workload, seed, seconds, trace)
            result = pair[side]["result"]
            op_ms = result["metrics"].get("op_ms_p50", {}).get("value")
            print(f"{workload} seed {seed} {side}: op_ms_p50={op_ms} failed={result['failed']}", file=sys.stderr)
        pairs.append(pair)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--show", type=Path, metavar="BENCH_FILE", help="print the tables of a file and stop")
    parser.add_argument("--parent", help="parent revision")
    parser.add_argument("--change", default=WORKTREE, help="change revision (default: the working tree)")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=seeds_arg, help="101-110 or 101,103")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true", help="also run one traced pair per seed")
    parser.add_argument("--claim", help="end-to-end metric the change claims to improve")
    parser.add_argument("--label", default="", help="name of this run in the output file")
    parser.add_argument("-o", "--output", type=Path)
    args = parser.parse_args(argv)
    if args.show is not None:
        print(show(json.loads(args.show.read_text())), end="")
        return 0
    missing = [flag for flag in ("parent", "workload", "seeds", "output") if getattr(args, flag) is None]
    if missing:
        parser.error(f"without --show, these are required: {', '.join('--' + flag for flag in missing)}")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    commits = {"parent": resolve(args.parent), "change": resolve(args.change)}
    run = {
        "label": args.label,
        "revs": {side: {"rev": rev, "commit": commits[side]} for side, rev in zip(SIDES, (args.parent, args.change))},
        "seeds": args.seeds,
        "seconds": args.seconds,
        "workloads": {},
    }
    with checkout(commits["parent"], "parent") as parent, checkout(commits["change"], "change") as change:
        paths = {"parent": parent, "change": change}
        for workload in args.workload:
            entry = {}
            for trace in (False, True) if args.trace else (False,):
                pairs = run_pairs(paths, workload, args.seeds, args.seconds, trace)
                results = [{"seed": p["seed"], **{side: p[side]["result"] for side in SIDES}} for p in pairs]
                summary = summarize(results, metric_specs(benchmark, trace), None if trace else args.claim)
                entry["per_layer" if trace else "end_to_end"] = {**summary, "raw_pairs": pairs}
            run["workloads"][workload] = entry

    output = json.loads(args.output.read_text()) if args.output.exists() else {"runs": []}
    output["runs"].append(run)
    args.output.write_text(json.dumps(output, indent=1) + "\n")
    for workload, entry in run["workloads"].items():
        e2e = entry["end_to_end"]
        claim = e2e.get("claim", {}).get("holds")
        print(f"{workload}: gate passed {e2e['gate_passed']}, claim holds {claim}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
