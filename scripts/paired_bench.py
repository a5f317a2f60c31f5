"""Paired benchmark runs of two checkouts: which one is faster, pair by pair.

Usage: python3 scripts/paired_bench.py PARENT_ROOT CHANGE_ROOT
           --workload W [W ...] --pairs 10 --first-seed S [--seconds 38]
           [--out FILE]

Each ROOT is a checkout root, holding ``perfbench/run.py`` and ``src/``.
For each workload, pair i runs ``python3 perfbench/run.py --workload W
--seed S+i --seconds T --trace 0`` once in each root, from that root: the
parent first in even pairs (0-based), the change first in odd ones. Every
run's last standard-output line is the benchmark's JSON result, and its
``environment = {...}`` line the machine record; both are kept per run.

The result, written to FILE (standard output when none) as JSON, holds per
workload: every pair (seed, which side ran first, each side's metric values
and environment, and the change/parent ratio per metric), and per
end-to-end metric of ``BENCHMARK.json`` (read from the parent root) each
side's median and quartiles (numpy percentile, linear), the ratio of the
medians, the parent's quartile spread, the median gain (positive when the
change reads better), the pairs in which the change reads better, ties
counting for neither, and a verdict against the metric's ``bound``:

- ``gain``: the change reads better in at least nine tenths of the pairs,
  and its median gain exceeds the parent's quartile spread;
- ``worse``: the change's median reads worse than the parent's by more
  than ``bound`` of the parent's median;
- ``unresolved``: the parent's quartile spread is wider than ``bound`` of
  its median, and the change's median reads worse;
- ``no change``: anything else.

Each verdict is also printed to standard error, one line per workload and
metric. A failed run ends the script at once with exit 1.

``alternate`` is the pairing itself: two trees, one command, a JSON result
per run, reusable for any command that prints one.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
ENVIRONMENT_PREFIX = "environment = "


def alternate(roots: dict[str, Path], argv_for, pairs: int, first_seed: int) -> list[dict]:
    """Run ``argv_for(seed)`` in both roots for seeds first_seed.., pair by pair.

    The parent runs first in even pairs and the change in odd ones. Each
    side's entry holds the run's last standard-output line parsed as JSON
    and, when the run printed one, its ``environment = `` record.

    Raises:
        RuntimeError: A run exited non-zero or printed no JSON line last.
    """
    results = []
    for index in range(pairs):
        seed = first_seed + index
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            argv = argv_for(seed)
            done = subprocess.run(argv, cwd=roots[side], capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                last = (done.stderr.strip().splitlines() or [""])[-1]
                raise RuntimeError(f"{side} seed {seed} exited {done.returncode}: {last}")
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith(ENVIRONMENT_PREFIX):
                    result["environment"] = json.loads(line[len(ENVIRONMENT_PREFIX) :])
            pair[side] = result
            print(f"pair {index} seed {seed}: {side} done", file=sys.stderr)
        results.append(pair)
    return results


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def verdict(stats: dict, bound: float) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``no change`` for one metric's
    summary (see the module docstring), ``bound`` relative to the parent's
    median (to 1 where that median is 0)."""
    scale = abs(stats["parent"]["median"]) or 1.0
    gain, spread = stats["median_gain"], stats["parent_quartile_spread"]
    if 10 * stats["change_better_pairs"] >= 9 * stats["pairs"] and gain > spread:
        return "gain"
    if gain < -bound * scale:
        return "worse"
    if spread > bound * scale and gain < 0:
        return "unresolved"
    return "no change"


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per-pair values and ratios, then each metric's medians, spread, wins
    and verdict."""
    table = []
    for pair in pairs:
        row = {"seed": pair["seed"], "first": pair["first"]}
        for side in SIDES:
            result = pair[side]
            row[side] = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                "environment": result.get("environment"),
            }
        values = {side: row[side]["metrics"] for side in SIDES}
        row["change_over_parent"] = {
            m["name"]: _ratio(values["change"].get(m["name"]), values["parent"].get(m["name"]))
            for m in metrics
        }
        table.append(row)

    summary = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        runs = {side: [row[side]["metrics"].get(name) for row in table] for side in SIDES}
        if any(value is None for side in SIDES for value in runs[side]):
            summary[name] = {"unit": metric["unit"], "missing": runs}
            continue
        stats = {side: quartiles(runs[side]) for side in SIDES}
        gains = [sign * (c - p) for p, c in zip(runs["parent"], runs["change"])]
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **stats,
            "change_over_parent_median": _ratio(
                stats["change"]["median"], stats["parent"]["median"]
            ),
            "parent_quartile_spread": stats["parent"]["q3"] - stats["parent"]["q1"],
            "median_gain": sign * (stats["change"]["median"] - stats["parent"]["median"]),
            "change_better_pairs": sum(gain > 0 for gain in gains),
            "pairs": len(gains),
        }
        summary[name]["verdict"] = verdict(summary[name], metric["bound"])
    return {"pairs": table, "metrics": summary}


def _ratio(change, parent):
    if change is None or parent is None or parent == 0:
        return None
    return change / parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout root of the parent")
    parser.add_argument("change", type=Path, help="checkout root of the change")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {root}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    metrics = json.loads((roots["parent"] / "BENCHMARK.json").read_text())["end_to_end"]

    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "method": (
            "pair i runs seed first_seed + i in both roots, the parent first in "
            "even pairs (0-based); change_better_pairs counts pairs where the "
            "change reads better, ties counting for neither; quartiles are numpy "
            "percentiles (linear); median_gain is positive when the change's "
            "median reads better; verdict is gain when the change reads better "
            "in at least 9 of 10 pairs and median_gain exceeds "
            "parent_quartile_spread, worse when median_gain is below -bound "
            "times the parent's median, unresolved when the parent's quartile "
            "spread exceeds bound times its median and median_gain is negative, "
            "and no change otherwise"
        ),
        "first_seed": args.first_seed,
        "workloads": {},
    }
    for workload in args.workload:

        def argv_for(seed, workload=workload):
            return [
                sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", f"{args.seconds:g}", "--trace", "0",
            ]

        try:
            pairs = alternate(roots, argv_for, args.pairs, args.first_seed)
        except RuntimeError as err:
            print(f"paired_bench: {workload}: {err}", file=sys.stderr)
            return 1
        report["workloads"][workload] = summary = summarize(pairs, metrics)
        for name, stats in summary["metrics"].items():
            if "verdict" in stats:
                print(
                    f"{workload} {name}: {stats['verdict']} (median "
                    f"{stats['parent']['median']:.6g} -> {stats['change']['median']:.6g}, "
                    f"better in {stats['change_better_pairs']} of {stats['pairs']} pairs)",
                    file=sys.stderr,
                )
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
