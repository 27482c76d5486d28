#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, summarized for a claim.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workloads oracle,elliptic --seed 101 --seconds 25 --pairs 10 \\
        [--out pairs.json]
    python3 scripts/bench_pairs.py --summarize pairs.json

Each pair runs `python3 bench/run.py --workload W --seed S --seconds T`
once in each checkout, for every workload in turn, in that checkout's own
directory; pair i runs the parent first when i is even and the change
first when i is odd. The last stdout line of a run is its result (one JSON
object with the keys correct, attempted, failed and metrics).

For each workload and metric the summary prints the value of every pair,
each side's median, the pairs the change wins (ties count for neither)
and the parent's interquartile range. A gain is claimed only when the
change wins at least nine tenths of the pairs and the medians differ, in
the better direction, by more than the parent's interquartile range.
Whether higher or lower is better comes from the change's BENCHMARK.json;
the share of failed ops is a row too, lower being better.

--out saves the raw results as JSON; --summarize prints the summary of
such a file without running anything. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
FAILED_SHARE = "failed_op_ratio"


def run_bench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One bench/run.py run in checkout: its metric values and failed share."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} exited {done.returncode}: {done.stderr[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    values[FAILED_SHARE] = result["failed"] / max(result["attempted"], 1)
    return values


def iqr(values: list[float]) -> float:
    """Distance between the upper and lower quartiles (inclusive method)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's values, medians, the change's
    wins and ties, the parent's IQR, and whether a gain may be claimed.

    pairs is a list of {workload: {"parent": {metric: value}, "change":
    {...}}}; better maps a metric to "higher" or "lower" (default lower).
    """
    summary: dict = {}
    for workload in pairs[0] if pairs else ():
        rows = {}
        names = [n for n in pairs[0][workload]["parent"] if n in pairs[0][workload]["change"]]
        for name in names:
            sign = 1.0 if better.get(name, "lower") == "higher" else -1.0
            parent = [p[workload]["parent"][name] for p in pairs]
            change = [p[workload]["change"][name] for p in pairs]
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            ties = sum(c == p for p, c in zip(parent, change))
            gain = sign * (statistics.median(change) - statistics.median(parent))
            spread = iqr(parent)
            rows[name] = {
                "parent": parent,
                "change": change,
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "wins": wins,
                "ties": ties,
                "pairs": len(pairs),
                "parent_iqr": spread,
                "claim": wins >= 0.9 * len(pairs) and gain > spread,
            }
        summary[workload] = rows
    return summary


def format_summary(summary: dict) -> str:
    lines = []
    for workload, rows in summary.items():
        lines.append(f"workload {workload}")
        for name, row in rows.items():
            pairs = "  ".join(f"{p:.5g}/{c:.5g}" for p, c in zip(row["parent"], row["change"]))
            rel = (row["change_median"] / row["parent_median"] - 1.0) if row["parent_median"] else 0.0
            lines.append(
                f"  {name}: median parent {row['parent_median']:.5g} change "
                f"{row['change_median']:.5g} ({100.0 * rel:+.1f}%), wins {row['wins']}/"
                f"{row['pairs']} (ties {row['ties']}), parent IQR {row['parent_iqr']:.3g}, "
                f"claim {'yes' if row['claim'] else 'no'}"
            )
            lines.append(f"    pairs parent/change: {pairs}")
    return "\n".join(lines)


def metric_directions(checkout: Path) -> dict[str, str]:
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec.get("end_to_end", [])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--workloads", default="oracle")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--summarize", type=Path)
    args = parser.parse_args(argv)
    if args.summarize:
        saved = json.loads(args.summarize.read_text())
        print(format_summary(summarize(saved["pairs"], saved["better"])))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required unless --summarize is given")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = metric_directions(roots["change"])
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair: dict = {}
        for workload in args.workloads.split(","):
            pair[workload] = {
                side: run_bench(roots[side], workload, args.seed, args.seconds) for side in order
            }
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs} done ({' first, '.join(order)} second)", flush=True)
        if args.out:
            args.out.write_text(json.dumps({"better": better, "pairs": pairs}, indent=1))
    print(format_summary(summarize(pairs, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
