"""Steadiness report: run the benchmark repeatedly and compare the spread.

Usage, from the root of a checkout:

    python3 benchmarks/steadiness.py --seeds 1-10 [--workloads expand-dense ...]
        [--save .bench_out/set1.json] [--compare .bench_out/set0.json]

Runs ``benchmarks/run.py`` once per workload and seed, untraced, for the
``run_seconds`` of BENCHMARK.json.  For each workload and end-to-end metric
it prints the median, the quartiles from ``statistics.quantiles(values,
n=4)``, and the spread (Q3 - Q1) / median.  A spread above the metric's
bound is flagged ``OVER``, one above a third of it ``wide``; ``setup_s`` is
tested like every other metric.  ``--compare`` flags any metric whose
median got worse than the saved set's by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, os.path.join(ROOT, "benchmarks", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(old: float, new: float, better: str) -> float:
    """Relative worsening of ``new`` against ``old``; negative is better."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--save", help="write the runs and summary to this JSON file")
    parser.add_argument("--compare", help="a file written by --save to compare medians with")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    previous = None
    if args.compare:
        with open(args.compare) as handle:
            previous = json.load(handle)["summary"]

    runs, summary, flagged = {}, {}, 0
    for workload in workloads:
        runs[workload] = []
        for seed in seed_range(args.seeds):
            result = run_once(workload, seed, seconds)
            runs[workload].append({"seed": seed, **result})
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs NOT correct", flush=True)
                flagged += 1
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name}={entry['value']:.5g}" for name, entry in result["metrics"].items()
            ) + f"  attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary[workload] = {}
        for name, meta in metrics.items():
            values = [run["metrics"][name]["value"] for run in runs[workload]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            notes = []
            if spread > meta["bound"]:
                notes.append("OVER")
            elif spread > meta["bound"] / 3:
                notes.append("wide")
            if previous is not None:
                change = worse_by(previous[workload][name]["median"], median, meta["better"])
                worse = " WORSE" if change > meta["bound"] else ""
                notes.append(f"vs saved {change:+.1%}{worse}")
            flagged += any(n.startswith("OVER") or n.endswith("WORSE") for n in notes)
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                       "bound": meta["bound"], "notes": notes}

    print(f"\n{'workload':<20} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  notes")
    for workload, rows in summary.items():
        for name, row in rows.items():
            print(f"{workload:<20} {name:<12} {row['median']:10.5g} {row['q1']:10.5g} "
                  f"{row['q3']:10.5g} {row['spread']:7.2%} {row['bound']:6.2f}  "
                  + " ".join(row["notes"]))
    if args.save:
        with open(args.save, "w") as handle:
            json.dump({"seconds": seconds, "seeds": args.seeds, "runs": runs,
                       "summary": summary}, handle, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
