#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 bench/repeat.py --workload soak --seeds 1-10 --seconds 30 [--trace 1]
        [--record bench/baseline.json --label "commit abc1234"]

For every metric: the median over seeds and the distance between the first
and third quartiles (`statistics.quantiles(values, n=4)`) as a share of the
median.  With --record, the summary is merged into that JSON file under the
workload's name, together with the machine it was measured on and --label.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        out.extend(range(int(low), int(high or low) + 1))
    return out


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path)
    parser.add_argument("--label", default="", help="what was measured, e.g. the commit")
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
        runs.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    summary = summarise(runs)
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, row in summary.items():
        print(f"{name:28} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
              f"{row['spread']:8.2%}")
    failed = sum(run["failed"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    print(f"failed {failed} of {attempted} commands")

    if args.record:
        record = json.loads(args.record.read_text()) if args.record.exists() else {}
        record["machine"] = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        }
        key = args.workload + (" traced" if args.trace else "")
        record.setdefault("runs", {})[key] = {
            "label": args.label,
            "seeds": args.seeds,
            "seconds": args.seconds,
            "failed": failed,
            "attempted": attempted,
            "metrics": summary,
        }
        args.record.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
