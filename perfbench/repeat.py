#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload region --seeds 1-10 --seconds 20 [--trace 1] [--json out.json]

Each run is a fresh `perfbench/run.py` process. For every metric the
summary gives the median over the runs and the spread, the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median. Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list) -> dict:
    names = results[0]["metrics"]
    out = {}
    for name, first in names.items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0, "unit": first["unit"],
                     "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args()
    results = []
    for seed in seed_list(args.seeds):
        res = run_once(args.workload, seed, args.seconds, args.trace)
        ok = res["correct"] and res["failed"] == 0
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              file=sys.stderr if ok else sys.stdout, flush=True)
        results.append(res)
    summary = summarise(results)
    for name, s in summary.items():
        print(f"{args.workload:8s} {name:40s} median {s['median']:.6g} {s['unit']:6s} spread {s['spread']:.4f}")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                               "metrics": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
