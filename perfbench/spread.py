"""Run the benchmark on several seeds and report each metric's spread.

Usage::

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S] [--trace 0|1] [--out FILE]

Runs every listed workload (default: all in ``BENCHMARK.json``) once per
seed. For every metric prints the median, the quartile spread (distance
between the first and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them) and, where
``BENCHMARK.json`` bounds the metric, whether the spread is below a third
of the bound. ``--out`` writes the medians and quartiles as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_workload(spec: dict, workload: str, seeds: list[int], seconds: float, trace: int) -> dict | None:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = attempted = 0
    for seed in seeds:
        cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        attempted += result["attempted"]
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"{workload}: failed_share {failed}/{attempted} = {failed / attempted:.4f}")
    summary = {}
    for name, vals in values.items():
        mid = stats.median(vals)
        spread = stats.quartile_spread(vals) if mid and len(vals) > 1 else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(f"  {name:32s} median {mid:12.6g} {units[name]:6s} spread {spread:7.4f}  bound {bound}  {verdict}")
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (mid, mid, mid)
        summary[name] = {"median": mid, "q1": q1, "q3": q3, "spread": spread, "unit": units[name], "values": vals}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    out = {}
    for workload in workloads:
        summary = run_workload(spec, workload, parse_seeds(args.seeds), seconds, args.trace)
        if summary is None:
            return 1
        out[workload] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
