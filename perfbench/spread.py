#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric's spread.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py --workload t7-sampling --seeds 1-10 [--out FILE]

Runs `perfbench/run.py` with tracing off and BENCHMARK.json's run_seconds,
one seed at a time (never in parallel), then prints, per end-to-end metric,
the median and quartiles of its values as `statistics.quantiles(values, n=4)`
gives them, and the spread: the distance between the quartiles as a share of
the median.  Each spread is compared with a third of the metric's bound.
--out writes the summary, with every run's values and detail line, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        detail, result = run_once(args.workload, seed, seconds)
        runs.append({"seed": seed, "result": result, "detail": detail})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    names = list(runs[0]["result"]["metrics"])
    summary = {}
    for name in names:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        summary[name] = summarise(vals) if len(vals) > 1 else {"median": vals[0]}
        summary[name]["unit"] = runs[0]["result"]["metrics"][name]["unit"]
        bound = bounds[name]
        s = summary[name]
        verdict = ""
        if "spread" in s:
            verdict = "ok" if s["spread"] < bound / 3 else f"WIDE (bound/3 = {bound / 3:.4f})"
        print(f"{name:45s} median {s['median']:.6g} {s['unit']:6s} "
              f"spread {s.get('spread', 0):.4f} {verdict}")
    all_correct = all(r["result"]["correct"] for r in runs)
    print("all correct" if all_correct else "SOME RUNS NOT CORRECT")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds,
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
