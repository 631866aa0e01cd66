"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --seeds 1-10 --out .perfbench/set-a.jsonl
    python3 perfbench/steadiness.py --summarize .perfbench/set-a.jsonl

The first form runs ``perfbench/run.py`` untraced once per (workload,
seed) over the workloads of ``BENCHMARK.json``, one run at a time,
appending each result line to ``--out``; both forms then print, per
workload and end-to-end metric, the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread (quartile
distance over median) and the bound from ``BENCHMARK.json``.  A spread
under a third of the bound is marked ``ok``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str):
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_all(benchmark: dict, seeds, out: Path) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    for workload in [entry["name"] for entry in benchmark["workloads"]]:
        for seed in seeds:
            command = benchmark["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(benchmark["run_seconds"]),
                "--trace", "0",
            ]
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True
            )
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 else None
            record = {"workload": workload, "seed": seed, "result": result}
            with out.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
            status = "ok" if result and result["correct"] else "FAILED"
            print(f"{workload} seed {seed}: {status}", file=sys.stderr)


def summarize(benchmark: dict, path: Path) -> str:
    bounds = {
        metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]
    }
    runs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        runs.setdefault(record["workload"], []).append(record["result"])
    rows = [
        "| workload | metric | runs | median | Q1 | Q3 | spread | bound | |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for workload, results in runs.items():
        good = [result for result in results if result and result["correct"]]
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for result in good]
            if len(values) < 2:
                continue
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            mark = "ok" if spread < bound / 3 else "WIDE"
            rows.append(
                f"| {workload} | {name} | {len(values)}/{len(results)} "
                f"| {median:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} "
                f"| {bound} | {mark} |"
            )
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--summarize", type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    path = args.summarize
    if path is None:
        if args.out is None:
            parser.error("give --out to run, or --summarize to report")
        run_all(benchmark, seed_list(args.seeds), args.out)
        path = args.out
    print(summarize(benchmark, path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
