"""URHunter benchmark harness.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-scan --seed 1 --seconds 35 --trace 0

Runs one workload (``cold-scan``, ``longitudinal`` or ``lossy-scan``,
see ``perfbench/README.md``) over a default-scale world built from
``--seed``, repeating it until ``--seconds`` of measurement are spent.
Every repetition runs in a fresh interpreter, so each one starts from
the same process state a ``repro run`` starts from.  Each repetition's
outputs are checked; one that fails a check counts as failed and its
figures are dropped.  Progress goes to stderr; the last line of stdout
is one JSON object::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end figures (medians over
the repetitions); with ``--trace 1`` untraced and traced repetitions
alternate, and the metrics are the per-layer figures of the traced ones
(medians) plus ``trace.overhead_ratio``.  Traced repetitions write their
spans to ``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("cold-scan", "longitudinal", "lossy-scan")
#: set-up samples per run at least; repetitions give one each and
#: set-up-only processes make up the rest, half of them before the
#: repetitions and the rest after, so the samples span the whole run
#: rather than one stretch of the host's speed
MIN_SETUPS = 12
#: a repetition process that runs longer than this has hung
REP_TIMEOUT_S = 150


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of
    ``BENCHMARK.json``, the one list of what a run reports."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in benchmark[kind]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one repetition in this process (what the harness spawns)
    parser.add_argument(
        "--child",
        choices=("rep", "traced", "setup"),
        help=argparse.SUPPRESS,
    )
    parser.add_argument("--verify", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_program() -> None:
    """Put the checkout's ``src`` on the path, or exit non-zero."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {source}")
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_hash() -> str:
    """Content hash of the program and benchmark sources, keying the
    digest record."""
    digest = hashlib.sha256()
    sources = list((ROOT / "src" / "repro").rglob("*.py"))
    for path in sorted(sources + list(HERE.glob("*.py"))):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class DigestRecord:
    """Report digests per (source, workload, seed, kind), kept across
    runs in the checkout so every run of a seed must repeat them."""

    def __init__(self, path: Path, prefix: str):
        self.path = path
        self.prefix = prefix
        try:
            self.known = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.known = {}

    def check(self, kind: str, value: str) -> bool:
        expected = self.known.setdefault(f"{self.prefix}:{kind}", value)
        return expected == value

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


class Harness:
    """Spawns the repetitions of one run and folds their figures."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.digests = DigestRecord(
            OUT / "digests.json",
            f"{source_hash()}:{args.workload}:{args.seed}",
        )
        self.attempted = 0
        self.failed = 0
        self.verified = False
        self.spans = 0

    def spawn(self, kind: str) -> dict:
        """Run one repetition process and return its result."""
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds),
            "--child", kind,
        ]
        verify = kind == "rep" and not self.verified
        if verify:
            command.append("--verify")
        if kind == "traced":
            self.spans += 1
            command += [
                "--spans",
                str(
                    OUT / "spans" / f"{self.args.workload}-seed"
                    f"{self.args.seed}-rep{self.spans}.tsv.gz"
                ),
            ]
        try:
            done = subprocess.run(
                command,
                cwd=ROOT,
                stdout=subprocess.PIPE,
                text=True,
                timeout=REP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"failures": [f"{kind} repetition timed out"]}
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            return {"failures": [f"{kind} repetition exited {done.returncode}"]}
        self.verified = self.verified or verify
        return json.loads(lines[-1])

    def judge(self, result: dict) -> bool:
        """Apply the cross-repetition checks; True if the rep passes."""
        self.attempted += 1
        failures = list(result.get("failures", []))
        for kind, value in result.get("digests", {}).items():
            if not self.digests.check(kind, value):
                failures.append(f"{kind}: report digest changed for this seed")
        if failures:
            self.failed += 1
            for failure in failures:
                log(f"check failed: {failure}")
            return False
        return True

    def loop(self, step) -> None:
        """Call ``step`` until the next call would overrun ``--seconds``."""
        deadline = time.perf_counter() + self.args.seconds
        longest = 0.0
        while True:
            start = time.perf_counter()
            step()
            longest = max(longest, time.perf_counter() - start)
            if time.perf_counter() + longest > deadline:
                return

    # -- end-to-end ------------------------------------------------------

    def sample_setups(self, setups: list, count: int) -> None:
        """Append ``count`` set-up samples, each from a fresh process."""
        for _ in range(count):
            result = self.spawn("setup")
            if "setup_s" in result:
                setups.append(result["setup_s"])
            else:
                self.judge(result)

    def end_to_end(self) -> dict:
        reps = []
        setups = []
        self.sample_setups(setups, MIN_SETUPS // 2)

        def step():
            result = self.spawn("rep")
            if self.judge(result):
                reps.append(result)
                log(
                    f"rep {len(reps)}: setup {result['setup_s']:.3f}s "
                    f"run {result['run_s']:.3f}s warm "
                    + " ".join(f"{v:.3f}s" for v in result["warm_rounds"])
                )

        self.loop(step)
        if not reps:
            return {}
        setups += [result["setup_s"] for result in reps]
        self.sample_setups(setups, MIN_SETUPS - len(setups))

        def median(key):
            return statistics.median(result[key] for result in reps)

        values = {
            "setup_s": statistics.median(setups),
            "run_s": median("run_s"),
            "scan_qps": statistics.median(
                result["queries"] / result["stage1_wall_s"] for result in reps
            ),
            "warm_round_s": statistics.median(
                value for result in reps for value in result["warm_rounds"]
            ),
            "peak_rss_mb": median("peak_rss_mb"),
            "answered_share": statistics.median(
                result["responses"] / result["queries"] for result in reps
            ),
            "net_queries": median("net_queries"),
            "virtual_scan_s": median("virtual_scan_s"),
            "suspicious_recall": median("suspicious_recall"),
            "precision": median("precision"),
        }
        return {
            name: {"value": values[name], "unit": unit}
            for name, unit in metric_units("end_to_end").items()
        }

    # -- traced ------------------------------------------------------------

    def traced(self) -> dict:
        plain, traced = [], []

        def step():
            base = self.spawn("rep")
            if self.judge(base):
                plain.append(base["run_s"])
            result = self.spawn("traced")
            if self.judge(result):
                traced.append(result)
                log(f"pair {len(traced)}: run {result['run_s']:.3f}s traced")

        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        self.loop(step)
        if not traced or not plain:
            return {}
        figures = {
            name: statistics.median(result["figures"][name] for result in traced)
            for name in traced[0]["figures"]
        }
        figures["trace.overhead_ratio"] = statistics.median(
            result["run_s"] for result in traced
        ) / statistics.median(plain)
        return {
            name: {"value": figures[name], "unit": unit}
            for name, unit in metric_units("per_layer").items()
        }


def child_main(args: argparse.Namespace) -> int:
    """One repetition in this process; prints its result as JSON."""
    import workloads

    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.child == "setup":
            workload = workloads.WORKLOADS[args.workload](
                args.seed, work_dir, workloads.StageClock()
            )
            result = {"setup_s": workload.setup()[2]}
        else:
            result = workloads.execute(
                args.workload,
                args.seed,
                args.child,
                args.verify,
                work_dir,
                args.spans,
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    if args.child:
        return child_main(args)
    harness = Harness(args)
    metrics = harness.traced() if args.trace else harness.end_to_end()
    harness.digests.save()
    result = {
        "correct": harness.failed == 0 and bool(metrics),
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
