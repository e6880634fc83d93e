"""Steadiness check: run each workload N times and summarise the spread.

For every end-to-end metric it prints the median, the quartiles and the
inter-quartile range as a fraction of the median, next to the metric's
bound from ``BENCHMARK.json``.  ``--against`` compares the medians with a
set saved earlier by ``--out``, which is how two sets of runs of the same
code are shown to agree.  Run from the repository root::

    python3 perfbench/steady.py --runs 10 --out set1.json
    python3 perfbench/steady.py --runs 10 --against set1.json

Runs are serial (one benchmark process at a time), use seeds
``1 .. runs`` and last ``run_seconds`` from ``BENCHMARK.json`` each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark process; returns its final JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output check failed\n"
                           f"{proc.stderr}")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def spread(values: list) -> dict:
    """Median, quartiles and IQR / median, as the acceptance rule takes them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / median if median else 0.0}


def worse_by(metric: dict, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path,
                        help="save the raw per-run metrics as JSON")
    parser.add_argument("--against", type=Path,
                        help="compare medians with a set saved by --out")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs needs at least 2 runs to have quartiles")

    previous = json.loads(args.against.read_text()) if args.against else {}
    raw: dict = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            start = time.perf_counter()
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed} ({time.perf_counter() - start:.0f} s"
                  f" wall): " + ", ".join(f"{k}={v:.6g}"
                                          for k, v in runs[-1].items()),
                  flush=True)
        raw[workload] = runs
        print(f"\n{workload} ({args.runs} runs)")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'iqr/med':>8} {'bound':>6} {'drift':>7}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = spread([run[name] for run in runs])
            drift = ""
            if workload in previous:
                before = spread([run[name] for run in previous[workload]])
                worse = worse_by(metric, before["median"], stats["median"])
                drift = f"{worse:+7.1%}"
                ok &= worse <= metric["bound"]
            if name != "setup_s":
                ok &= stats["iqr_frac"] <= metric["bound"]
            print(f"  {name:<18} {stats['median']:12.6g} {stats['q1']:12.6g}"
                  f" {stats['q3']:12.6g} {stats['iqr_frac']:8.1%}"
                  f" {metric['bound']:6.2f} {drift:>7}")
    if args.out:
        args.out.write_text(json.dumps(raw, indent=1) + "\n")
    print("\nwithin bounds" if ok else "\nOUTSIDE BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
