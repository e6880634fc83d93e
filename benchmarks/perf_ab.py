#!/usr/bin/env python
"""Speed gate: perfbench on a base tree and on this tree, same runner.

Copies ``src/``, ``perfbench/`` and ``BENCHMARK.json`` of both trees into
one fresh directory (the location of a tree alone moved ``round_dm``'s
``run_s`` by 14% on one host), then runs ``perfbench/run.py --seconds 2``
for :data:`PAIRS` base/head pairs per workload of ``BENCHMARK.json``,
alternating which side runs first::

    python benchmarks/perf_ab.py ../base      # base tree vs this tree
    python benchmarks/perf_ab.py              # no base: this tree once

It fails (exit 1) when a head run is not ``correct`` or when an
``end_to_end`` metric's head median is worse than the base median by more
than that metric's ``bound`` in this tree's ``BENCHMARK.json``.  A base run
that fails is reported and not charged to the head.  Each side's per-run
metrics, the medians and the verdict go to ``BENCH_<rev>.json`` in the
repository root, the per-change benchmark record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Base/head pairs per workload, and ``--seconds`` of each run.
PAIRS = 5
SECONDS = 2
#: What ``perfbench/run.py`` reads of a tree.
TREE_PARTS = ("src", "perfbench", "BENCHMARK.json")


def load_spec(root: Path) -> dict:
    """The benchmark declaration: workloads and end-to-end bounds."""
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_revision(root: Path) -> str:
    """Short git revision of ``root`` ("dev" outside a checkout)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True,
                             cwd=root)
    except (OSError, subprocess.CalledProcessError):
        return "dev"
    return out.stdout.strip() or "dev"


def copy_tree(source: Path, dest: Path) -> Path:
    """Copy the parts of ``source`` that a perfbench run reads to ``dest``."""
    for part in TREE_PARTS:
        path = source / part
        if path.is_dir():
            shutil.copytree(path, dest / part, ignore=shutil.ignore_patterns(
                "__pycache__", "*.pyc"))
        else:
            dest.mkdir(parents=True, exist_ok=True)
            shutil.copy2(path, dest / part)
    return dest


def run_once(tree: Path, workload: str) -> dict:
    """One ``perfbench/run.py`` run in ``tree``, as a flat result dict.

    ``correct``, ``attempted`` and ``failed`` come from the run's summary
    line and ``metrics`` maps each metric to its value; a run that exits
    non-zero or prints no summary is not correct and carries ``error``.
    """
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}  # each tree imports its own src/
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(SECONDS)],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    try:
        summary = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        summary = None
    if proc.returncode != 0 or summary is None:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:]
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"exit {proc.returncode}: {' '.join(tail)}"}
    return {"correct": summary["correct"] is True,
            "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": {name: entry["value"]
                        for name, entry in summary["metrics"].items()}}


def _medians(runs: list[dict]) -> dict:
    names = sorted({name for run in runs for name in run["metrics"]})
    return {name: statistics.median(run["metrics"][name] for run in runs
                                    if name in run["metrics"])
            for name in names}


def decide(base_runs: list[dict], head_runs: list[dict],
           end_to_end: list[dict]) -> dict:
    """The verdict on one workload's runs.

    Returns ``{"medians", "failures", "notes"}``.  A head run that is not
    correct, and an ``end_to_end`` metric whose head median is worse than
    the base median by more than its ``bound`` (a fraction of the base),
    is a failure.  An incorrect base run and a metric missing on either
    side are notes: the head is not charged for them.
    """
    for metric in end_to_end:
        if metric["better"] not in ("lower", "higher"):
            raise ValueError(f"{metric['name']}: better must be 'lower' or "
                             f"'higher', not {metric['better']!r}")
        if not metric["bound"] > 0:
            raise ValueError(f"{metric['name']}: bound must be > 0, not "
                             f"{metric['bound']!r}")
    failures, notes = [], []
    for side, runs, record in (("base", base_runs, notes),
                               ("head", head_runs, failures)):
        for index, run in enumerate(runs, 1):
            if not run["correct"]:
                why = run.get("error") or (f"{run['failed']} of "
                                           f"{run['attempted']} outputs wrong")
                record.append(f"{side} run {index} not correct: {why}")
    medians = {"base": _medians(base_runs), "head": _medians(head_runs)}
    for metric in end_to_end:
        name = metric["name"]
        base = medians["base"].get(name)
        head = medians["head"].get(name)
        if base is None or head is None:
            side = "base" if base is None else "head"
            notes.append(f"{name}: no {side} value, not compared")
            continue
        if metric["better"] == "lower":
            limit = base * (1 + metric["bound"])
            worse = head > limit
        else:
            limit = base * (1 - metric["bound"])
            worse = head < limit
        if worse:
            failures.append(f"{name}: head median {head:.4g} is past the "
                            f"limit {limit:.4g} (base median {base:.4g}, "
                            f"bound {metric['bound']:g}, {metric['better']}"
                            f" is better)")
    return {"medians": medians, "failures": failures, "notes": notes}


def render(workload: str, verdict: dict, end_to_end: list[dict]) -> str:
    """The CI log lines of one workload's verdict."""
    lines = [f"{workload}:"]
    base, head = verdict["medians"]["base"], verdict["medians"]["head"]
    for metric in end_to_end:
        name = metric["name"]
        if name in base and name in head:
            ratio = f"{head[name] / base[name]:.3f}x" if base[name] else "-"
            lines.append(f"  {name:18s} base {base[name]:10.4g}  head "
                         f"{head[name]:10.4g}  {ratio}")
        elif name in head:
            lines.append(f"  {name:18s} head {head[name]:10.4g}")
    lines += [f"  FAIL {line}" for line in verdict["failures"]]
    lines += [f"  note {line}" for line in verdict["notes"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, nargs="?", default=None,
                        help="base tree (a checkout of the commit to compare"
                             " against); without it, run this tree once per"
                             " workload and check its outputs only")
    args = parser.parse_args(argv)
    if args.base is not None and not (args.base / "perfbench"
                                      / "run.py").is_file():
        parser.error(f"{args.base} has no perfbench/run.py")

    spec = load_spec(REPO_ROOT)
    compare = args.base is not None
    end_to_end = spec["end_to_end"]
    revision = git_revision(REPO_ROOT)
    sides = ("base", "head") if compare else ("head",)
    pairs = PAIRS if compare else 1
    record = {"revision": revision, "seconds": SECONDS, "pairs": pairs,
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="perf_ab-") as workdir:
        trees = {"head": copy_tree(REPO_ROOT, Path(workdir) / "head")}
        if compare:
            record["base_revision"] = git_revision(args.base)
            trees["base"] = copy_tree(args.base, Path(workdir) / "base")
        for workload in (entry["name"] for entry in spec["workloads"]):
            runs = {side: [] for side in ("base", "head")}
            for pair in range(pairs):
                order = sides if pair % 2 == 0 else sides[::-1]
                for side in order:
                    runs[side].append(run_once(trees[side], workload))
            verdict = decide(runs["base"], runs["head"],
                             end_to_end if compare else [])
            print(render(workload, verdict, end_to_end), flush=True)
            record["workloads"][workload] = {**runs, **verdict}
    failures = [f"{workload}: {line}"
                for workload, entry in record["workloads"].items()
                for line in entry["failures"]]
    record["verdict"] = "fail" if failures else "pass"
    out = REPO_ROOT / f"BENCH_{revision}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    if failures:
        print(f"FAIL: {len(failures)} finding(s) charged to the head")
        return 1
    print("OK: every head run correct"
          + (", every end-to-end metric inside its bound" if compare else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
