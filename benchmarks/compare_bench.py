#!/usr/bin/env python
"""CI performance-regression gate: fresh bench JSON vs committed baseline.

Compares every op a fresh ``run_bench.py`` JSON shares with the newest
committed ``BENCH_<rev>.json`` and fails (exit 1) when any op's median
slowed down by more than ``--threshold`` (default 3x — CI runners are
noisy, so the gate catches order-of-magnitude regressions, not percent
drift)::

    PYTHONPATH=src python benchmarks/run_bench.py --rounds 3 --out fresh.json
    python benchmarks/compare_bench.py fresh.json                # auto baseline
    python benchmarks/compare_bench.py fresh.json --baseline BENCH_abc.json

"Newest committed" means newest by git commit date of the baseline file
(falling back to file mtime outside a checkout), so the gate always
measures against the trajectory the repository actually records.  Ops
present on only one side (a benchmark added or retired this PR) are
reported but never fail the gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def baseline_candidates(root: Path = REPO_ROOT) -> list[Path]:
    """All committed-style ``BENCH_<rev>.json`` files in the repo root."""
    return sorted(root.glob("BENCH_*.json"))


def _in_git_checkout(root: Path) -> bool:
    """True when ``root`` sits inside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--is-inside-work-tree"],
            capture_output=True, text=True, check=True, cwd=root)
        return out.stdout.strip() == "true"
    except Exception:
        return False


def _commit_time(path: Path):
    """Last git commit timestamp of ``path`` (None when never committed).

    Untracked files must not win baseline selection — a locally produced
    (uncommitted) ``BENCH_*.json`` would otherwise compare fresh numbers
    against themselves and the gate would always pass.
    """
    try:
        out = subprocess.run(
            ["git", "log", "-1", "--format=%ct", "--", path.name],
            capture_output=True, text=True, check=True, cwd=path.parent)
        if out.stdout.strip():
            return float(out.stdout.strip())
    except Exception:
        pass
    return None


def changed_since(base: str, root: Path = REPO_ROOT) -> set[str]:
    """Names of ``BENCH_*.json`` files added/changed relative to ``base``.

    The CI gate excludes these on pull requests: a PR that records its
    own fresh baseline (this repository's per-PR convention) must still
    be measured against the baseline its *base branch* records, or it
    would neutralise the gate for its own regression.
    """
    out = subprocess.run(
        ["git", "diff", "--name-only", base, "--", "BENCH_*.json"],
        capture_output=True, text=True, check=True, cwd=root)
    return {Path(name).name for name in out.stdout.split()}


def newest_baseline(root: Path = REPO_ROOT,
                    exclude: set[str] = frozenset()) -> Path:
    """The most recently *committed* ``BENCH_*.json`` (ties: by name).

    Inside a git checkout, untracked candidates are ignored; outside one
    (e.g. an exported tarball) file mtime decides instead.  ``exclude``
    drops candidates by file name before selection.
    """
    candidates = [path for path in baseline_candidates(root)
                  if path.name not in exclude]
    if not candidates:
        raise FileNotFoundError(
            f"no BENCH_*.json baseline found under {root}")
    if _in_git_checkout(root):
        committed = {path: stamp for path in candidates
                     if (stamp := _commit_time(path)) is not None}
        if not committed:
            raise FileNotFoundError(
                f"no *committed* BENCH_*.json baseline under {root} "
                f"(untracked baselines are not trusted)")
        return max(committed, key=lambda path: (committed[path], path.name))
    return max(candidates,
               key=lambda path: (path.stat().st_mtime, path.name))


#: Formalism-ratio floors enforced by ``--check-speedups``: the fresh
#: payload's ``speedup_bell_over_dm[op]`` must reach the floor.  The fast
#: Bell-diagonal formalism being *slower* than the exact engine on a state
#: heavy op is a regression by construction (BENCH_c001c5d.json recorded
#: exactly that for the old link-generation op before it was rebuilt to
#: measure delivery work); the floors keep it from reappearing silently.
SPEEDUP_FLOORS = {
    "bsm": 5.0,
    "link_delivery_round": 1.0,
    # The swap-heavy traffic scenario is where the Bell-diagonal engine
    # pays off end to end; ~3.7x warm was measured when this floor was
    # set, so 2.0 is comfortably below noise yet above the 1.95 before it.
    "traffic_round": 2.0,
}

#: Simulated-throughput floors enforced by ``--check-speedups``: the fresh
#: payload's ``traffic_pairs_per_s[formalism]`` (from the ``traffic_soak``
#: scenario) must reach the floor.  The rate is counted per *simulated*
#: second and fixed by the seed (10,285 pairs/s at seed 7 on both
#: formalisms), so this floor checks the scenario's simulated output, not
#: wall-clock speed.  Its value is 10x the 936 pairs/s of an earlier,
#: different traffic scenario; that ratio is not a speedup.
THROUGHPUT_FLOORS = {
    "bell": 9360.0,
}

#: Memory ceilings (kB) enforced by ``--check-speedups``: the fresh
#: payload's ``soak_max_rss_kb[scenario]`` must stay *below* the ceiling.
#: The checkpoint/retirement PR measured ~105 MB peak through the bell
#: soak (historical full-suite peaks: 107-110 MB); 220 MB leaves 2x
#: headroom for interpreter/runner drift while still tripping on any
#: unbounded session-state growth, which scales with the pair rate and
#: blows through 2x within a fraction of the soak horizon.
RSS_CEILINGS = {
    "traffic_soak_bell": 220_000,
}


def check_speedups(fresh: dict, floors: dict | None = None) -> list[str]:
    """Speedup-floor violations in a fresh payload (empty list = pass).

    Ops absent from the payload's ``speedup_bell_over_dm`` section are
    skipped — ``run_bench.py --only`` subsets legitimately omit them.
    """
    floors = SPEEDUP_FLOORS if floors is None else floors
    speedups = fresh.get("speedup_bell_over_dm") or {}
    failures = []
    for op, floor in sorted(floors.items()):
        value = speedups.get(op)
        if value is not None and value < floor:
            failures.append(f"{op}: bell/dm speedup {value:.2f} is below "
                            f"the floor {floor:g}")
    return failures


def check_throughput(fresh: dict, floors: dict | None = None) -> list[str]:
    """Simulated-throughput floor violations (empty list = pass).

    Formalisms absent from ``traffic_pairs_per_s`` are skipped, matching
    :func:`check_speedups` subset semantics.  The rate is pairs per
    *simulated* second — deterministic for a fixed seed, so unlike the
    wall-clock gate this floor tolerates zero runner noise.
    """
    floors = THROUGHPUT_FLOORS if floors is None else floors
    rates = fresh.get("traffic_pairs_per_s") or {}
    failures = []
    for formalism, floor in sorted(floors.items()):
        value = rates.get(formalism)
        if value is not None and value < floor:
            failures.append(
                f"traffic_pairs_per_s[{formalism}]: {value:g} is below "
                f"the floor {floor:g}")
    return failures


def check_rss(fresh: dict, ceilings: dict | None = None) -> list[str]:
    """Soak memory-ceiling violations (empty list = pass).

    Scenarios absent from ``soak_max_rss_kb`` are skipped (subset runs,
    non-POSIX platforms without ``resource``).  Unlike the wall-clock
    gate this is a one-sided absolute bound: RSS is noisy upward by a
    few percent across runners, so the ceiling carries 2x headroom and
    catches only leak-class regressions.
    """
    ceilings = RSS_CEILINGS if ceilings is None else ceilings
    rss = fresh.get("soak_max_rss_kb") or {}
    failures = []
    for scenario, ceiling in sorted(ceilings.items()):
        value = rss.get(scenario)
        if value is not None and value > ceiling:
            failures.append(
                f"soak_max_rss_kb[{scenario}]: {value} kB exceeds "
                f"the ceiling {ceiling} kB")
    return failures


def compare(baseline: dict, fresh: dict,
            threshold: float = 3.0) -> tuple[list[dict], list[str]]:
    """Compare two bench payloads op by op.

    Returns ``(rows, regressions)``: one row dict per op present in
    either payload (``ratio`` is fresh/baseline median, None when the op
    exists on one side only), and the list of op names whose ratio
    exceeded ``threshold``.
    """
    if threshold <= 1.0:
        raise ValueError("threshold must be > 1 (it is a slowdown factor)")
    base_results = baseline.get("results", {})
    fresh_results = fresh.get("results", {})
    rows = []
    regressions = []
    for op in sorted(set(base_results) | set(fresh_results)):
        base_ns = base_results.get(op)
        fresh_ns = fresh_results.get(op)
        ratio = None
        status = "baseline-only" if fresh_ns is None else (
            "new" if base_ns is None else "ok")
        if base_ns is not None and fresh_ns is not None and base_ns > 0:
            ratio = fresh_ns / base_ns
            if ratio > threshold:
                status = "REGRESSION"
                regressions.append(op)
        rows.append({"op": op, "baseline_ns": base_ns, "fresh_ns": fresh_ns,
                     "ratio": ratio, "status": status})
    return rows, regressions


def render(rows: list[dict], baseline_name: str, fresh_name: str,
           threshold: float) -> str:
    """Aligned text table of the comparison (the CI log output)."""
    lines = [f"bench gate: {fresh_name} vs {baseline_name} "
             f"(fail on > {threshold:g}x median slowdown)",
             f"{'op':34s} {'baseline us':>12s} {'fresh us':>12s} "
             f"{'ratio':>7s}  status"]
    for row in rows:
        base = ("-" if row["baseline_ns"] is None
                else f"{row['baseline_ns'] / 1e3:.2f}")
        fresh = ("-" if row["fresh_ns"] is None
                 else f"{row['fresh_ns'] / 1e3:.2f}")
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.2f}"
        lines.append(f"{row['op']:34s} {base:>12s} {fresh:>12s} "
                     f"{ratio:>7s}  {row['status']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", type=Path,
                        help="bench JSON produced by run_bench.py this run")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline JSON (default: newest committed"
                             " BENCH_*.json in the repository root)")
    parser.add_argument("--base", default=None,
                        help="git ref to protect: BENCH files added or"
                             " changed relative to it are excluded from"
                             " baseline selection (CI passes the PR's"
                             " base branch, so a PR recording its own"
                             " baseline cannot neutralise the gate)")
    parser.add_argument("--threshold", type=float, default=3.0,
                        help="fail when fresh/baseline exceeds this factor")
    parser.add_argument("--check-speedups", action="store_true",
                        help="also enforce the bell-vs-dm speedup floors"
                             " (bell must never be slower than dm on the"
                             " gated ops), the traffic_pairs_per_s"
                             " simulated-throughput floors, and the"
                             " soak_max_rss_kb memory ceilings")
    args = parser.parse_args(argv)

    exclude = changed_since(args.base) if args.base else frozenset()
    baseline_path = args.baseline or newest_baseline(exclude=exclude)
    baseline = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    fresh = json.loads(args.fresh.read_text(encoding="utf-8"))
    rows, regressions = compare(baseline, fresh, threshold=args.threshold)
    print(render(rows, Path(baseline_path).name, args.fresh.name,
                 args.threshold))
    failed = False
    if regressions:
        print(f"\nFAIL: {len(regressions)} op(s) regressed beyond "
              f"{args.threshold:g}x: {', '.join(regressions)}")
        failed = True
    else:
        print("\nOK: no tracked op regressed beyond the threshold")
    if args.check_speedups:
        violations = (check_speedups(fresh) + check_throughput(fresh)
                      + check_rss(fresh))
        if violations:
            print("FAIL: speedup / throughput / memory floors violated: "
                  + "; ".join(violations))
            failed = True
        else:
            print("OK: speedup, throughput and memory floors hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
