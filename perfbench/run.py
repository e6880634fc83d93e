"""Wall-clock benchmark of the quantum network simulator.

Run from the repository root::

    python3 perfbench/run.py --workload soak_bell --seed 7 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics and the self-time table of the fastest traced repetition.  When the
run completes, the last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
simulator sources next to this directory it exits with status 2 and prints
no result.  See ``perfbench/README.md`` for the workloads and metrics.
"""

import time

PROCESS_START_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
GOLDENS = HERE / "goldens.json"
DEFAULT_SEED = 7
#: Cold set-ups per untraced run: this process plus fresh child processes.
SETUP_PASSES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("soak_bell", "round_dm", "campaign_bell"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="how long the timed phase repeats the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record this seed's outputs as the workload's "
                             "goldens instead of checking against them")
    parser.add_argument("--setup-pass", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_pass(args) -> dict:
    """Set up in a fresh process: its stamps (start, each event of the cold
    repetition, end) and the cold repetition's output fingerprint."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-pass"],
        capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_golden and args.seed != DEFAULT_SEED:
        print("error: goldens are recorded for the default seed",
              file=sys.stderr)
        return 2
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SOURCE}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    goldens = load_goldens()
    golden = (goldens.get(args.workload)
              if args.seed == DEFAULT_SEED and not args.write_golden else None)

    if args.trace:
        cold, route_s = harness.time_cold_routing(workload)
    else:
        cold = harness.time_once(workload)
    if args.setup_pass:
        print(json.dumps({"stamps": [PROCESS_START_NS, *cold.stamps],
                          "fingerprint": cold.outcome.fingerprint()}))
        return 0
    check = harness.Check(cold.outcome.fingerprint(), golden)

    if args.write_golden:
        goldens[args.workload] = check.reference
        GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")

    if args.trace:
        untraced = harness.repeat_for(workload, args.seconds / 2, check,
                                      "untraced")
        traced = harness.repeat_for(workload, args.seconds / 2, check,
                                    "traced", traced=True, min_reps=2).best
        print(f"{args.workload} cold repetition {cold.seconds:.3f} s, of which"
              f" compute_route {route_s:.3f} s ({route_s / cold.seconds:.0%})")
        print(harness.self_time_table(
            f"{args.workload} fastest traced repetition", traced))
        metrics = harness.per_layer(route_s, untraced, traced)
    else:
        # setup_s: every stretch of the set-up (imports, then the cold
        # pass's events) at the fastest it ran in any of the passes.
        setup = harness.Segments()
        setup.add(array("q", [PROCESS_START_NS]) + cold.stamps)
        for index in range(1, SETUP_PASSES):
            child = setup_pass(args)
            check.observe(f"set-up pass {index}", child["fingerprint"])
            setup.add(child["stamps"])
        setup_s = setup.seconds
        series = harness.repeat_for(workload, args.seconds, check, "timed")
        metrics = harness.end_to_end(series, setup_s)
        print(f"{args.workload} seed {args.seed}: {series.count} repetitions,"
              f" fastest {series.best.seconds:.3f} s, run_s"
              f" {metrics['run_s']:.3f} s over {len(series.segments.best)}"
              f" stretches ({series.segments.skipped} unaligned),"
              f" setup {setup_s:.3f} s")

    for label, expected, got in check.mismatches:
        print(f"output mismatch ({label}): expected {expected}, got {got}",
              file=sys.stderr)
    units = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in units["end_to_end"] + units["per_layer"]}
    print(json.dumps({
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
