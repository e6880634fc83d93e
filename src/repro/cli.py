"""Command-line interface: run canned scenarios without writing code.

Usage::

    python -m repro quickstart [--pairs 5] [--fidelity 0.8] [--seed 42]
    python -m repro chain --nodes 4 --pairs 3 --fidelity 0.75
    python -m repro qkd --pairs 40
    python -m repro near-term --pairs 10
    python -m repro trace --pairs 2
    python -m repro traffic --topology grid --size 4 --circuits 8 --load 0.7
    python -m repro traffic --metric utilisation --fail-links 2 --seed 7
    python -m repro traffic --apps qkd,distil,teleport,certify
    python -m repro traffic --metrics-out run.jsonl --trace-out spans.jsonl
    python -m repro campaign --spec examples/campaign_grid.json --workers 4
    python -m repro campaign --spec spec.json --apps qkd,teleport
    python -m repro apps --demo
    python -m repro obs --summarise run.jsonl

``--formalism bell`` runs any scenario on the fast Bell-diagonal state
backend instead of the exact density-matrix engine — see DESIGN.md for when
the two agree exactly.  The flag is accepted both globally and after the
subcommand (the subcommand's value wins)::

    python -m repro --formalism bell quickstart
    python -m repro quickstart --formalism bell

Each subcommand builds a network, drives the full stack and prints a
summary — handy for demos and for eyeballing behaviour after changes.
"""

from __future__ import annotations

import argparse
import sys

from .core.requests import UserRequest
from .netsim.units import S
from .network.builder import (
    build_chain_network,
    build_dumbbell_network,
    build_near_term_chain,
)
from .quantum.backends import FORMALISMS


def _cmd_chain(args: argparse.Namespace) -> int:
    net = build_chain_network(num_nodes=args.nodes, seed=args.seed,
                              formalism=args.formalism)
    head, tail = "node0", f"node{args.nodes - 1}"
    circuit_id = net.establish_circuit(head, tail, args.fidelity)
    route = net.route_of(circuit_id)
    print(f"circuit {circuit_id}")
    print(f"  path: {' -> '.join(route.path)}")
    print(f"  link fidelity {route.link_fidelity:.4f}, "
          f"cutoff {route.cutoff / 1e6:.2f} ms, "
          f"worst-case F {route.estimated_fidelity:.4f}")
    matched_pairs = []
    handle = net.submit(circuit_id, UserRequest(num_pairs=args.pairs),
                        on_matched=matched_pairs.append)
    net.run_until_complete([handle], timeout_s=args.timeout)
    print(f"  status {handle.status.value}, "
          f"{handle.pairs_confirmed} pairs, "
          f"latency {(handle.latency or 0) / 1e6:.1f} ms")
    for matched in matched_pairs:
        print(f"    pair {matched.head_delivery.sequence}: "
              f"{matched.head_delivery.bell_state}  F={matched.fidelity:.4f}")
    return 0 if handle.pairs_confirmed else 1


def _cmd_quickstart(args: argparse.Namespace) -> int:
    args.nodes = 3
    return _cmd_chain(args)


def _cmd_qkd(args: argparse.Namespace) -> int:
    from .services import run_bbm92

    net = build_dumbbell_network(seed=args.seed, formalism=args.formalism)
    circuit_id = net.establish_circuit("A0", "B0", args.fidelity, "short")
    key = run_bbm92(net, circuit_id, num_pairs=args.pairs,
                    timeout_s=args.timeout)
    print(f"rounds {key.total_rounds}, sifted {key.sifted_rounds}, "
          f"QBER {key.qber:.3f}")
    print("key:", "".join(map(str, key.key_bits[:64])))
    return 0 if key.sifted_rounds > 0 else 1


def _cmd_near_term(args: argparse.Namespace) -> int:
    net = build_near_term_chain(num_nodes=3, seed=args.seed,
                                formalism=args.formalism)
    circuit_id = net.establish_circuit_manual(
        ["node0", "node1", "node2"], link_fidelity=0.8, cutoff=3.0 * S,
        max_eer=5.0, estimated_fidelity=0.55)
    matched_pairs = []
    handle = net.submit(circuit_id, UserRequest(num_pairs=args.pairs),
                        on_matched=matched_pairs.append)
    net.run_until_complete([handle], timeout_s=args.timeout)
    print(f"status {handle.status.value}")
    for matched in sorted(matched_pairs,
                          key=lambda m: m.head_delivery.t_delivered):
        print(f"  t={matched.head_delivery.t_delivered / 1e9:6.1f}s  "
              f"F={matched.fidelity:.3f}")
    return 0 if handle.pairs_confirmed else 1


def _parse_apps(text):
    """Validate a ``--apps`` comma list against the app registry."""
    from .apps import get_app

    if text is None:
        return None
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise SystemExit("--apps needs at least one app name")
    for name in names:
        try:
            get_app(name)
        except ValueError as exc:
            raise SystemExit(f"bad --apps: {exc}")
    return names


def _cmd_traffic(args: argparse.Namespace) -> int:
    from .traffic import TOPOLOGIES, TrafficEngine, build_topology

    if getattr(args, "resume", None):
        return _resume_traffic(args)
    if args.topology not in TOPOLOGIES:  # pragma: no cover - argparse guards
        raise SystemExit(f"unknown topology {args.topology!r}")
    if args.fail_links < 0:
        raise SystemExit("--fail-links cannot be negative")
    if args.fail_links == 0 and (args.mtbf is not None
                                 or args.mttr is not None):
        raise SystemExit("--mtbf/--mttr configure the outage model; "
                         "add --fail-links N to select victim links")
    if args.mtbf is not None and args.mtbf <= 0:
        raise SystemExit("--mtbf must be positive")
    if args.mttr is not None and args.mttr <= 0:
        raise SystemExit("--mttr must be positive")
    apps = _parse_apps(args.apps)
    net = build_topology(args.topology, args.size, seed=args.seed,
                         formalism=args.formalism,
                         physical=getattr(args, "physical", "analytic"))
    print(f"topology {args.topology} size {args.size}: "
          f"{len(net.nodes)} nodes, {len(net.links)} links "
          f"({net.formalism} formalism)")
    # The apps --demo path re-enters here with a namespace that predates
    # the observability flags; default them off.
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    engine = TrafficEngine(net, circuits=args.circuits, load=args.load,
                           target_fidelity=args.fidelity, seed=args.seed,
                           metric=args.metric, fail_links=args.fail_links,
                           mtbf_s=args.mtbf, mttr_s=args.mttr, apps=apps,
                           metrics_out=metrics_out,
                           snapshot_interval_s=getattr(
                               args, "snapshot_interval", 0.5),
                           trace_out=trace_out,
                           checkpoint_out=getattr(args, "checkpoint_out",
                                                  None),
                           checkpoint_interval_s=getattr(
                               args, "checkpoint_interval", 1.0))
    engine.install()
    print(f"installed {len(engine.circuits)} circuits "
          f"(metric {args.metric}, max link share "
          f"{engine.max_link_share:.2f}); running "
          f"{args.horizon:.1f} s of traffic at load {args.load:.2f}"
          + (f" with {args.fail_links} link failures" if args.fail_links
             else "")
          + (f", apps {','.join(apps)}" if apps else "") + "...")
    # --timeout caps the post-horizon drain of in-flight sessions (the
    # horizon itself is --horizon, same as every other subcommand's
    # simulated budget).
    if getattr(args, "profile", False):
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        report = engine.run(horizon_s=args.horizon,
                            drain_s=min(args.horizon, args.timeout))
        profiler.disable()
        out = "traffic.prof"
        profiler.dump_stats(out)
        print(f"\nprofile written to {out} "
              f"(inspect: python -m pstats {out})")
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(15)
    else:
        report = engine.run(horizon_s=args.horizon,
                            drain_s=min(args.horizon, args.timeout))
    print()
    print(report.render())
    if getattr(args, "app_details", False) and report.apps:
        print()
        print(report.render_app_details())
    if metrics_out:
        print(f"\nmetrics snapshots written to {metrics_out} "
              f"(summarise: python -m repro obs --summarise {metrics_out})")
    if trace_out:
        print(f"span trace written to {trace_out}")
    if getattr(args, "checkpoint_out", None):
        print(f"last checkpoint at {args.checkpoint_out} "
              f"({engine.checkpoints_written} written; resume with "
              f"python -m repro traffic --resume {args.checkpoint_out})")
    return 0 if report.total_confirmed_pairs > 0 else 1


def _resume_traffic(args: argparse.Namespace) -> int:
    """Continue a checkpointed traffic run (``traffic --resume PATH``).

    The checkpoint carries the whole engine — topology, circuits,
    workload schedule, observability — so the usual construction flags
    are ignored; the run simply picks up from its last durable state.
    """
    from .persist import CheckpointError, load_checkpoint

    try:
        engine = load_checkpoint(args.resume)
    except FileNotFoundError:
        raise SystemExit(f"no checkpoint at {args.resume}")
    except CheckpointError as exc:
        raise SystemExit(f"cannot resume: {exc}")
    sim_s = engine.net.sim.now / 1e9
    print(f"resuming from {args.resume}: phase {engine._phase!r} at "
          f"t={sim_s:.2f} s simulated, {len(engine.records)} sessions "
          f"recorded ({engine.net.formalism} formalism)")
    try:
        report = engine.resume_run()
    except RuntimeError as exc:
        raise SystemExit(f"cannot resume: {exc}")
    print()
    print(report.render())
    if engine.metrics_out:
        print(f"\nmetrics snapshots appended to {engine.metrics_out}")
    return 0 if report.total_confirmed_pairs > 0 else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .campaign import (ObsConfig, PersistConfig, git_revision, load_spec,
                           run_campaign)

    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    obs = None
    if args.metrics_out or args.trace_out:
        obs = ObsConfig(metrics_dir=args.metrics_out,
                        trace_dir=args.trace_out,
                        snapshot_interval_s=args.snapshot_interval)
    persist = None
    if args.resume and not args.checkpoint_out:
        raise SystemExit("--resume requires --checkpoint-out (the directory "
                         "holding the per-cell checkpoints)")
    if args.checkpoint_out:
        persist = PersistConfig(checkpoint_dir=args.checkpoint_out,
                                checkpoint_interval_s=args.checkpoint_interval,
                                resume=args.resume)
    try:
        spec = load_spec(args.spec)
    except ValueError as exc:
        raise SystemExit(f"bad campaign spec: {exc}")
    apps = _parse_apps(args.apps)
    if apps:
        # Inject/override the app axis: --apps qkd,distil sweeps the
        # spec's grid over those apps (spec.to_dict round-trips, so the
        # rest of the spec is untouched).
        data = spec.to_dict()
        data["axes"]["app"] = apps
        spec = load_spec(data)
    cells = spec.expand()
    print(f"campaign {spec.name}: {len(cells)} cells, "
          f"{args.workers} worker(s)")
    result = run_campaign(spec, workers=args.workers, cells=cells, obs=obs,
                          persist=persist)
    print()
    print(result.render())
    if obs is not None:
        for label, directory in (("metrics", obs.metrics_dir),
                                 ("traces", obs.trace_dir)):
            if directory:
                print(f"per-cell {label} written under {directory}/")
    if persist is not None and persist.checkpoint_dir:
        print(f"per-cell checkpoints written under {persist.checkpoint_dir}/"
              " (finish a killed campaign with --resume)")
    revision = git_revision(Path.cwd())
    out = Path(args.out) if args.out else Path(f"CAMPAIGN_{revision}.json")
    result.write_json(out, revision=revision)
    print(f"\nwrote {out}")
    return 0 if result.completed_cells > 0 else 1


def _cmd_apps(args: argparse.Namespace) -> int:
    from .apps import HEADLINE_METRICS, app_names, get_app

    if args.demo:
        # The acceptance demo: the seed-7 grid workload with every app
        # assigned round-robin, plus the long-form per-circuit metrics.
        args.topology, args.size = "grid", 4
        args.circuits, args.load = 8, 0.7
        args.fidelity, args.horizon = 0.7, 2.0
        args.metric, args.fail_links = "hops", 0
        args.mtbf = args.mttr = None
        args.seed = 7
        args.apps = "qkd,distil,teleport,certify"
        args.app_details = True
        return _cmd_traffic(args)
    print("registered application services:")
    for name in app_names():
        app_type = get_app(name)
        demand = (f"demands F >= {app_type.min_fidelity:g}"
                  if app_type.min_fidelity else "no fidelity demand")
        targets = "; ".join(target.label()
                            for target in app_type.slo_targets)
        print(f"  {name:10s} headline: {HEADLINE_METRICS[name]:22s} "
              f"{demand}; SLO: {targets}")
    print("\nrun one with: python -m repro traffic --apps "
          + ",".join(app_names()) + "  (or: python -m repro apps --demo)")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs import summarise

    required = ()
    if args.require:
        required = tuple(name.strip() for name in args.require.split(",")
                         if name.strip())
    try:
        print(summarise(args.summarise, required=required))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bad snapshot file: {exc}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .analysis import attach_tracer

    net = build_chain_network(num_nodes=4, seed=args.seed,
                              formalism=args.formalism)
    circuit_id = net.establish_circuit("node0", "node3", 0.75)
    tracer = attach_tracer(net)
    handle = net.submit(circuit_id, UserRequest(num_pairs=args.pairs))
    net.run_until_complete([handle], timeout_s=args.timeout)
    print(tracer.render_sequence(["node0", "node1", "node2", "node3"],
                                 max_events=80))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run QNP scenarios from 'Designing a Quantum Network "
                    "Protocol' (CoNEXT 2020).")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="simulated-seconds budget")
    parser.add_argument("--formalism", choices=list(FORMALISMS), default="dm",
                        help="quantum-state backend: exact density matrices"
                             " ('dm') or fast Bell-diagonal weights ('bell')")
    # The global flags are accepted after the subcommand too (an easy
    # trip-up otherwise).  SUPPRESS keeps the namespace untouched when a
    # subcommand flag is absent, so the global value survives; when present
    # it overwrites the global one.
    formalism_flag = argparse.ArgumentParser(add_help=False)
    formalism_flag.add_argument("--formalism", choices=list(FORMALISMS),
                                default=argparse.SUPPRESS,
                                help="quantum-state backend (overrides the"
                                     " global --formalism)")
    formalism_flag.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                                help="simulation seed (overrides the global"
                                     " --seed)")
    formalism_flag.add_argument("--timeout", type=float,
                                default=argparse.SUPPRESS,
                                help="simulated-seconds budget (overrides"
                                     " the global --timeout)")
    sub = parser.add_subparsers(dest="command", required=True)

    quickstart = sub.add_parser("quickstart", help="3-node chain demo",
                                parents=[formalism_flag])
    quickstart.add_argument("--pairs", type=int, default=5)
    quickstart.add_argument("--fidelity", type=float, default=0.8)
    quickstart.set_defaults(fn=_cmd_quickstart)

    chain = sub.add_parser("chain", help="linear repeater chain",
                           parents=[formalism_flag])
    chain.add_argument("--nodes", type=int, default=4)
    chain.add_argument("--pairs", type=int, default=3)
    chain.add_argument("--fidelity", type=float, default=0.75)
    chain.set_defaults(fn=_cmd_chain)

    qkd = sub.add_parser("qkd", help="BBM92 over the Fig 7 dumbbell",
                         parents=[formalism_flag])
    qkd.add_argument("--pairs", type=int, default=40)
    qkd.add_argument("--fidelity", type=float, default=0.85)
    qkd.set_defaults(fn=_cmd_qkd)

    near = sub.add_parser("near-term", help="the Fig 11 scenario",
                          parents=[formalism_flag])
    near.add_argument("--pairs", type=int, default=10)
    near.set_defaults(fn=_cmd_near_term)

    trace = sub.add_parser("trace", help="print the Fig 6 message sequence",
                           parents=[formalism_flag])
    trace.add_argument("--pairs", type=int, default=2)
    trace.set_defaults(fn=_cmd_trace)

    from .traffic import TOPOLOGIES

    traffic = sub.add_parser(
        "traffic", help="concurrent multi-circuit traffic engine",
        parents=[formalism_flag])
    traffic.add_argument("--topology", choices=sorted(TOPOLOGIES),
                         default="grid",
                         help="topology family from the catalogue")
    traffic.add_argument("--size", type=int, default=4,
                         help="family size parameter (grid side, ring"
                              " length, star arms, node count, tree height)")
    traffic.add_argument("--physical", choices=["analytic", "midpoint"],
                         default="analytic",
                         help="physical-layer model per link: analytic"
                              " fast-forward (default) or time-windowed"
                              " midpoint heralding station")
    traffic.add_argument("--circuits", type=int, default=8,
                         help="number of concurrent virtual circuits")
    traffic.add_argument("--load", type=float, default=0.7,
                         help="offered load as a fraction of each"
                              " circuit's admitted EER")
    traffic.add_argument("--fidelity", type=float, default=0.7,
                         help="end-to-end target fidelity per circuit")
    traffic.add_argument("--horizon", type=float, default=2.0,
                         help="simulated seconds of workload")
    from .control.routing import PATH_METRICS

    traffic.add_argument("--metric", choices=list(PATH_METRICS),
                         default="hops",
                         help="path-selection metric: shortest path"
                              " ('hops'), spread circuits by installed"
                              " LPR share ('utilisation'), or maximise"
                              " fidelity headroom ('fidelity-cost')")
    traffic.add_argument("--fail-links", type=int, default=0,
                         dest="fail_links",
                         help="number of victim links taken down mid-run"
                              " (0 disables failure injection)")
    traffic.add_argument("--mtbf", type=float, default=None,
                         help="mean time between failures per victim link"
                              " (simulated s; omit for one scheduled"
                              " outage per victim)")
    traffic.add_argument("--mttr", type=float, default=None,
                         help="time to repair a failed link (simulated s;"
                              " default: a quarter of the horizon)")
    traffic.add_argument("--apps", default=None,
                         help="comma-separated application services"
                              " assigned to circuits round-robin (e.g."
                              " 'qkd,distil,teleport,certify'); the report"
                              " gains a per-app SLO section")
    traffic.add_argument("--profile", action="store_true",
                         help="run the traffic loop under cProfile and "
                              "dump stats to traffic.prof")
    traffic.add_argument("--metrics-out", default=None, dest="metrics_out",
                         help="stream metrics-registry snapshots to this"
                              " JSONL file during the run")
    traffic.add_argument("--snapshot-interval", type=float, default=0.5,
                         dest="snapshot_interval",
                         help="simulated seconds between metrics snapshots"
                              " (with --metrics-out)")
    traffic.add_argument("--trace-out", default=None, dest="trace_out",
                         help="write the causal span trace (circuit ->"
                              " session -> pair lifecycle) to this JSONL"
                              " file after the run")
    traffic.add_argument("--checkpoint-out", default=None,
                         dest="checkpoint_out",
                         help="write a durable checkpoint of the full"
                              " simulation state to this file every"
                              " --checkpoint-interval simulated seconds"
                              " (atomic write-then-rename)")
    traffic.add_argument("--checkpoint-interval", type=float, default=1.0,
                         dest="checkpoint_interval",
                         help="simulated seconds between checkpoint writes"
                              " (with --checkpoint-out)")
    traffic.add_argument("--resume", default=None, metavar="CKPT",
                         help="resume a checkpointed run from this file and"
                              " finish it (all construction flags are"
                              " ignored; the checkpoint carries the run)")
    traffic.set_defaults(fn=_cmd_traffic)

    apps = sub.add_parser(
        "apps", help="application service layer: list apps or run the demo",
        parents=[formalism_flag])
    apps.add_argument("--demo", action="store_true",
                      help="run the canned seed-7 demo (grid:4, 8 circuits,"
                           " all four apps round-robin) and print the SLO"
                           " section plus per-circuit app metrics")
    apps.set_defaults(fn=_cmd_apps)

    campaign = sub.add_parser(
        "campaign", help="declarative scenario grid, sharded across cores")
    campaign.add_argument("--spec", required=True,
                          help="campaign spec JSON file (axes over topology,"
                               " formalism, metric, faults, circuits, load,"
                               " seed)")
    campaign.add_argument("--workers", type=int, default=1,
                          help="processes to shard the cells across"
                               " (sharded runs aggregate identically to"
                               " --workers 1)")
    campaign.add_argument("--out", default=None,
                          help="artifact path (default: CAMPAIGN_<rev>.json"
                               " in the current directory)")
    campaign.add_argument("--apps", default=None,
                          help="comma-separated app names injected as the"
                               " spec's 'app' axis (overrides any app axis"
                               " the spec declares)")
    campaign.add_argument("--metrics-out", default=None, dest="metrics_out",
                          help="directory for per-cell metrics snapshot"
                               " files (cell<index>.jsonl)")
    campaign.add_argument("--snapshot-interval", type=float, default=0.5,
                          dest="snapshot_interval",
                          help="simulated seconds between metrics snapshots"
                               " (with --metrics-out)")
    campaign.add_argument("--trace-out", default=None, dest="trace_out",
                          help="directory for per-cell span-trace files"
                               " (cell<index>.jsonl)")
    campaign.add_argument("--checkpoint-out", default=None,
                          dest="checkpoint_out",
                          help="directory for per-cell durable checkpoints"
                               " (cell<index>.ckpt)")
    campaign.add_argument("--checkpoint-interval", type=float, default=1.0,
                          dest="checkpoint_interval",
                          help="simulated seconds between checkpoint writes"
                               " (with --checkpoint-out)")
    campaign.add_argument("--resume", action="store_true",
                          help="finish cells from surviving checkpoints under"
                               " --checkpoint-out instead of starting over")
    campaign.set_defaults(fn=_cmd_campaign)

    obs = sub.add_parser(
        "obs", help="summarise a metrics snapshot stream")
    obs.add_argument("--summarise", required=True, metavar="JSONL",
                     help="snapshot file written by --metrics-out")
    obs.add_argument("--require", default=None,
                     help="comma-separated series that must be present"
                          " (exit non-zero otherwise)")
    obs.set_defaults(fn=_cmd_obs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
