"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_subcommands():
    parser = build_parser()
    for command in ("quickstart", "chain", "qkd", "near-term", "trace",
                    "traffic", "apps"):
        args = parser.parse_args([command])
        assert callable(args.fn)


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_quickstart_runs(capsys):
    code = main(["--seed", "3", "quickstart", "--pairs", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "circuit" in out
    assert "status completed" in out
    assert "F=" in out


def test_chain_runs(capsys):
    code = main(["--seed", "4", "chain", "--nodes", "3", "--pairs", "1",
                 "--fidelity", "0.8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "node0 -> node1 -> node2" in out


def test_trace_runs(capsys):
    code = main(["--seed", "5", "trace", "--pairs", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "SWAP" in out
    assert "FORWARD" in out


def test_formalism_flag_parsed():
    parser = build_parser()
    args = parser.parse_args(["--formalism", "bell", "quickstart"])
    assert args.formalism == "bell"
    assert build_parser().parse_args(["chain"]).formalism == "dm"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--formalism", "nope", "chain"])


def test_global_flags_accepted_after_subcommand():
    # --formalism/--seed/--timeout work in either position; the
    # subcommand's value wins when both are given.
    args = build_parser().parse_args(["quickstart", "--formalism", "bell"])
    assert args.formalism == "bell"
    args = build_parser().parse_args(
        ["--formalism", "bell", "quickstart", "--formalism", "dm"])
    assert args.formalism == "dm"
    args = build_parser().parse_args(["traffic", "--seed", "7"])
    assert args.seed == 7
    args = build_parser().parse_args(["chain", "--timeout", "5.0"])
    assert args.timeout == 5.0
    # Global values survive when the subcommand doesn't override them.
    args = build_parser().parse_args(["--seed", "9", "chain"])
    assert args.seed == 9


def test_traffic_parser_defaults():
    args = build_parser().parse_args(["traffic"])
    assert args.topology == "grid"
    assert args.size == 4
    assert args.circuits == 8
    assert args.load == 0.7
    assert args.metric == "hops"
    assert args.fail_links == 0
    assert args.mtbf is None
    assert args.mttr is None
    assert args.physical == "analytic"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["traffic", "--topology", "nope"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["traffic", "--metric", "nope"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["traffic", "--physical", "nope"])


def test_traffic_midpoint_physical_runs(capsys):
    code = main(["--seed", "7", "traffic", "--topology", "grid", "--size", "2",
                 "--circuits", "2", "--horizon", "0.4", "--formalism", "bell",
                 "--physical", "midpoint"])
    out = capsys.readouterr().out
    assert code == 0
    assert "circuits" in out


def test_traffic_recovery_flags_parsed():
    args = build_parser().parse_args(
        ["traffic", "--metric", "utilisation", "--fail-links", "2",
         "--mtbf", "1.0", "--mttr", "0.5", "--seed", "7"])
    assert args.metric == "utilisation"
    assert args.fail_links == 2
    assert args.mtbf == 1.0
    assert args.mttr == 0.5
    assert args.seed == 7  # global flag after the subcommand (PR 2 fix)
    with pytest.raises(SystemExit, match="fail-links"):
        main(["traffic", "--mtbf", "1.0"])


def _traffic_recovery_output(capsys, seed_args):
    code = main(seed_args + ["traffic", "--topology", "ring", "--size", "5",
                             "--circuits", "2", "--horizon", "0.4",
                             "--fail-links", "1", "--formalism", "bell"])
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_traffic_recovery_run_honours_seed_and_is_deterministic(capsys):
    """--seed (global position) steers faulted traffic runs and the same
    seed reproduces the identical report — the PR 2 global-flag handling
    regression check for the recovery path."""
    first = _traffic_recovery_output(capsys, ["--seed", "31"])
    second = _traffic_recovery_output(capsys, ["--seed", "31"])
    other = _traffic_recovery_output(capsys, ["--seed", "32"])
    assert first == second
    assert first != other
    assert "routing and recovery" in first
    assert "link failures: 1 down events" in first


def test_traffic_runs(capsys):
    code = main(["traffic", "--topology", "ring", "--size", "4",
                 "--circuits", "2", "--horizon", "0.3", "--seed", "2",
                 "--formalism", "bell"])
    assert code == 0
    out = capsys.readouterr().out
    assert "installed 2 circuits" in out
    assert "admission and completion by priority class" in out
    assert "per-link utilisation" in out
    assert "pairs/s end-to-end" in out


def test_traffic_trace_out_roots_every_span_at_a_circuit(capsys, tmp_path):
    """The CLI installs circuits before it runs them; the tracer must be
    attached by then, or the ROUTE/INSTALL marks and circuit spans are
    never written and every event becomes a root of its own."""
    trace = tmp_path / "spans.jsonl"
    code = main(["traffic", "--topology", "ring", "--size", "5",
                 "--circuits", "3", "--horizon", "0.3", "--seed", "7",
                 "--formalism", "bell", "--trace-out", str(trace)])
    assert code == 0
    assert "installed 3 circuits" in capsys.readouterr().out
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    by_id = {span["span_id"]: span for span in spans}

    def root(span):
        while span["parent_id"] is not None:
            span = by_id[span["parent_id"]]
        return span

    assert spans
    assert {root(span)["name"] for span in spans} == {"circuit"}
    names = [span["name"] for span in spans]
    assert names.count("circuit") == 3
    assert names.count("ROUTE") == names.count("INSTALL") == 3


def test_traffic_apps_flag_runs_slo_section(capsys):
    code = main(["traffic", "--topology", "ring", "--size", "5",
                 "--circuits", "2", "--horizon", "0.3", "--seed", "7",
                 "--formalism", "bell", "--apps", "teleport,certify"])
    assert code == 0
    out = capsys.readouterr().out
    assert "apps teleport,certify" in out
    assert "application sessions (per circuit)" in out
    assert "application SLOs (per app)" in out
    assert "teleport" in out and "certify" in out


def test_traffic_apps_flag_validated():
    with pytest.raises(SystemExit, match="bad --apps"):
        main(["traffic", "--apps", "minesweeper"])
    with pytest.raises(SystemExit, match="at least one"):
        main(["traffic", "--apps", " , "])


def test_apps_subcommand_lists_registry(capsys):
    code = main(["apps"])
    assert code == 0
    out = capsys.readouterr().out
    assert "registered application services" in out
    for name in ("qkd", "distil", "teleport", "certify"):
        assert name in out
    assert "demands F >= 0.9" in out  # qkd's fidelity demand
    assert "SLO:" in out


def test_apps_demo_parser_wiring():
    args = build_parser().parse_args(["apps", "--demo"])
    assert args.demo is True
    assert callable(args.fn)


def test_quickstart_runs_on_bell_backend(capsys):
    code = main(["--seed", "3", "--formalism", "bell", "quickstart",
                 "--pairs", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "status completed" in out
    assert "F=" in out


def test_custom_options_reflected(capsys):
    main(["--seed", "6", "chain", "--nodes", "3", "--pairs", "2",
          "--fidelity", "0.85"])
    out = capsys.readouterr().out
    assert out.count("pair ") == 2
