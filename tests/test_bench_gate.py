"""Tests for the CI bench-regression gate (`benchmarks/compare_bench.py`).

The gate itself runs in CI against a fresh `run_bench.py` JSON; here its
comparison logic is pinned — including the acceptance-criterion case
that an injected synthetic slowdown demonstrably fails the gate against
the repository's real committed baseline.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "compare_bench", REPO_ROOT / "benchmarks" / "compare_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()


def _payload(results):
    return {"revision": "test", "unit": "ns_per_op_median",
            "results": results}


class TestCompare:
    def test_no_regression_passes(self):
        rows, regressions = gate.compare(
            _payload({"op_a": 100.0, "op_b": 200.0}),
            _payload({"op_a": 110.0, "op_b": 150.0}))
        assert regressions == []
        assert all(row["status"] == "ok" for row in rows)

    def test_injected_slowdown_fails(self):
        rows, regressions = gate.compare(
            _payload({"op_a": 100.0, "op_b": 200.0}),
            _payload({"op_a": 100.0, "op_b": 650.0}), threshold=3.0)
        assert regressions == ["op_b"]
        row = next(row for row in rows if row["op"] == "op_b")
        assert row["status"] == "REGRESSION"
        assert row["ratio"] == pytest.approx(3.25)

    def test_threshold_is_strict(self):
        # exactly 3.0x is noise-tolerable; the gate fires only above it
        _, regressions = gate.compare(
            _payload({"op": 100.0}), _payload({"op": 300.0}), threshold=3.0)
        assert regressions == []
        _, regressions = gate.compare(
            _payload({"op": 100.0}), _payload({"op": 300.1}), threshold=3.0)
        assert regressions == ["op"]

    def test_one_sided_ops_never_fail(self):
        rows, regressions = gate.compare(
            _payload({"retired_op": 100.0}),
            _payload({"new_op": 99999.0}))
        assert regressions == []
        statuses = {row["op"]: row["status"] for row in rows}
        assert statuses == {"retired_op": "baseline-only", "new_op": "new"}

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            gate.compare(_payload({}), _payload({}), threshold=1.0)


class TestSpeedupFloors:
    """The bell-vs-dm ratio gate (`--check-speedups`).

    BENCH_c001c5d.json recorded the old link-generation op with bell
    *slower* than dm (0.84x); the floors make that class of regression a
    hard CI failure instead of a silent JSON entry.
    """

    def test_floors_cover_the_delivery_round(self):
        assert gate.SPEEDUP_FLOORS["link_delivery_round"] >= 1.0

    def test_every_floor_keeps_bell_not_slower_than_dm(self):
        # A floor below 1.0 would let the fast formalism fall behind the
        # exact engine on that op without failing the gate.
        assert {op: floor for op, floor in gate.SPEEDUP_FLOORS.items()
                if floor < 1.0} == {}

    def test_bell_not_slower_passes(self):
        payload = {"speedup_bell_over_dm":
                   {"bsm": 26.0, "link_delivery_round": 1.4,
                    "traffic_round": 2.1}}
        assert gate.check_speedups(payload) == []

    def test_bell_slower_than_dm_fails(self):
        # the exact regression shape of BENCH_c001c5d.json
        payload = {"speedup_bell_over_dm": {"link_delivery_round": 0.84}}
        violations = gate.check_speedups(payload)
        assert len(violations) == 1
        assert "link_delivery_round" in violations[0]
        assert "0.84" in violations[0]

    def test_missing_ops_are_skipped(self):
        # --only subsets omit ratios; absence must not fail the gate
        assert gate.check_speedups({}) == []
        assert gate.check_speedups({"speedup_bell_over_dm": {}}) == []

    def test_custom_floor_applies(self):
        payload = {"speedup_bell_over_dm": {"bsm": 4.0}}
        assert gate.check_speedups(payload, floors={"bsm": 5.0})
        assert not gate.check_speedups(payload, floors={"bsm": 3.0})

    def test_cli_flag_enforces_floors(self, tmp_path, capsys):
        baseline = gate.newest_baseline()
        payload = json.loads(baseline.read_text())
        payload["speedup_bell_over_dm"] = {"link_delivery_round": 0.84}
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(payload))
        code = gate.main([str(fresh), "--check-speedups",
                          "--baseline", str(baseline)])
        assert code == 1
        assert "floors violated" in capsys.readouterr().out

    def test_cli_flag_passes_on_healthy_ratios(self, tmp_path, capsys):
        baseline = gate.newest_baseline()
        payload = json.loads(baseline.read_text())
        payload["speedup_bell_over_dm"] = {
            "bsm": 26.0, "link_delivery_round": 1.5, "traffic_round": 2.0}
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(payload))
        code = gate.main([str(fresh), "--check-speedups",
                          "--baseline", str(baseline)])
        assert code == 0
        assert "speedup and memory floors hold" in capsys.readouterr().out

    def test_committed_baseline_passes_its_own_floors(self):
        """The repository's own newest BENCH json must satisfy the gates
        it ships — otherwise CI is red on an untouched checkout."""
        payload = json.loads(gate.newest_baseline().read_text())
        assert gate.check_speedups(payload) == []
        assert gate.check_rss(payload) == []


class TestRssCeilings:
    """The soak memory gate (also under `--check-speedups`).

    The leak tripwire: the bell traffic_soak scenario's peak RSS must
    stay under the ceiling, or per-session state is growing faster than
    the pair rate.
    """

    def test_ceiling_covers_the_bell_soak(self):
        assert gate.RSS_CEILINGS["traffic_soak_bell"] == 132_000

    def test_rss_below_ceiling_passes(self):
        payload = {"soak_max_rss_kb": {"traffic_soak_bell": 110_000}}
        assert gate.check_rss(payload) == []

    def test_rss_above_ceiling_fails(self):
        payload = {"soak_max_rss_kb": {"traffic_soak_bell": 400_000}}
        violations = gate.check_rss(payload)
        assert len(violations) == 1
        assert "traffic_soak_bell" in violations[0]
        assert "400000" in violations[0]

    def test_missing_section_is_skipped(self):
        assert gate.check_rss({}) == []
        assert gate.check_rss({"soak_max_rss_kb": {}}) == []
        # dm has no ceiling; its presence alone must not fail anything.
        assert gate.check_rss(
            {"soak_max_rss_kb": {"traffic_soak_dm": 10 ** 9}}) == []

    def test_custom_ceiling_applies(self):
        payload = {"soak_max_rss_kb": {"traffic_soak_bell": 150_000}}
        assert gate.check_rss(payload,
                              ceilings={"traffic_soak_bell": 120_000})
        assert not gate.check_rss(payload,
                                  ceilings={"traffic_soak_bell": 200_000})

    def test_cli_flag_enforces_the_ceiling(self, tmp_path, capsys):
        baseline = gate.newest_baseline()
        payload = json.loads(baseline.read_text())
        payload["soak_max_rss_kb"] = {"traffic_soak_bell": 500_000}
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(payload))
        code = gate.main([str(fresh), "--check-speedups",
                          "--baseline", str(baseline)])
        assert code == 1
        assert "floors violated" in capsys.readouterr().out


class TestBaselineSelection:
    def test_newest_baseline_is_a_committed_bench_file(self):
        baseline = gate.newest_baseline()
        assert baseline.name.startswith("BENCH_")
        assert baseline.suffix == ".json"
        payload = json.loads(baseline.read_text())
        assert "results" in payload and payload["results"]

    def test_no_baseline_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no BENCH_"):
            gate.newest_baseline(tmp_path)

    def test_newest_by_mtime_outside_git(self, tmp_path):
        old = tmp_path / "BENCH_old.json"
        new = tmp_path / "BENCH_new.json"
        old.write_text("{}")
        new.write_text("{}")
        import os
        os.utime(old, (1, 1))
        os.utime(new, (2_000_000_000, 2_000_000_000))
        assert gate.newest_baseline(tmp_path) == new

    def test_untracked_baseline_is_not_trusted(self, tmp_path):
        """A locally produced, uncommitted BENCH file must never become
        the baseline — the gate would compare fresh vs fresh.  Uses a
        throwaway git repo so nothing shared with other (xdist) workers
        is touched."""
        import subprocess

        def git(*argv):
            subprocess.run(
                ["git", "-c", "user.email=t@t", "-c", "user.name=t",
                 *argv], cwd=tmp_path, check=True, capture_output=True)

        git("init", "-q")
        committed = tmp_path / "BENCH_committed.json"
        committed.write_text("{}")
        git("add", "BENCH_committed.json")
        git("commit", "-qm", "baseline")
        untracked = tmp_path / "BENCH_zzz_untracked.json"
        untracked.write_text("{}")  # newer mtime, lexically later name
        assert gate.newest_baseline(tmp_path) == committed

    def test_exclusion_removes_pr_baselines(self):
        committed = gate.newest_baseline()
        with pytest.raises(FileNotFoundError, match="no BENCH_"):
            gate.newest_baseline(
                exclude={path.name
                         for path in gate.baseline_candidates()})
        # excluding the winner falls back to the next-newest, not an error
        remaining = gate.newest_baseline(exclude={committed.name})
        assert remaining != committed

    def test_changed_since_returns_bench_names_only(self):
        changed = gate.changed_since("HEAD")
        assert isinstance(changed, set)
        assert all(name.startswith("BENCH_") for name in changed)


class TestGateEndToEnd:
    def test_real_baseline_with_synthetic_slowdown_fails(self, tmp_path,
                                                         capsys):
        """Acceptance pin: a 4x slowdown on a tracked op trips the gate
        against the newest *committed* baseline."""
        baseline = gate.newest_baseline()
        payload = json.loads(baseline.read_text())
        op = sorted(payload["results"])[0]
        payload["results"][op] *= 4.0
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(payload))
        code = gate.main([str(fresh)])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert op in out

    def test_identical_payload_passes(self, tmp_path, capsys):
        baseline = gate.newest_baseline()
        fresh = tmp_path / "fresh.json"
        fresh.write_text(baseline.read_text())
        code = gate.main([str(fresh), "--threshold", "3.0"])
        assert code == 0
        assert "OK: no tracked op regressed" in capsys.readouterr().out

    def test_explicit_baseline_flag(self, tmp_path, capsys):
        base = tmp_path / "BENCH_x.json"
        base.write_text(json.dumps(_payload({"op": 10.0})))
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(_payload({"op": 100.0})))
        code = gate.main([str(fresh), "--baseline", str(base)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
