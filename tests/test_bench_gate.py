"""Tests for the two bench gates.

``benchmarks/perf_ab.py`` runs perfbench on a base tree and on this tree
and judges the end-to-end medians against the bounds in
``BENCHMARK.json``; here its decision and its record are pinned on
synthetic per-run results.  ``benchmarks/run_bench.py`` holds the
bell-over-dm ratio floors; here its floor check and exit code are pinned
with the timing stubbed out.
"""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load("perf_ab")
bench = _load("run_bench")
END_TO_END = ab.load_spec(REPO_ROOT)["end_to_end"]
HEALTHY = {"run_s": 1.0, "wall_pairs_per_s": 5000.0, "setup_s": 1.5,
           "peak_rss_mb": 64.0, "sessions_ok_frac": 0.56}


def _run(correct=True, **changes):
    """One synthetic run: the healthy metrics scaled by ``changes``."""
    metrics = {name: value * changes.get(name, 1.0)
               for name, value in HEALTHY.items()}
    return {"correct": correct, "attempted": 5, "failed": 0 if correct else 1,
            "metrics": metrics}


def _decide(head_changes=None, base=None, head=None, end_to_end=END_TO_END):
    base = base if base is not None else [_run() for _ in range(5)]
    head = head if head is not None else [
        _run(**(head_changes or {})) for _ in range(5)]
    return ab.decide(base, head, end_to_end)


class TestCompare:
    """`perf_ab.decide`: head medians against base medians and bounds."""

    def test_no_regression_passes(self):
        verdict = _decide({"run_s": 1.2, "wall_pairs_per_s": 0.8,
                           "setup_s": 0.9, "peak_rss_mb": 1.08,
                           "sessions_ok_frac": 1.1})
        assert verdict["failures"] == []
        assert verdict["notes"] == []
        assert verdict["medians"]["base"]["run_s"] == 1.0
        assert verdict["medians"]["head"]["run_s"] == pytest.approx(1.2)

    def test_injected_slowdown_fails(self):
        verdict = _decide({"run_s": 1.3})
        assert len(verdict["failures"]) == 1
        assert verdict["failures"][0].startswith("run_s:")

    def test_threshold_is_strict(self):
        # Exactly at the bound is inside it; the gate fires only past it.
        assert _decide({"run_s": 1.25})["failures"] == []
        assert _decide({"run_s": 1.2501})["failures"]

    def test_one_sided_ops_never_fail(self):
        # A metric one side does not print (perfbench added or dropped it
        # in between) is reported, never charged to the head.
        base = [_run() for _ in range(5)]
        for run in base:
            del run["metrics"]["setup_s"]
        verdict = _decide({"setup_s": 10.0}, base=base)
        assert verdict["failures"] == []
        assert verdict["notes"] == ["setup_s: no base value, not compared"]

    def test_bad_threshold_rejected(self):
        metric = {"name": "run_s", "unit": "s", "better": "lower"}
        with pytest.raises(ValueError, match="bound"):
            _decide(end_to_end=[{**metric, "bound": 0}])
        with pytest.raises(ValueError, match="better"):
            _decide(end_to_end=[{**metric, "bound": 0.25,
                                 "better": "sideways"}])

    def test_higher_is_better_is_judged_downwards(self):
        # wall_pairs_per_s and sessions_ok_frac get worse by falling.
        assert _decide({"wall_pairs_per_s": 1.3})["failures"] == []
        failures = _decide({"wall_pairs_per_s": 0.7})["failures"]
        assert [line.split(":")[0] for line in failures] == [
            "wall_pairs_per_s"]
        failures = _decide({"sessions_ok_frac": 0.7})["failures"]
        assert [line.split(":")[0] for line in failures] == [
            "sessions_ok_frac"]

    def test_medians_not_means(self):
        # One slow head run in five does not move the median.
        head = [_run() for _ in range(4)] + [_run(run_s=3.0)]
        assert _decide(head=head)["failures"] == []

    def test_incorrect_head_run_fails(self):
        head = [_run() for _ in range(4)] + [_run(correct=False)]
        failures = _decide(head=head)["failures"]
        assert failures == ["head run 5 not correct: 1 of 5 outputs wrong"]

    def test_base_failure_is_not_charged_to_the_head(self):
        crashed = {"correct": False, "attempted": 0, "failed": 0,
                   "metrics": {}, "error": "exit 2: no sources"}
        verdict = _decide(base=[_run(correct=False)] + [crashed] * 4)
        assert verdict["failures"] == []
        assert verdict["notes"][:2] == [
            "base run 1 not correct: 1 of 5 outputs wrong",
            "base run 2 not correct: exit 2: no sources"]
        # A base that printed no metrics at all leaves nothing to compare.
        verdict = _decide({"run_s": 3.0}, base=[crashed] * 5)
        assert verdict["failures"] == []
        assert "run_s: no base value, not compared" in verdict["notes"]


class TestRssCeilings:
    """The memory gate: `peak_rss_mb` may grow by its bound, no more."""

    def test_ceiling_covers_the_bell_soak(self):
        spec = ab.load_spec(REPO_ROOT)
        assert "soak_bell" in [entry["name"] for entry in spec["workloads"]]
        rss = next(metric for metric in spec["end_to_end"]
                   if metric["name"] == "peak_rss_mb")
        assert (rss["better"], rss["bound"]) == ("lower", 0.1)

    def test_rss_below_ceiling_passes(self):
        assert _decide({"peak_rss_mb": 1.08})["failures"] == []

    def test_rss_above_ceiling_fails(self):
        failures = _decide({"peak_rss_mb": 1.12})["failures"]
        assert len(failures) == 1
        assert failures[0].startswith("peak_rss_mb:")
        assert "71.68" in failures[0]  # the head median, 1.12 x 64 MB

    def test_missing_section_is_skipped(self):
        head = [_run(peak_rss_mb=5.0) for _ in range(5)]
        for run in head:
            del run["metrics"]["peak_rss_mb"]
        verdict = _decide(head=head)
        assert verdict["failures"] == []
        assert verdict["notes"] == ["peak_rss_mb: no head value, not compared"]

    def test_custom_ceiling_applies(self):
        rss = {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}
        assert _decide({"peak_rss_mb": 1.12},
                       end_to_end=[{**rss, "bound": 0.5}])["failures"] == []
        assert _decide({"peak_rss_mb": 1.08},
                       end_to_end=[{**rss, "bound": 0.05}])["failures"]

    def test_cli_flag_enforces_the_ceiling(self, fake_runs, capsys):
        fake_runs.head = {"peak_rss_mb": 1.12}
        assert ab.main([str(REPO_ROOT)]) == 1
        out = capsys.readouterr().out
        assert "FAIL peak_rss_mb" in out
        record = json.loads(fake_runs.record().read_text())
        assert record["verdict"] == "fail"


@pytest.fixture
def fake_runs(monkeypatch, tmp_path):
    """Stub `perf_ab.run_once` with synthetic runs; record the calls.

    ``tmp_path`` stands in for the head tree: it holds a copy of
    ``BENCHMARK.json`` and receives the record.  No tree is copied, and
    ``head`` scales the head side's metrics.
    """
    shutil.copy2(REPO_ROOT / "BENCHMARK.json", tmp_path)

    class Fake:
        def __init__(self):
            self.head = {}
            self.calls = []

        def __call__(self, tree, workload):
            side = tree.name
            self.calls.append((workload, side))
            return _run(**(self.head if side == "head" else {}))

        def record(self):
            (path,) = tmp_path.glob("BENCH_*.json")
            return path

    fake = Fake()
    monkeypatch.setattr(ab, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(ab, "copy_tree", lambda source, dest: dest)
    monkeypatch.setattr(ab, "run_once", fake)
    return fake


class TestGateEndToEnd:
    """`perf_ab.main` with the perfbench runs stubbed out."""

    def test_real_baseline_with_synthetic_slowdown_fails(self, fake_runs,
                                                         capsys):
        # The repository's own BENCHMARK.json bounds, synthetic runs.
        fake_runs.head = {"run_s": 1.3}
        assert ab.main([str(REPO_ROOT)]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL run_s") == 3  # once per workload
        record = json.loads(fake_runs.record().read_text())
        assert record["verdict"] == "fail"
        soak = record["workloads"]["soak_bell"]
        assert [run["metrics"]["run_s"] for run in soak["head"]] == [
            pytest.approx(1.3)] * 5
        assert soak["medians"]["base"]["run_s"] == 1.0

    def test_identical_payload_passes(self, fake_runs, capsys):
        assert ab.main([str(REPO_ROOT)]) == 0
        assert "OK: every head run correct" in capsys.readouterr().out
        record = json.loads(fake_runs.record().read_text())
        assert record["verdict"] == "pass"
        assert record["pairs"] == ab.PAIRS == 5
        assert record["seconds"] == ab.SECONDS == 2

    def test_explicit_baseline_flag(self, fake_runs):
        # The base tree argument: PAIRS pairs per workload, the side that
        # runs first alternating from pair to pair.
        assert ab.main([str(REPO_ROOT)]) == 0
        soak = [side for workload, side in fake_runs.calls
                if workload == "soak_bell"]
        assert soak == ["base", "head", "head", "base", "base", "head",
                        "head", "base", "base", "head"]
        assert len(fake_runs.calls) == 3 * 2 * ab.PAIRS

    def test_no_base_runs_the_head_once_per_workload(self, fake_runs):
        fake_runs.head = {"run_s": 10.0}  # nothing to compare against
        assert ab.main([]) == 0
        assert fake_runs.calls == [("soak_bell", "head"),
                                   ("round_dm", "head"),
                                   ("campaign_bell", "head")]

    def test_a_tree_without_perfbench_is_refused(self, tmp_path):
        with pytest.raises(SystemExit):
            ab.main([str(tmp_path)])


class TestSpeedupFloors:
    """The bell-vs-dm ratio floors of `run_bench.py`.

    BENCH_c001c5d.json recorded the old link-generation op with bell
    *slower* than dm (0.84x); the floors make that class of regression a
    hard CI failure instead of a silent JSON entry.
    """

    HEALTHY = {"bsm": 2.8, "link_delivery_round": 1.5, "traffic_round": 1.1}

    def test_floors_cover_the_delivery_round(self):
        assert bench.SPEEDUP_FLOORS["link_delivery_round"] >= 1.0

    def test_every_floor_keeps_bell_not_slower_than_dm(self):
        # A floor below 1.0 would let the fast formalism fall behind the
        # exact engine on that op without failing the gate.
        assert {op: floor for op, floor in bench.SPEEDUP_FLOORS.items()
                if floor < 1.0} == {}

    def test_every_timed_op_has_a_floor(self):
        assert set(bench.BENCHMARKS) == set(bench.SPEEDUP_FLOORS)
        assert all(set(iterations) == {"dm", "bell"}
                   for _, iterations in bench.BENCHMARKS.values())

    def test_bell_not_slower_passes(self):
        assert bench.check_floors(self.HEALTHY) == []

    def test_bell_slower_than_dm_fails(self):
        # the exact regression shape of BENCH_c001c5d.json
        violations = bench.check_floors(
            {**self.HEALTHY, "link_delivery_round": 0.84})
        assert len(violations) == 1
        assert "link_delivery_round" in violations[0]
        assert "0.84" in violations[0]

    def test_missing_op_fails(self):
        violations = bench.check_floors({"bsm": 2.8, "traffic_round": 1.1})
        assert violations == ["link_delivery_round: not measured (floor 1)"]
        assert len(bench.check_floors({})) == len(bench.SPEEDUP_FLOORS)

    def test_custom_floor_applies(self):
        assert bench.check_floors({"bsm": 4.0}, floors={"bsm": 5.0})
        assert not bench.check_floors({"bsm": 4.0}, floors={"bsm": 3.0})

    def test_cli_flag_enforces_floors(self, monkeypatch, capsys):
        monkeypatch.setattr(bench, "measure", lambda rounds: {
            **self.HEALTHY, "bsm": 1.1})
        assert bench.main(["--rounds", "1"]) == 1
        assert "FAIL: bsm: bell/dm speedup 1.10" in capsys.readouterr().out

    def test_cli_flag_passes_on_healthy_ratios(self, monkeypatch, capsys):
        monkeypatch.setattr(bench, "measure", lambda rounds: self.HEALTHY)
        assert bench.main(["--rounds", "1"]) == 0
        assert "OK: every bell/dm ratio" in capsys.readouterr().out

    def test_missing_op_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(bench, "measure", lambda rounds: {
            op: ratio for op, ratio in self.HEALTHY.items()
            if op != "traffic_round"})
        assert bench.main([]) == 1
        assert "traffic_round: not measured" in capsys.readouterr().out
