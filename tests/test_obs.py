"""Tests for repro.obs: histograms, registry, snapshots, span traces."""

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.stats import Cdf
from repro.obs import (
    REQUIRED_SERIES,
    Counter,
    Histogram,
    MetricsRegistry,
    SpanTracer,
    missing_series,
    read_snapshots,
    summarise,
)
from repro.obs.registry import DEFAULT_QUANTILES


def _build_grid(side=3, seed=7, formalism="dm"):
    from repro.traffic import build_topology

    return build_topology("grid", side, seed=seed, formalism=formalism)


# ----------------------------------------------------------------------
# Log-bucket histogram
# ----------------------------------------------------------------------

DISTRIBUTIONS = {
    "uniform": lambda rng: rng.random(),
    "exponential": lambda rng: rng.expovariate(1.0),
    "normal": lambda rng: rng.gauss(0.0, 1.0),
    "lognormal": lambda rng: math.exp(rng.gauss(0.0, 0.75)),
}


@st.composite
def _non_negative_samples(draw):
    """Non-negative samples with zeros and duplicates mixed in."""
    shape = DISTRIBUTIONS[draw(st.sampled_from(sorted(DISTRIBUTIONS)))]
    n = draw(st.one_of(st.integers(1, 5), st.integers(6, 2000)))
    zeros = draw(st.floats(0.0, 0.5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    samples = []
    for _ in range(n):
        roll = rng.random()
        if roll < zeros:
            samples.append(0.0)
        elif samples and roll < zeros + 0.2:
            samples.append(rng.choice(samples))
        else:
            samples.append(abs(shape(rng)))
    return samples


@settings(max_examples=60, deadline=None)
@given(samples=_non_negative_samples(), q_extra=st.floats(1e-6, 1.0))
def test_histogram_quantiles_within_bucket_error(samples, q_extra):
    # Property: every quantile is the nearest-rank order statistic to
    # within the bucket's 1/128 relative error (zero exactly), and the
    # reported p5..p99 are ordered inside the exact [min, max].
    hist = Histogram("samples")
    for value in samples:
        hist.observe(value)
    ordered = sorted(samples)
    for q in (*DEFAULT_QUANTILES, q_extra, 1.0):
        exact = ordered[math.ceil(q * len(ordered)) - 1]
        estimate = hist.quantile(q)
        if exact == 0.0:
            assert estimate == 0.0
        else:
            assert abs(estimate - exact) <= exact / 128
    row = hist.to_dict()
    assert row["count"] == len(samples)
    assert (row["min"], row["max"]) == (ordered[0], ordered[-1])
    assert (row["min"] <= row["p5"] <= row["p50"] <= row["p95"]
            <= row["p99"] <= row["max"])
    with pytest.raises(ValueError):
        hist.observe(-1.0)
    with pytest.raises(ValueError):
        hist.quantile(0)
    assert hist.count == len(samples)


class TestCdfAt:
    def test_at_uses_sorted_lookup(self):
        cdf = Cdf.from_samples(range(1000))
        # Exact sample values and between-sample values both follow the
        # "fraction of samples <= x" definition.
        assert cdf.at(499) == pytest.approx(0.5)
        assert cdf.at(498.5) == pytest.approx(0.499)
        assert cdf.at(-1) == 0.0
        assert cdf.at(999) == 1.0


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        counter = reg.counter("hits")
        counter.inc()
        counter.inc(4)
        reg.gauge("depth", source=lambda: 7)
        snap = reg.snapshot()
        assert snap["counters"]["hits"] == 5
        assert snap["gauges"]["depth"] == 7

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x", source=lambda: 0.0)
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_source_backed_counter_rejects_inc(self):
        state = {"n": 3}
        counter = Counter("pull", source=lambda: state["n"])
        assert counter.value == 3
        state["n"] = 9
        assert counter.value == 9
        with pytest.raises(TypeError):
            counter.inc()

    def test_histogram_snapshot(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat")
        for value in range(100):
            hist.observe(float(value))
        row = reg.snapshot()["hists"]["lat"]
        assert row["count"] == 100
        assert row["min"] == 0.0
        assert row["max"] == 99.0
        assert row["p50"] == pytest.approx(49.5, abs=3.0)
        empty = reg.histogram("nothing")
        assert reg.snapshot()["hists"]["nothing"] == {"count": 0}
        assert empty.count == 0

    def test_network_registers_core_instruments(self):
        net = _build_grid()
        snap = net.obs.snapshot()
        names = {*snap["counters"], *snap["gauges"], *snap["hists"]}
        for series in ("sim.events_processed", "egp.attempts", "qnp.swaps",
                       "policer.queue_depth", "arbiter.grants"):
            assert series in names


# ----------------------------------------------------------------------
# Snapshot streaming + report agreement (the acceptance scenario)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def traffic_run(tmp_path_factory):
    """One seed-7 grid traffic run with snapshots + tracing on."""
    from repro.traffic import TrafficEngine

    out = tmp_path_factory.mktemp("obs")
    net = _build_grid(formalism="bell")
    engine = TrafficEngine(net, circuits=4, load=0.6, seed=7,
                           apps=["qkd"],
                           metrics_out=str(out / "metrics.jsonl"),
                           snapshot_interval_s=0.2,
                           trace_out=str(out / "trace.jsonl"))
    report = engine.run(horizon_s=1.0, drain_s=0.5)
    return net, engine, report, out


class TestSnapshots:
    def test_stream_shape(self, traffic_run):
        _, _, _, out = traffic_run
        snaps = read_snapshots(out / "metrics.jsonl")
        kinds = [snap["kind"] for snap in snaps]
        assert kinds[0] == "start"
        assert kinds[-1] == "final"
        assert kinds.count("periodic") >= 3
        seqs = [snap["seq"] for snap in snaps]
        assert seqs == sorted(seqs)
        times = [snap["t_sim_s"] for snap in snaps]
        assert times == sorted(times)
        assert all(snap["max_rss_kb"] > 0 for snap in snaps)

    def test_final_counters_match_report(self, traffic_run):
        # The acceptance criterion: the final cumulative counters agree
        # byte-for-byte with the end-of-run report.
        net, _, report, out = traffic_run
        final = read_snapshots(out / "metrics.jsonl")[-1]
        counters = final["counters"]
        assert counters["traffic.pairs_confirmed"] == \
            report.total_confirmed_pairs
        assert counters["traffic.pairs_confirmed"] == \
            sum(t.pairs_confirmed for t in report.classes.values())
        tallies = report.classes.values()
        assert counters["traffic.sessions_submitted"] == \
            sum(t.submitted for t in tallies)
        assert counters["traffic.sessions_accepted"] == \
            sum(t.accepted for t in tallies)
        assert counters["traffic.sessions_queued"] == \
            sum(t.queued for t in tallies)
        assert counters["traffic.sessions_rejected"] == \
            sum(t.rejected for t in tallies)
        assert counters["egp.attempts"] == \
            sum(link.attempts_made for link in net.links.values())
        assert counters["egp.pairs_generated"] == \
            sum(link.pairs_generated for link in net.links.values())

    def test_deltas_sum_to_cumulative(self, traffic_run):
        _, _, _, out = traffic_run
        snaps = read_snapshots(out / "metrics.jsonl")
        for name in ("traffic.pairs_confirmed", "egp.attempts"):
            total = sum(snap["deltas"].get(name, 0) for snap in snaps)
            assert total == snaps[-1]["counters"][name]

    def test_report_obs_frame_attached(self, traffic_run):
        _, _, report, _ = traffic_run
        assert report.obs is not None
        assert report.obs["counters"]["traffic.pairs_confirmed"] == \
            report.total_confirmed_pairs

    def test_app_slo_counters_present(self, traffic_run):
        _, _, report, out = traffic_run
        final = read_snapshots(out / "metrics.jsonl")[-1]
        met = final["counters"].get("apps.slo_met", 0)
        missed = final["counters"].get("apps.slo_missed", 0)
        assert met + missed == len(report.apps)

    def test_snapshots_do_not_perturb_the_run(self):
        # Instrumentation must be pure observation: the same seed with
        # and without streaming produces the identical report.
        from repro.traffic import TrafficEngine

        def run(**obs_kwargs):
            net = _build_grid(formalism="bell")
            engine = TrafficEngine(net, circuits=3, load=0.5, seed=7,
                                   **obs_kwargs)
            return engine.run(horizon_s=0.5, drain_s=0.25).render()

        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            instrumented = run(metrics_out=f"{tmp}/m.jsonl",
                               snapshot_interval_s=0.1,
                               trace_out=f"{tmp}/t.jsonl")
        assert run() == instrumented

    def test_interval_validation(self):
        from repro.traffic import TrafficEngine

        with pytest.raises(ValueError):
            TrafficEngine(_build_grid(), snapshot_interval_s=0.0)


# ----------------------------------------------------------------------
# Causal span tracing
# ----------------------------------------------------------------------

class TestSpanTracer:
    def test_begin_end_and_parent_inference(self):
        tracer = SpanTracer()
        root = tracer.begin("circuit", "head", 0.0, key=("circuit", "vc1"))
        tracer.alias(("purpose", "vc1#0"), root)
        tracer.begin("session", "head", 1.0, key=("session", "req1"),
                     parent=root, request="req1")
        tracer.record(2.0, "mid", "EGP_PAIR", purpose="vc1#0")
        tracer.record(3.0, "head", "PAIR", request="req1")
        tracer.record(4.0, "head", "REQUEST_DONE", request="req1")
        tracer.end(("circuit", "vc1"), 5.0)
        assert [span.name for span in tracer.roots()] == ["circuit"]
        depths = {span.name: depth for depth, span in tracer.walk(root)}
        assert depths["EGP_PAIR"] == 1
        assert depths["PAIR"] == 2  # under the session span
        session = tracer.lookup(("session", "req1"))
        assert session.t_end == 4.0  # REQUEST_DONE closes it
        assert root.t_end == 5.0

    def test_traffic_span_tree_walkable(self, traffic_run):
        # One session's lifecycle is walkable from the circuit root down
        # to delivered pairs and the app-side consumption.
        net, _, _, out = traffic_run
        tracer = net.tracer
        roots = tracer.roots()
        assert roots and all(span.name == "circuit" for span in roots)
        names = {span.name for root in roots
                 for _, span in tracer.walk(root)}
        for expected in ("ROUTE", "INSTALL", "session", "LINK_PAIR",
                         "PAIR", "REQUEST_DONE", "APP_CONSUME"):
            assert expected in names, f"missing {expected} in span tree"
        # At least one completed session shows the full submit->deliver
        # lifecycle under a single subtree.
        def children(span):
            return [s for s in tracer.spans if s.parent_id == span.span_id]

        session = next(
            span for span in tracer.spans
            if span.name == "session" and span.t_end is not None
            and any(child.name == "PAIR" for child in children(span)))
        child_names = {child.name for child in children(session)}
        assert {"REQUEST", "ADMIT", "PAIR", "REQUEST_DONE"} <= child_names
        rendered = tracer.render_tree(session)
        assert "PAIR" in rendered and "session" in rendered

    def test_trace_jsonl_round_trip(self, traffic_run):
        _, _, _, out = traffic_run
        lines = (out / "trace.jsonl").read_text().splitlines()
        assert lines
        spans = [json.loads(line) for line in lines]
        by_id = {span["span_id"]: span for span in spans}
        orphans = [span for span in spans
                   if span["parent_id"] is not None
                   and span["parent_id"] not in by_id]
        assert not orphans


# ----------------------------------------------------------------------
# Summaries and the obs CLI
# ----------------------------------------------------------------------

class TestSummarise:
    def test_summarise_renders(self, traffic_run):
        _, _, _, out = traffic_run
        text = summarise(out / "metrics.jsonl", required=REQUIRED_SERIES)
        assert "traffic.pairs_confirmed" in text
        assert "egp.attempts" in text

    def test_missing_series_detected(self, traffic_run):
        _, _, _, out = traffic_run
        snaps = read_snapshots(out / "metrics.jsonl")
        assert missing_series(snaps, REQUIRED_SERIES) == []
        assert missing_series(snaps, ("no.such.series",)) == \
            ["no.such.series"]
        with pytest.raises(ValueError):
            summarise(out / "metrics.jsonl", required=("no.such.series",))

    def test_empty_file_raises(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError):
            summarise(empty)

    def test_obs_cli(self, traffic_run, capsys):
        from repro.cli import main

        _, _, _, out = traffic_run
        assert main(["obs", "--summarise", str(out / "metrics.jsonl"),
                     "--require",
                     "traffic.pairs_confirmed,egp.attempts"]) == 0
        assert "obs summary" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["obs", "--summarise", str(out / "metrics.jsonl"),
                  "--require", "no.such.series"])
        with pytest.raises(SystemExit):
            main(["obs", "--summarise", str(out / "nope.jsonl")])
