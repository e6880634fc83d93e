"""Tests for the application service layer (`repro.apps`).

Unit level: the SLO schema, the registry, and each app service fed
synthetic matched pairs of known fidelity.  Integration level: traffic
runs with apps assigned round-robin, app fidelity demands shaping
routing, and the PR's acceptance pins — qkd distils nonzero key with
QBER consistent with its circuits' fidelity, and distillation lands
strictly above the same run's raw circuit fidelity.
"""

import random

import pytest

from repro.apps import (
    AppContext,
    CLASSICAL_TELEPORT_FIDELITY,
    QKD_DEMAND_FIDELITY,
    QKD_MAX_QBER,
    SLOTarget,
    app_names,
    evaluate_slo,
    get_app,
    summarise_apps,
    teleport_fidelity,
    werner_qber,
)
from repro.apps.qkd import binary_entropy, secret_fraction
from repro.core.requests import DeliveryStatus, PairDelivery
from repro.network.builder import MatchedPair
from repro.quantum.backends import get_backend
from repro.quantum.bell import BellIndex
from repro.quantum.bellstate import BellPairState
from repro.quantum.fidelity import pair_fidelity
from repro.quantum.operations import measure_qubit
from repro.traffic import TrafficEngine, build_topology


# ----------------------------------------------------------------------
# Helpers: synthetic matched pairs and devices
# ----------------------------------------------------------------------

class FakeDevice:
    """Minimal stand-in for a node device (measure via the engine)."""

    def __init__(self, rng):
        self.rng = rng

    def measure(self, qubit, basis="Z"):
        """Measure like NVDevice.measure: returns (bit, duration)."""
        return measure_qubit(qubit, self.rng, basis), 0.0


def make_context(seed=1, app_index=0, target_fidelity=0.7):
    rng = random.Random(seed)
    return AppContext(
        circuit_index=app_index, circuit_id=f"vc{app_index}",
        head="a", tail="b",
        head_device=FakeDevice(random.Random(seed + 1)),
        tail_device=FakeDevice(random.Random(seed + 2)),
        rng=rng, estimated_fidelity=target_fidelity,
        target_fidelity=target_fidelity)


_SEQ = [0]


def make_pair(fidelity, formalism="dm", bell=BellIndex.PHI_PLUS):
    """A synthetic confirmed MatchedPair holding a live Werner-like pair.

    The weights are expressed relative to the reported Bell state, the
    way link pairs are delivered.
    """
    p = (1.0 - fidelity) / 3.0
    weights = [p, p, p, p]
    weights[int(bell)] = fidelity
    qubit_a, qubit_b = get_backend(formalism).create_pair_from_weights(weights)
    _SEQ[0] += 1
    pair_id = ("t", _SEQ[0])

    def delivery(qubit):
        return PairDelivery(
            request_id="req", sequence=_SEQ[0],
            status=DeliveryStatus.CONFIRMED, qubit=qubit, measurement=None,
            bell_state=bell, pair_id=pair_id, t_created=0.0, t_delivered=0.0)

    return MatchedPair(
        pair_id=pair_id, head_delivery=delivery(qubit_a),
        tail_delivery=delivery(qubit_b),
        fidelity=pair_fidelity(qubit_a, qubit_b, int(bell)))


# ----------------------------------------------------------------------
# SLO schema
# ----------------------------------------------------------------------

class TestSLO:
    def test_senses(self):
        assert SLOTarget("m", 1.0, "<=").check(1.0).ok
        assert not SLOTarget("m", 1.0, "<").check(1.0).ok
        assert SLOTarget("m", 1.0, ">=").check(1.0).ok
        assert not SLOTarget("m", 1.0, ">").check(1.0).ok
        with pytest.raises(ValueError, match="sense"):
            SLOTarget("m", 1.0, "==")

    def test_missing_metric_never_met(self):
        verdict = evaluate_slo((SLOTarget("ghost", 0.0, ">="),), {})
        assert not verdict.met
        assert verdict.checks[0].value is None

    def test_verdict_is_conjunction(self):
        targets = (SLOTarget("a", 1.0, ">="), SLOTarget("b", 1.0, "<="))
        assert evaluate_slo(targets, {"a": 2.0, "b": 0.5}).met
        missed = evaluate_slo(targets, {"a": 2.0, "b": 2.0})
        assert not missed.met
        assert [check.metric for check in missed.failed_checks] == ["b"]

    def test_werner_qber(self):
        assert werner_qber(1.0) == 0.0
        assert werner_qber(0.8) == pytest.approx(2.0 / 15.0)
        assert QKD_MAX_QBER == pytest.approx(werner_qber(0.8))
        with pytest.raises(ValueError):
            werner_qber(1.5)

    def test_teleport_fidelity(self):
        assert teleport_fidelity(1.0) == pytest.approx(1.0)
        # a bare separable pair teleports no better than classical
        assert teleport_fidelity(0.5) == pytest.approx(
            CLASSICAL_TELEPORT_FIDELITY, abs=1e-9)
        with pytest.raises(ValueError):
            teleport_fidelity(-0.1)

    def test_secret_fraction(self):
        assert secret_fraction(0.0, 0.0) == pytest.approx(1.0)
        assert secret_fraction(0.5, 0.5) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            secret_fraction(1.5, 0.0)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_four_apps_registered(self):
        assert set(app_names()) >= {"qkd", "distil", "teleport", "certify"}

    def test_unknown_app_names_vocabulary(self):
        with pytest.raises(ValueError, match="unknown app 'emailing'"):
            get_app("emailing")
        with pytest.raises(ValueError, match="qkd"):
            get_app("nope")

    def test_qkd_demands_fidelity(self):
        assert get_app("qkd").min_fidelity == QKD_DEMAND_FIDELITY
        assert get_app("teleport").min_fidelity == 0.0


# ----------------------------------------------------------------------
# App services on synthetic pairs
# ----------------------------------------------------------------------

class TestQKDApp:
    def test_high_fidelity_stream_distils_key(self):
        app = get_app("qkd")(make_context(seed=3))
        for _ in range(400):
            assert app.consume(make_pair(0.97)) is True
        outcome = app.finalise(elapsed_s=2.0)
        assert outcome.app == "qkd"
        assert outcome.pairs_consumed == 400
        metrics = outcome.metrics
        assert 0 < metrics["sifted_rounds"] < 400
        assert metrics["qber"] < QKD_MAX_QBER
        assert metrics["secret_key_rate_bps"] > 0
        assert outcome.slo.met
        assert outcome.headline == metrics["secret_key_rate_bps"]

    def test_noisy_stream_misses_slo(self):
        app = get_app("qkd")(make_context(seed=4))
        for _ in range(300):
            app.consume(make_pair(0.6))
        outcome = app.finalise(elapsed_s=1.0)
        assert outcome.metrics["qber"] > QKD_MAX_QBER
        assert outcome.metrics["secret_key_rate_bps"] == 0.0
        assert not outcome.slo.met

    def test_qber_tracks_werner_relation(self):
        """Mixed-basis sifted QBER ≈ 2(1−F)/3 for Werner streams."""
        fidelity = 0.85
        app = get_app("qkd")(make_context(seed=5))
        for _ in range(2000):
            app.consume(make_pair(fidelity))
        metrics = app.finalise(elapsed_s=1.0).metrics
        assert metrics["qber"] == pytest.approx(werner_qber(fidelity),
                                                abs=0.03)


class TestDistilApp:
    def test_distillation_gains_on_werner_stream(self):
        app = get_app("distil")(make_context(seed=6))
        for _ in range(200):
            assert app.consume(make_pair(0.8)) is True
        outcome = app.finalise(elapsed_s=1.0)
        metrics = outcome.metrics
        assert metrics["pairs_out"] > 0
        assert metrics["rounds_attempted"] >= 2
        assert metrics["distilled_fidelity"] > metrics["raw_fidelity"]
        assert metrics["fidelity_gain"] > 0
        assert outcome.slo.met

    def test_bell_stream_distils_without_promotion(self, monkeypatch):
        def refuse(state):
            raise AssertionError("a Bell-diagonal pair was promoted")

        monkeypatch.setattr(BellPairState, "promote", refuse)
        app = get_app("distil")(make_context(seed=6))
        for _ in range(41):
            assert app.consume(make_pair(0.8, "bell")) is True
        metrics = app.finalise(elapsed_s=1.0).metrics
        assert metrics["rounds_attempted"] > 20  # second-level rounds ran
        assert metrics["pairs_out"] > 0
        assert metrics["fidelity_gain"] > 0

    def test_pending_buffers_are_freed(self):
        app = get_app("distil")(make_context(seed=7))
        pair = make_pair(0.9)
        app.consume(pair)  # a lone pair can never distil
        outcome = app.finalise(elapsed_s=1.0)
        assert outcome.metrics["pairs_out"] == 0
        # the buffered qubits were freed at finalise
        assert pair.head_delivery.qubit.state is None
        assert pair.tail_delivery.qubit.state is None
        assert not outcome.slo.met  # no round ever ran


class TestTeleportApp:
    @pytest.mark.parametrize("formalism", ["dm", "bell"])
    def test_teleported_fidelity_relation(self, formalism):
        app = get_app("teleport")(make_context(seed=8))
        for bell in (BellIndex.PHI_PLUS, BellIndex.PSI_PLUS,
                     BellIndex.PHI_MINUS, BellIndex.PSI_MINUS):
            assert app.consume(make_pair(0.9, formalism, bell)) is False
        outcome = app.finalise(elapsed_s=1.0)
        metrics = outcome.metrics
        assert metrics["states_teleported"] == 4
        # every non-Φ+ delivery needed a frame correction
        assert metrics["corrections_applied"] == 3
        assert metrics["frame_I"] == 1 and metrics["frame_XZ"] == 1
        assert metrics["teleported_fidelity"] == pytest.approx(
            teleport_fidelity(0.9), abs=1e-6)
        assert outcome.slo.met

    def test_separable_stream_misses(self):
        app = get_app("teleport")(make_context(seed=9))
        for _ in range(5):
            app.consume(make_pair(0.30))
        assert not app.finalise(elapsed_s=1.0).slo.met


class TestCertifyApp:
    def test_probe_sampling_and_bound(self):
        app = get_app("certify")(make_context(seed=10))
        owned = [app.consume(make_pair(0.95)) for _ in range(40)]
        # every probe_every-th delivery is a probe the app measured out
        assert owned.count(True) == 10
        outcome = app.finalise(elapsed_s=1.0)
        metrics = outcome.metrics
        assert metrics["probe_rounds"] == 10
        assert metrics["payload_rounds"] == 30
        assert metrics["probe_pass_rate"] >= 0.75
        assert 0.0 <= metrics["fidelity_lower_bound"] <= 1.0
        assert outcome.slo.met

    def test_alternating_bases(self):
        app = get_app("certify")(make_context(seed=11))
        for _ in range(40):
            app.consume(make_pair(0.98))
        estimate = app.estimate()
        assert estimate.rounds_z == 5
        assert estimate.rounds_x == 5


class TestSummaries:
    def test_rollup_counts_slo_and_headline(self):
        app = get_app("teleport")(make_context(seed=12))
        for _ in range(3):
            app.consume(make_pair(0.9))
        good = app.finalise(elapsed_s=1.0)
        bad = get_app("teleport")(make_context(seed=13, app_index=1))
        bad.consume(make_pair(0.3))
        summaries = summarise_apps([good, bad.finalise(elapsed_s=1.0)])
        summary = summaries["teleport"]
        assert summary.circuits == 2
        assert summary.circuits_met == 1
        assert summary.pairs_consumed == 4
        assert summary.slo_label == "1/2"
        assert summary.headline is not None


# ----------------------------------------------------------------------
# Traffic integration
# ----------------------------------------------------------------------

ALL_APPS = ["qkd", "distil", "teleport", "certify"]


def run_apps_workload(formalism="bell", horizon_s=1.0, seed=7,
                      apps=tuple(ALL_APPS), topology=("grid", 4),
                      circuits=8):
    net = build_topology(topology[0], topology[1], seed=seed,
                         formalism=formalism)
    engine = TrafficEngine(net, circuits=circuits, load=0.7, seed=seed,
                           apps=list(apps))
    report = engine.run(horizon_s=horizon_s, drain_s=horizon_s / 2)
    return engine, report


class TestTrafficIntegration:
    def test_engine_validates_app_names(self):
        net = build_topology("ring", 5, seed=1, formalism="bell")
        with pytest.raises(ValueError, match="unknown app 'browsing'"):
            TrafficEngine(net, circuits=2, seed=1, apps=["browsing"])
        with pytest.raises(ValueError, match="empty"):
            TrafficEngine(net, circuits=2, seed=1, apps=[])

    def test_round_robin_assignment_and_demands(self):
        net = build_topology("grid", 4, seed=7, formalism="bell")
        engine = TrafficEngine(net, circuits=8, load=0.7, seed=7,
                               apps=ALL_APPS)
        engine.install()  # routes are still installed (no run/teardown)
        assert [c.app for c in engine.circuits] == ALL_APPS * 2
        # the qkd circuits' routed target was raised by the app demand
        for circuit in engine.circuits:
            route_target = net.route_of(circuit.circuit_id).target_fidelity
            if circuit.app == "qkd":
                assert route_target >= QKD_DEMAND_FIDELITY
            else:
                assert route_target == pytest.approx(0.7)

    def test_acceptance_demo_seed7(self):
        """The PR's acceptance pin: per-app SLO section on the seed-7
        grid demo, qkd distils nonzero key with QBER consistent with its
        circuits' fidelity, distil beats the raw circuit strictly."""
        engine, report = run_apps_workload(horizon_s=1.0, seed=7)
        outcomes = {(o.app, o.circuit_index): o for o in report.apps}
        assert len(report.apps) == 8
        qkd = [o for o in report.apps if o.app == "qkd"]
        assert qkd and all(o.metrics["secret_key_rate_bps"] > 0
                           for o in qkd)
        # QBER consistent with the (demand-raised) circuit fidelity:
        # within a few σ of the Werner relation at the measured mean F.
        for outcome in qkd:
            circuit = engine.circuits[outcome.circuit_index]
            stats = next(s for s in report.circuits
                         if s.circuit_id == circuit.circuit_id)
            assert stats.mean_fidelity is not None
            expected = werner_qber(stats.mean_fidelity)
            assert outcome.metrics["qber"] <= expected + 0.08
        distil = [o for o in report.apps if o.app == "distil"]
        assert distil
        for outcome in distil:
            assert (outcome.metrics["distilled_fidelity"]
                    > outcome.metrics["raw_fidelity"])
        rendered = report.render()
        assert "application sessions (per circuit)" in rendered
        assert "application SLOs (per app)" in rendered
        for app in ALL_APPS:
            assert app in rendered
        assert outcomes  # every outcome keyed uniquely

    @pytest.mark.parametrize("formalism", ["dm", "bell"])
    def test_teleport_stream_on_both_formalisms(self, formalism):
        engine, report = run_apps_workload(
            formalism=formalism, horizon_s=0.3, seed=7,
            apps=("teleport",), topology=("ring", 5), circuits=2)
        assert [o.app for o in report.apps] == ["teleport", "teleport"]
        for outcome in report.apps:
            assert outcome.metrics["states_teleported"] > 0
            assert outcome.metrics["teleported_fidelity"] > \
                CLASSICAL_TELEPORT_FIDELITY

    def test_deterministic_in_seed(self):
        _, first = run_apps_workload(horizon_s=0.3, seed=11,
                                     apps=("qkd", "certify"),
                                     topology=("ring", 5), circuits=2)
        _, second = run_apps_workload(horizon_s=0.3, seed=11,
                                      apps=("qkd", "certify"),
                                      topology=("ring", 5), circuits=2)
        assert first.apps == second.apps

    def test_outcomes_track_recovered_circuit_ids(self):
        """After a failure-triggered re-route, the app outcome names the
        live circuit incarnation, not the torn-down one."""
        net = build_topology("ring", 5, seed=7, formalism="bell")
        engine = TrafficEngine(net, circuits=2, load=0.7, seed=7,
                               apps=["teleport"], fail_links=1)
        report = engine.run(horizon_s=0.3, drain_s=0.15)
        assert engine.circuits_recovered + engine.circuits_lost >= 1
        by_index = {c.index: c for c in engine.circuits}
        for outcome in report.apps:
            assert outcome.circuit_id == \
                by_index[outcome.circuit_index].circuit_id

    def test_appless_run_has_no_section(self):
        net = build_topology("ring", 5, seed=3, formalism="bell")
        engine = TrafficEngine(net, circuits=2, seed=3)
        report = engine.run(horizon_s=0.2, drain_s=0.1)
        assert report.apps == []
        assert "application" not in report.render()
