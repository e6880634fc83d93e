"""Tests for fibre and the single-click heralded entanglement model."""

import math
import random

import numpy as np
import pytest

from repro.hardware import (
    FibreSegment,
    HeraldedConnection,
    MidpointHeraldModel,
    NEAR_TERM,
    SIMULATION,
    SingleClickModel,
)
from repro.netsim import Simulator
from repro.netsim.units import MS, US, fibre_delay
from repro.quantum import BellIndex, bell_fidelity


def lab_model(length_km=0.002, params=SIMULATION):
    return SingleClickModel(params, HeraldedConnection.lab(length_km))


class TestFibre:
    def test_segment_validation(self):
        with pytest.raises(ValueError):
            FibreSegment(-1.0)
        with pytest.raises(ValueError):
            FibreSegment(1.0, attenuation_db_per_km=-2.0)

    def test_transmissivity_and_delay(self):
        segment = FibreSegment(2.0, 5.0)
        assert segment.transmissivity == pytest.approx(10 ** -1.0)
        assert segment.delay == pytest.approx(fibre_delay(2.0))

    def test_symmetric_connection(self):
        connection = HeraldedConnection.lab(2.0)
        assert (connection.segment_a.length_km
                + connection.segment_b.length_km) == pytest.approx(2.0)
        assert connection.segment_a.length_km == pytest.approx(1.0)
        # Round trip: photon to midpoint + herald back.
        assert connection.herald_round_trip == pytest.approx(2 * fibre_delay(1.0))

    def test_telecom_attenuation(self):
        connection = HeraldedConnection.telecom(25.0)
        assert connection.segment_a.attenuation_db_per_km == 0.5


class TestSingleClick:
    """Link-level physics properties of the analytic single-click model.

    ``model_cls`` lets :class:`TestMidpointSingleClick` re-run the whole
    suite against the time-windowed midpoint model — the ISSUE's contract
    that both physical models satisfy the same link-level physics.
    """

    model_cls = SingleClickModel

    def make(self, connection=None, params=SIMULATION):
        return self.model_cls(params,
                              connection or HeraldedConnection.lab(0.002))

    def test_cycle_time_dominated_by_overhead_on_short_link(self):
        model = self.make()
        assert 2 * US < model.cycle_time < 20 * US

    def test_success_probability_increases_with_alpha(self):
        model = self.make()
        assert model.success_probability(0.2) > model.success_probability(0.05)

    def test_success_probability_bounds(self):
        model = self.make()
        for alpha in (0.001, 0.05, 0.3, 0.5):
            assert 0.0 < model.success_probability(alpha) <= 1.0

    def test_alpha_validation(self):
        model = self.make()
        with pytest.raises(ValueError):
            model.success_probability(0.0)
        with pytest.raises(ValueError):
            model.success_probability(0.6)

    def test_fidelity_decreases_with_alpha(self):
        model = self.make()
        assert model.fidelity(0.05) > model.fidelity(0.2) > model.fidelity(0.4)

    def test_fidelity_rate_tradeoff(self):
        """The P1 knob: higher fidelity costs rate (Sec 2.3)."""
        model = self.make()
        alpha_high_f = model.alpha_for_fidelity(0.95)
        alpha_low_f = model.alpha_for_fidelity(0.80)
        assert alpha_low_f > alpha_high_f
        assert model.expected_pair_time(alpha_low_f) < model.expected_pair_time(alpha_high_f)

    def test_alpha_for_fidelity_meets_target(self):
        model = self.make()
        for target in (0.8, 0.9, 0.95, 0.97):
            alpha = model.alpha_for_fidelity(target)
            assert model.fidelity(alpha) >= target - 1e-9

    def test_unreachable_fidelity_rejected(self):
        model = self.make()
        with pytest.raises(ValueError):
            model.alpha_for_fidelity(0.9999)

    def test_near_term_visibility_limits_fidelity(self):
        model = self.make(HeraldedConnection.telecom(25.0), NEAR_TERM)
        # Visibility 0.9 caps fidelity well below 0.95.
        with pytest.raises(ValueError):
            model.alpha_for_fidelity(0.95)
        alpha = model.alpha_for_fidelity(0.8)
        assert model.fidelity(alpha) >= 0.8

    def test_produced_dm_fidelity_matches_analytic(self):
        model = self.make()
        for alpha in (0.01, 0.05, 0.2):
            for index in (BellIndex.PSI_PLUS, BellIndex.PSI_MINUS):
                dm = model.produced_dm(alpha, index)
                assert np.trace(dm) == pytest.approx(1.0)
                assert bell_fidelity(dm, index) == pytest.approx(model.fidelity(alpha))

    def test_produced_dm_rejects_phi_states(self):
        model = self.make()
        with pytest.raises(ValueError):
            model.produced_dm(0.05, BellIndex.PHI_PLUS)

    def test_produced_dm_is_valid_state(self):
        model = self.make(HeraldedConnection.telecom(25.0), NEAR_TERM)
        dm = model.produced_dm(0.3, BellIndex.PSI_PLUS)
        eigenvalues = np.linalg.eigvalsh(dm)
        assert eigenvalues.min() > -1e-12

    def test_fig5_calibration_mean_time(self):
        """Fig 5: F=0.95 pairs over 2 m take ~10 ms on average."""
        model = self.make()
        alpha = model.alpha_for_fidelity(0.95)
        mean_time = model.expected_pair_time(alpha)
        assert 5 * MS < mean_time < 20 * MS

    def test_fig5_calibration_95th_percentile(self):
        """Fig 5: 95% of pairs within ~30 ms (we allow 15–60 ms)."""
        model = self.make()
        alpha = model.alpha_for_fidelity(0.95)
        q95 = model.time_quantile(alpha, 0.95)
        assert 15 * MS < q95 < 60 * MS

    def test_time_quantile_validation(self):
        model = self.make()
        with pytest.raises(ValueError):
            model.time_quantile(0.05, 1.0)

    def test_sample_attempts_geometric_mean(self):
        model = self.make()
        rng = random.Random(5)
        alpha = 0.1
        # Inverse-CDF geometric draws, the way the link layer samples.
        log_miss = model.log_miss_probability(alpha)
        samples = [max(1, math.ceil(math.log(1.0 - rng.random()) / log_miss))
                   for _ in range(4000)]
        expected_mean = 1.0 / model.success_probability(alpha)
        assert np.mean(samples) == pytest.approx(expected_mean, rel=0.1)
        assert min(samples) >= 1

    def test_near_term_is_much_slower(self):
        lab = self.make()
        near = self.make(HeraldedConnection.telecom(25.0), NEAR_TERM)
        alpha_lab = lab.alpha_for_fidelity(0.9)
        alpha_near = near.alpha_for_fidelity(0.75)
        assert near.expected_pair_time(alpha_near) > 10 * lab.expected_pair_time(alpha_lab)


class TestMidpointSingleClick(TestSingleClick):
    """The midpoint model must pass the same link-level physics suite."""

    model_cls = MidpointHeraldModel


class TestMidpointHeraldModel:
    def make(self, coincidence_window=None, params=SIMULATION):
        return MidpointHeraldModel(params, HeraldedConnection.lab(0.002),
                                   coincidence_window=coincidence_window)

    def test_window_defaults_to_detection_window(self):
        model = self.make()
        assert model.coincidence_window == pytest.approx(SIMULATION.tau_w)

    def test_non_positive_window_rejected(self):
        with pytest.raises(ValueError):
            self.make(coincidence_window=0.0)
        with pytest.raises(ValueError):
            self.make(coincidence_window=-1.0)

    def test_window_acceptance_in_unit_interval(self):
        for window in (1.0, 10.0, 25.0, 100.0):
            acceptance = self.make(coincidence_window=window).window_acceptance
            assert 0.0 < acceptance < 1.0

    def test_wider_window_accepts_more(self):
        narrow = self.make(coincidence_window=5.0)
        wide = self.make(coincidence_window=50.0)
        assert wide.window_acceptance > narrow.window_acceptance
        assert wide.detection_efficiency > narrow.detection_efficiency

    def test_detection_efficiency_below_analytic(self):
        analytic = lab_model()
        midpoint = self.make()
        assert midpoint.detection_efficiency < analytic.detection_efficiency
        assert midpoint.detection_efficiency == pytest.approx(
            analytic.detection_efficiency * midpoint.window_acceptance)

    def test_dark_probability_matches_analytic_at_default_window(self):
        analytic = lab_model()
        midpoint = self.make()
        assert midpoint.dark_probability() == pytest.approx(
            analytic.dark_probability())

    def test_wider_window_collects_more_dark_counts(self):
        narrow = self.make(coincidence_window=5.0)
        wide = self.make(coincidence_window=100.0)
        assert wide.dark_probability() > narrow.dark_probability()


class TestMidpointNetwork:
    def test_builder_wires_station_per_link(self):
        from repro.network.builder import Network
        from repro.netsim import Simulator as Sim

        net = Network(Sim(seed=3), SIMULATION, physical="midpoint")
        net.add_node("a")
        net.add_node("b")
        link = net.connect("a", "b", 0.002)
        assert isinstance(link.model, MidpointHeraldModel)

    def test_unknown_physical_model_rejected(self):
        from repro.network.builder import Network
        from repro.netsim import Simulator as Sim

        with pytest.raises(ValueError):
            Network(Sim(), SIMULATION, physical="nope")
        net = Network(Sim(), SIMULATION)
        net.add_node("a")
        net.add_node("b")
        with pytest.raises(ValueError):
            net.connect("a", "b", 0.002, physical="nope")

    def test_per_link_override_on_analytic_network(self):
        from repro.network.builder import Network
        from repro.netsim import Simulator as Sim

        net = Network(Sim(seed=3), SIMULATION)
        net.add_node("a")
        net.add_node("b")
        net.add_node("c")
        analytic = net.connect("a", "b", 0.002)
        midpoint = net.connect("b", "c", 0.002, physical="midpoint")
        assert not isinstance(analytic.model, MidpointHeraldModel)
        assert isinstance(midpoint.model, MidpointHeraldModel)

    def test_topology_builder_threads_physical_model(self):
        from repro.traffic import build_topology

        net = build_topology("grid", 2, seed=7, formalism="bell",
                             physical="midpoint")
        assert net.links
        for link in net.links.values():
            assert isinstance(link.model, MidpointHeraldModel)

    def test_midpoint_link_generates_pairs(self):
        from repro.linklayer import Link
        from repro.netsim import S
        from repro.netsim.ports import subscribe
        from repro.network import QuantumNode

        sim = Simulator(seed=7)
        node_a = QuantumNode(sim, "alice", SIMULATION)
        node_b = QuantumNode(sim, "bob", SIMULATION)
        model = MidpointHeraldModel(SIMULATION, HeraldedConnection.lab(0.002))
        link = Link(sim, "alice-bob", node_a, node_b, model, 100)
        node_a.attach_link(link, "bob")
        node_b.attach_link(link, "alice")
        inbox_a = []

        def consume_a(delivery):
            inbox_a.append(delivery)
            node_a.qmm.free(delivery.entanglement_id)

        def consume_b(delivery):
            node_b.qmm.free(delivery.entanglement_id)

        subscribe(link.delivery_port("alice"), consume_a)
        subscribe(link.delivery_port("bob"), consume_b)
        link.set_request("vc0", min_fidelity=0.9, lpr=50.0)
        sim.run(until=1 * S)
        assert len(inbox_a) > 5
        assert link.pairs_generated == len(inbox_a)


@pytest.mark.parametrize("model_cls", [SingleClickModel, MidpointHeraldModel])
@pytest.mark.parametrize("params", [SIMULATION, NEAR_TERM],
                         ids=["simulation", "near-term"])
@pytest.mark.parametrize("length_km", [0.002, 2.0, 25.0])
def test_alpha_grid_sweep_bit_identical_to_per_alpha_calls(model_cls, params,
                                                           length_km):
    """The vectorised α sweep (the α-scan and the routing fidelity
    ceiling) and the per-α methods are the same arithmetic: success
    probability, garbage weight and fidelity agree bit for bit
    (compared as raw 64-bit patterns)."""
    from repro.hardware.heralded import MAX_ALPHA, MIN_ALPHA

    model = model_cls(params, HeraldedConnection.telecom(length_km))
    alphas = np.random.default_rng(17).uniform(MIN_ALPHA, MAX_ALPHA, 500)
    alphas = np.concatenate([alphas, np.geomspace(1e-3, 0.5, 200),
                             [MIN_ALPHA, MAX_ALPHA]])
    arrays = model._produced_stats(alphas)
    per_alpha = np.array([(model.success_probability(float(alpha)),
                           model.garbage_weight(float(alpha)),
                           model.fidelity(float(alpha)))
                          for alpha in alphas]).T
    for array, scalar in zip(arrays, per_alpha):
        assert np.array_equal(array.view(np.int64), scalar.view(np.int64))
