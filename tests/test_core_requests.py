"""Tests for the user request API, epochs, demux and policing."""

import pytest

from repro.core import (
    EpochManager,
    Policer,
    PolicerDecision,
    RequestHandle,
    RequestType,
    SymmetricDemultiplexer,
    UserRequest,
)
from repro.netsim.units import S
from repro.network.builder import build_chain_network
from repro.quantum import BellIndex


class TestUserRequest:
    def test_needs_count_or_rate(self):
        with pytest.raises(ValueError):
            UserRequest()

    def test_count_validation(self):
        with pytest.raises(ValueError):
            UserRequest(num_pairs=0)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            UserRequest(rate=-1.0)

    def test_early_cannot_fix_final_state(self):
        with pytest.raises(ValueError):
            UserRequest(num_pairs=1, request_type=RequestType.EARLY,
                        final_state=BellIndex.PHI_PLUS)

    def test_minimum_eer_measure_directly_deadline(self):
        request = UserRequest(num_pairs=10, deadline=2 * S)
        assert request.minimum_eer() == pytest.approx(5.0)

    def test_minimum_eer_rate(self):
        request = UserRequest(rate=7.0)
        assert request.minimum_eer() == 7.0
        assert request.is_rate_based

    def test_minimum_eer_no_deadline_is_zero(self):
        request = UserRequest(num_pairs=10)
        assert request.minimum_eer() == 0.0
        assert not request.is_rate_based

    def test_minimum_eer_create_and_keep(self):
        request = UserRequest(num_pairs=4, delta_t=1 * S)
        assert request.minimum_eer() == pytest.approx(4.0)

    def test_unique_request_ids(self):
        # Identifiers are per simulation: each network numbers its own
        # submissions from req0, whatever ran before it in the process.
        def submitted_ids(submits):
            net = build_chain_network(2, seed=3, formalism="bell")
            circuit_id = net.establish_circuit("node0", "node1", 0.7, "short")
            return [net.submit(circuit_id, UserRequest(num_pairs=1)).request_id
                    for _ in range(submits)]

        assert submitted_ids(2) == ["req0", "req1"]
        assert submitted_ids(1) == ["req0"]

    def test_explicit_request_id_kept(self):
        assert UserRequest(num_pairs=1).request_id is None
        assert UserRequest(num_pairs=1, request_id="mine").request_id == "mine"

    def test_handle_latency(self):
        handle = RequestHandle(UserRequest(num_pairs=1))
        assert handle.latency is None
        handle.t_submitted = 10.0
        handle.t_completed = 30.0
        assert handle.latency == 20.0


class TestEpochManager:
    def test_initial_state(self):
        epochs = EpochManager()
        assert epochs.latest_epoch == 0
        assert epochs.active_requests() == ()

    def test_create_and_activate(self):
        epochs = EpochManager()
        epoch = epochs.create_epoch(("r1",))
        assert epochs.active_requests() == ()  # created but not active
        epochs.activate(epoch)
        assert epochs.active_requests() == ("r1",)

    def test_activation_never_goes_backwards(self):
        epochs = EpochManager()
        first = epochs.create_epoch(("r1",))
        second = epochs.create_epoch(("r1", "r2"))
        epochs.activate(second)
        epochs.activate(first)  # stale TRACK: ignored
        assert epochs.active_requests() == ("r1", "r2")

    def test_activate_none_is_noop(self):
        epochs = EpochManager()
        epochs.activate(None)
        assert epochs.active_requests() == ()

    def test_learn_epoch(self):
        epochs = EpochManager()
        epochs.learn_epoch(5, ("a", "b"))
        epochs.activate(5)
        assert epochs.active_requests() == ("a", "b")

    def test_unknown_epoch_rejected(self):
        epochs = EpochManager()
        with pytest.raises(KeyError):
            epochs.activate(99)

    def test_pruning_drops_stale_epochs(self):
        epochs = EpochManager()
        first = epochs.create_epoch(("r1",))
        second = epochs.create_epoch(("r2",))
        epochs.activate(second)
        assert first not in epochs._epochs


class TestDemultiplexer:
    def make(self, request_ids):
        epochs = EpochManager()
        epoch = epochs.create_epoch(tuple(request_ids))
        epochs.activate(epoch)
        return SymmetricDemultiplexer(epochs), epochs

    def test_fifo_serves_front_request(self):
        demux, _ = self.make(["a", "b"])
        assert [demux.next_request() for _ in range(4)] == ["a", "a", "a", "a"]

    def test_empty_epoch_returns_none(self):
        demux, _ = self.make([])
        assert demux.next_request() is None

    def test_finished_requests_skipped(self):
        demux, _ = self.make(["a", "b"])
        demux.mark_finished("a")
        assert [demux.next_request() for _ in range(3)] == ["b", "b", "b"]

    def test_two_ends_stay_consistent_even_with_different_pair_streams(self):
        """The FIFO rule agrees regardless of how many pairs each end has
        seen — the property index-rotation schemes lack."""
        demux_head, _ = self.make(["a", "b", "c"])
        demux_tail, _ = self.make(["a", "b", "c"])
        for _ in range(7):
            demux_head.next_request()  # head saw extra pairs (offset)
        assert demux_head.next_request() == demux_tail.next_request()
        demux_head.mark_finished("a")
        demux_tail.mark_finished("a")
        assert demux_head.next_request() == demux_tail.next_request() == "b"

    def test_cross_check(self):
        demux, _ = self.make(["a", "b"])
        assert demux.cross_check("a", "a")
        assert not demux.cross_check("a", "b")
        assert demux.cross_check_failures == 1

    def test_arrival_order_respected(self):
        epochs = EpochManager()
        epoch = epochs.create_epoch(("z_first", "a_second"))
        epochs.activate(epoch)
        demux = SymmetricDemultiplexer(epochs)
        assert demux.next_request() == "z_first"  # arrival order, not sorted


class TestPolicer:
    def test_accepts_within_capacity(self):
        policer = Policer(max_eer=10.0)
        assert policer.admit(UserRequest(rate=5.0, request_id="a")) == PolicerDecision.ACCEPT
        assert policer.allocated_eer == 5.0

    def test_rejects_impossible_request(self):
        policer = Policer(max_eer=10.0)
        assert policer.admit(UserRequest(rate=20.0, request_id="a")) == PolicerDecision.REJECT
        # Rejection reserves nothing.
        assert policer.allocated_eer == 0.0

    def test_queues_when_full(self):
        policer = Policer(max_eer=10.0)
        policer.admit(UserRequest(rate=8.0, request_id="a"))
        decision = policer.admit(UserRequest(rate=5.0, request_id="b"))
        assert decision == PolicerDecision.QUEUE
        assert policer.queued == 1

    def test_fifo_shaping(self):
        policer = Policer(max_eer=10.0)
        first = UserRequest(rate=8.0, request_id="first")
        policer.admit(first)
        second = UserRequest(rate=5.0, request_id="second")
        policer.admit(second)
        third = UserRequest(rate=1.0, request_id="third")
        policer.admit(third)  # queues behind second (FIFO, no overtaking)
        assert policer.queued == 2
        assert policer.next_startable() is None  # still full
        policer.release(first.request_id)
        assert policer.next_startable() is second
        assert policer.next_startable() is third
        assert policer.next_startable() is None

    def test_zero_eer_requests_always_fit(self):
        policer = Policer(max_eer=1.0)
        for index in range(5):
            request = UserRequest(num_pairs=3, request_id=f"r{index}")
            assert policer.admit(request) == PolicerDecision.ACCEPT

    def test_drop_queued(self):
        policer = Policer(max_eer=10.0)
        policer.admit(UserRequest(rate=9.0, request_id="active"))
        queued = UserRequest(rate=5.0, request_id="queued")
        policer.admit(queued)
        assert policer.drop_queued(queued.request_id)
        assert not policer.drop_queued("ghost")

    def test_validation(self):
        with pytest.raises(ValueError):
            Policer(max_eer=0.0)
