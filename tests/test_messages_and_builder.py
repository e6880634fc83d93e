"""Light unit tests: message dataclasses and the Network facade internals."""

from repro.core.messages import Complete, Direction, Expire, Forward, Track
from repro.core.requests import (
    DeliveryStatus,
    PairDelivery,
    RequestHandle,
    RequestType,
    UserRequest,
)
from repro.network.builder import MatchedPair, Network, _Submission
from repro.obs import MetricsRegistry
from repro.quantum import BellIndex


def bare_network():
    """A Network shell for matching-logic unit tests: no topology, just
    the attributes ``_match`` touches (fidelity histogram, no tracer)."""
    net = Network.__new__(Network)
    net.obs = MetricsRegistry()
    net._h_fidelity = net.obs.histogram("traffic.fidelity")
    net.tracer = None
    return net


def make_forward(**overrides):
    fields = dict(
        circuit_id="vc0", request_id="r0", head_end_identifier=1,
        tail_end_identifier=2, request_type=RequestType.KEEP,
        measure_info=None, number_of_pairs=3, final_state=None, rate=0.0)
    fields.update(overrides)
    return Forward(**fields)


class TestMessages:
    def test_forward_defaults(self):
        forward = make_forward()
        assert forward.rate_based_only is False
        assert forward.epoch == 0
        assert forward.epoch_requests == ()

    def test_complete_carries_epoch(self):
        complete = Complete(circuit_id="vc0", request_id="r0",
                            head_end_identifier=1, tail_end_identifier=2,
                            rate=5.0, epoch=7, epoch_requests=("a",))
        assert complete.epoch == 7
        assert complete.epoch_requests == ("a",)

    def test_track_mutable_fields(self):
        track = Track(circuit_id="vc0", direction=Direction.DOWNSTREAM,
                      request_id="r0", head_end_identifier=1,
                      tail_end_identifier=2,
                      origin_correlator=("l", 0),
                      link_correlator=("l", 0),
                      outcome_state=BellIndex.PSI_PLUS, epoch=1)
        track.link_correlator = ("m", 4)
        track.outcome_state = BellIndex.PHI_MINUS
        assert track.origin_correlator == ("l", 0)

    def test_expire_direction(self):
        expire = Expire(circuit_id="vc0", direction=Direction.UPSTREAM,
                        origin_correlator=("l", 0))
        assert expire.direction.reverse is Direction.DOWNSTREAM


def make_submission(**fields):
    """A submission whose ``on_matched`` consumer collects the matched
    pairs into the returned list."""
    matched = []
    submission = _Submission(handle=RequestHandle(UserRequest(num_pairs=2)),
                             on_matched=matched.append, **fields)
    return submission, matched


def make_delivery(pair_id, status=DeliveryStatus.CONFIRMED, qubit=None):
    return PairDelivery(request_id="r0", sequence=0, status=status,
                        qubit=qubit, measurement=None,
                        bell_state=BellIndex.PHI_PLUS, pair_id=pair_id,
                        t_created=0.0, t_delivered=1.0)


class TestSubmissionMatching:
    def test_matching_requires_both_ends(self):
        submission, matched_pairs = make_submission(record_fidelity=True)
        net = bare_network()  # matching logic only
        net._match(submission, make_delivery(("p", 0)), is_head=True)
        assert matched_pairs == []
        net._match(submission, make_delivery(("p", 0)), is_head=False)
        assert len(matched_pairs) == 1
        matched = matched_pairs[0]
        assert isinstance(matched, MatchedPair)
        assert matched.fidelity is None  # no qubits attached
        assert matched.accepted
        assert submission.handle.fidelities == []

    def test_distinct_pair_ids_do_not_match(self):
        submission, matched_pairs = make_submission(record_fidelity=True)
        net = bare_network()
        net._match(submission, make_delivery(("p", 0)), is_head=True)
        net._match(submission, make_delivery(("p", 1)), is_head=False)
        assert matched_pairs == []

    def test_matching_disabled_without_recording(self):
        submission, matched_pairs = make_submission(record_fidelity=False)
        net = bare_network()
        net._match(submission, make_delivery(("p", 0)), is_head=True)
        net._match(submission, make_delivery(("p", 0)), is_head=False)
        assert matched_pairs == []

    def test_oracle_accepts_and_rejects(self):
        from repro.quantum import bell_dm, create_pair, werner_dm

        submission, matched_pairs = make_submission(record_fidelity=True,
                                                    oracle_min_fidelity=0.9)
        net = bare_network()
        good_a, good_b = create_pair(bell_dm(0))
        net._match(submission, make_delivery(("p", 0), qubit=good_a),
                   is_head=True)
        net._match(submission, make_delivery(("p", 0), qubit=good_b),
                   is_head=False)
        bad_a, bad_b = create_pair(werner_dm(0.6))
        net._match(submission, make_delivery(("p", 1), qubit=bad_a),
                   is_head=True)
        net._match(submission, make_delivery(("p", 1), qubit=bad_b),
                   is_head=False)
        accepted = [m.accepted for m in matched_pairs]
        assert accepted == [True, False]
        # The handle keeps the fidelities, in match order.
        assert submission.handle.fidelities == [
            m.fidelity for m in matched_pairs]
        # Qubits were consumed after measurement to avoid state build-up.
        assert good_a.state is None and bad_b.state is None

    def test_pending_deliveries_not_matched(self):
        submission, _ = make_submission(record_fidelity=True)
        submission.head_delivery(make_delivery(
            ("p", 0), status=DeliveryStatus.PENDING))
        assert submission._pending == {}
