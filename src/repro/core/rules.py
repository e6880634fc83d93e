"""The QNP rules — Algorithms 1–9 of Appendix C.

Three rule sets, all triggered by link-pair deliveries, TRACK messages,
EXPIRE messages or cutoff timers:

* **end-node rules** (head Algs 1–3, tail Algs 4–6): assign pairs to
  requests, originate TRACKs, deliver pairs/outcomes, handle expiry;
* **intermediate rules** (Algs 7–9): swap as soon as an upstream and a
  downstream pair are available, log swap records, relay TRACKs, discard on
  cutoff.

The rules are written as mixin classes over the shared state and helpers of
:class:`repro.core.qnp.QNPNode`, keeping each algorithm readable next to the
paper's pseudocode.
"""

from __future__ import annotations

from functools import partial

from ..linklayer.service import LinkPairDelivery
from ..quantum.bell import BellIndex, combine
from .circuit import CircuitRole
from .messages import Direction, Expire, Track
from .requests import DeliveryStatus, PairDelivery, RequestType
from .tracker import EndPairState, PairInfo, SwapRecord


class EndNodeRules:
    """Head-end and tail-end rules (Algorithms 1–6)."""

    # ------------------------------------------------------------------
    # LINK rules (Alg 1 head / Alg 4 tail)
    # ------------------------------------------------------------------

    def _end_node_link_rule(self, runtime, delivery: LinkPairDelivery) -> None:
        request_id = runtime.demux.next_request()
        if request_id is None:
            # Pair arrived with no active request (e.g. straggler after
            # COMPLETE): discard immediately so the slot frees up.
            self._discard_local_pair(delivery.entanglement_id)
            return
        record = runtime.requests.get(request_id)
        if record is None:  # pragma: no cover - defensive
            self._discard_local_pair(delivery.entanglement_id)
            return
        state = EndPairState(
            correlator=delivery.entanglement_id,
            request_id=request_id,
            qubit=delivery.qubit,
            bell_index=delivery.bell_index,
            goodness=delivery.goodness,
            t_create=delivery.t_create,
        )
        if self.trace is not None:
            self._emit("LINK_PAIR", correlator=delivery.entanglement_id,
                       request=request_id)
        if record.request_type == RequestType.MEASURE:
            # Measure immediately, withhold the outcome (Sec 4.1 "Early
            # delivery"); the comm slot frees right away.
            bit, _ = self.node.device.measure(delivery.qubit, record.measure_basis)
            state.measurement = bit
            state.qubit = None
            self.node.qmm.free(delivery.entanglement_id)
        elif record.request_type == RequestType.EARLY:
            early = PairDelivery(
                request_id=request_id,
                sequence=record.delivered,
                status=DeliveryStatus.PENDING,
                qubit=delivery.qubit,
                measurement=None,
                bell_state=None,
                pair_id=delivery.entanglement_id,
                t_created=delivery.t_create,
                t_delivered=self.sim._now,
                estimated_fidelity=runtime.entry.estimated_fidelity,
            )
            state.early_delivery = early
            # The application owns the qubit now; the memory slot frees.
            self.node.qmm.free(delivery.entanglement_id)
            self._deliver(runtime, record, early)
        runtime.in_transit[delivery.entanglement_id] = state
        record.in_flight += 1

        is_head = runtime.entry.role == CircuitRole.HEAD
        track = Track(
            circuit_id=runtime.entry.circuit_id,
            direction=Direction.DOWNSTREAM if is_head else Direction.UPSTREAM,
            request_id=request_id,
            head_end_identifier=record.head_end_identifier,
            tail_end_identifier=record.tail_end_identifier,
            origin_correlator=delivery.entanglement_id,
            link_correlator=delivery.entanglement_id,
            outcome_state=delivery.bell_index,
            epoch=runtime.epochs.latest_epoch if is_head else None,
        )
        self._send_circuit_message(runtime, track.direction, track)

    # ------------------------------------------------------------------
    # TRACK rules (Alg 2 head / Alg 5 tail)
    # ------------------------------------------------------------------

    def _end_node_track_rule(self, runtime, track: Track) -> None:
        state = runtime.in_transit.pop(track.link_correlator, None)
        if state is None:
            # Our half is gone (expired, cross-check discard, or dropped as
            # a straggler).  Tell the other end its half is an orphan so it
            # does not wait forever — the EXPIRE semantics of Appendix C.
            self._discard_local_pair(track.link_correlator)
            expire = Expire(
                circuit_id=runtime.entry.circuit_id,
                direction=track.direction.reverse,
                origin_correlator=track.origin_correlator,
            )
            self.expires_sent += 1
            self._send_circuit_message(runtime, expire.direction, expire)
            return
        # A pair in flight keeps its request's record (see QNPNode._retire).
        record = runtime.requests[state.request_id]
        record.in_flight -= 1
        if not runtime.demux.cross_check(state.request_id, track.request_id):
            # Window condition (Sec 4.1 "Aggregation"): ends disagree on the
            # assignment — discard the pair.
            self._drop_end_pair(runtime, record, state, notify_expired=True)
        elif record.number_of_pairs is not None \
                and record.delivered >= record.number_of_pairs:
            # The request filled while this pair was in flight: drop the
            # excess (the demux already stopped assigning to it).
            self._drop_end_pair(runtime, record, state, notify_expired=False)
        else:
            self._end_node_confirm(runtime, record, state, track)
        self._retire(runtime, record)

    def _end_node_confirm(self, runtime, record, state: EndPairState,
                          track: Track) -> None:
        """Deliver a tracked pair (or its outcome) and count it."""
        # Entangled pair identifier (Sec 3.2): both ends know their own
        # correlator and the other end's TRACK origin, so the sorted pair of
        # the two is a shared, unique end-to-end pair ID.
        pair_id = tuple(sorted((state.correlator, track.origin_correlator)))
        final_frame = track.outcome_state
        if type(final_frame) is not BellIndex:
            final_frame = BellIndex(final_frame)
        if state.qubit is not None and record.final_state is not None \
                and runtime.entry.role == CircuitRole.HEAD:
            # Rotate the pair into the requested Bell state (FORWARD's
            # final_state; head-end responsibility per Appendix C.2).
            self.node.device.pauli_correct(
                state.qubit, int(final_frame) ^ int(record.final_state))
            final_frame = record.final_state

        if record.request_type == RequestType.MEASURE:
            delivery = PairDelivery(
                request_id=record.request_id,
                sequence=record.delivered,
                status=DeliveryStatus.CONFIRMED,
                qubit=None,
                measurement=state.measurement,
                bell_state=final_frame,
                pair_id=pair_id,
                t_created=state.t_create,
                t_delivered=self.sim._now,
                estimated_fidelity=runtime.entry.estimated_fidelity,
            )
            self._deliver(runtime, record, delivery)
        elif record.request_type == RequestType.EARLY:
            early = state.early_delivery
            early.status = DeliveryStatus.CONFIRMED
            early.bell_state = final_frame
            early.pair_id = pair_id
            self._deliver(runtime, record, early)
        else:  # KEEP
            delivery = PairDelivery(
                request_id=record.request_id,
                sequence=record.delivered,
                status=DeliveryStatus.CONFIRMED,
                qubit=state.qubit,
                measurement=None,
                bell_state=final_frame,
                pair_id=pair_id,
                t_created=state.t_create,
                t_delivered=self.sim._now,
                estimated_fidelity=runtime.entry.estimated_fidelity,
            )
            # Hand the qubit to the application; the memory slot frees.
            self.node.qmm.free(state.correlator)
            self._deliver(runtime, record, delivery)

        record.delivered += 1
        self.pairs_delivered += 1
        if self.trace is not None:
            self._emit("PAIR", request=record.request_id,
                       bell_state=str(final_frame))
        if runtime.entry.role == CircuitRole.TAIL:
            runtime.epochs.activate(track.epoch)
        if record.number_of_pairs is not None \
                and record.delivered >= record.number_of_pairs:
            runtime.demux.mark_finished(record.request_id)
            if runtime.entry.role == CircuitRole.HEAD:
                self._head_complete_request(runtime, record)

    # ------------------------------------------------------------------
    # EXPIRE rules (Alg 3 head / Alg 6 tail)
    # ------------------------------------------------------------------

    def _end_node_expire_rule(self, runtime, expire: Expire) -> None:
        state = runtime.in_transit.pop(expire.origin_correlator, None)
        if state is None:
            return
        record = runtime.requests[state.request_id]
        record.in_flight -= 1
        self._drop_end_pair(runtime, record, state, notify_expired=True)
        self._retire(runtime, record)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _drop_end_pair(self, runtime, record, state: EndPairState,
                       notify_expired: bool) -> None:
        """Discard an end-node pair after EXPIRE or a failed cross-check."""
        if state.qubit is not None:
            self.node.device.discard(state.qubit)
            self.node.qmm.free(state.correlator)
        if notify_expired and state.early_delivery is not None:
            state.early_delivery.status = DeliveryStatus.EXPIRED
            self._deliver(runtime, record, state.early_delivery)
        self.pairs_expired += 1

    def _discard_local_pair(self, correlator: tuple) -> None:
        qubit = self.node.qmm.get(correlator)
        if qubit is not None:
            self.node.device.discard(qubit)
            self.node.qmm.free(correlator)


class IntermediateRules:
    """Intermediate node rules (Algorithms 7–9)."""

    # ------------------------------------------------------------------
    # LINK rule (Alg 7)
    # ------------------------------------------------------------------

    def _intermediate_link_rule(self, runtime, delivery: LinkPairDelivery,
                                from_upstream: bool) -> None:
        direction_state = runtime.upstream if from_upstream else runtime.downstream
        if self.trace is not None:
            self._emit("LINK_PAIR", correlator=delivery.entanglement_id,
                       side="up" if from_upstream else "down",
                       circuit=runtime.entry.circuit_id)
        pair = PairInfo(
            correlator=delivery.entanglement_id,
            qubit=delivery.qubit,
            bell_index=delivery.bell_index,
            goodness=delivery.goodness,
            t_create=delivery.t_create,
        )
        if runtime.entry.cutoff is not None:
            pair.timer = self.sim.schedule(runtime.entry.cutoff,
                                           self._cutoff_rule, runtime,
                                           direction_state, pair)
        direction_state.available.append(pair)
        if not self.node.params.parallel_links:
            other = runtime.downstream if from_upstream else runtime.upstream
            if not other.available:
                # Near-term hardware: park the pair in carbon storage so the
                # communication qubit frees up for the other link (Sec 5.3).
                self._move_pair_to_storage(pair)
        self._try_swaps(runtime)
        self._update_link_priorities(runtime)

    def _try_swaps(self, runtime) -> None:
        """Swap as soon as pairs are available on both links — without any
        further classical communication (Sec 4.1)."""
        while runtime.upstream.available and runtime.downstream.available:
            if self.blocking_tracking:
                # Ablation mode: refuse to swap until the tracking message
                # for the upstream pair has arrived (hop-by-hop style).
                head_corr = runtime.upstream.available[0].correlator
                if head_corr not in runtime.upstream.pending_tracks:
                    return
            up = runtime.upstream.pop_oldest()
            down = runtime.downstream.pop_oldest()
            up.cancel_timer()
            down.cancel_timer()
            self.node.arbiter.acquire(
                partial(self._perform_swap, runtime, up, down))

    def _perform_swap(self, runtime, up: PairInfo, down: PairInfo) -> None:
        outcome, duration = self.node.device.bell_state_measurement(
            up.qubit, down.qubit)
        self.swaps_performed += 1
        if self.trace is not None:
            self._emit("SWAP", up=up.correlator, down=down.correlator,
                       outcome=outcome, circuit=runtime.entry.circuit_id)
        self.sim.schedule(duration, self._complete_swap, runtime, up, down,
                          outcome)

    def _complete_swap(self, runtime, up: PairInfo, down: PairInfo,
                       outcome: int) -> None:
        self.node.arbiter.release()
        # The two local qubits were measured out: their slots free now.
        self.node.qmm.free(up.correlator)
        self.node.qmm.free(down.correlator)

        # Downstream-travelling TRACKs reference the upstream pair.
        record_up = SwapRecord(continuation_correlator=down.correlator,
                               frame_delta=int(down.bell_index) ^ outcome)
        pending = runtime.upstream.take_pending_track(up.correlator)
        if pending is not None:
            self._relay_track(runtime, pending, record_up)
        else:
            runtime.upstream.qubit_records[up.correlator] = record_up

        # Upstream-travelling TRACKs reference the downstream pair.
        record_down = SwapRecord(continuation_correlator=up.correlator,
                                 frame_delta=int(up.bell_index) ^ outcome)
        pending = runtime.downstream.take_pending_track(down.correlator)
        if pending is not None:
            self._relay_track(runtime, pending, record_down)
        else:
            runtime.downstream.qubit_records[down.correlator] = record_down

        self._try_swaps(runtime)
        self._update_link_priorities(runtime)

    # ------------------------------------------------------------------
    # TRACK rule (Alg 8)
    # ------------------------------------------------------------------

    def _intermediate_track_rule(self, runtime, track: Track) -> None:
        direction_state = (runtime.upstream if track.direction == Direction.DOWNSTREAM
                           else runtime.downstream)
        correlator = track.link_correlator
        record = direction_state.qubit_records.pop(correlator, None)
        if record is not None:
            self._relay_track(runtime, track, record)
            return
        if correlator in direction_state.expire_records:
            direction_state.expire_records.discard(correlator)
            self._send_expire(runtime, track)
            return
        # Swap not performed yet (pair still waiting or swap in flight):
        # park the TRACK until the swap completes or the qubit expires.
        direction_state.pending_tracks[correlator] = track
        if self.blocking_tracking:
            self._try_swaps(runtime)

    def _relay_track(self, runtime, track: Track, record: SwapRecord) -> None:
        track.link_correlator = record.continuation_correlator
        track.outcome_state = combine(track.outcome_state, record.frame_delta)
        self.tracks_relayed += 1
        self._send_circuit_message(runtime, track.direction, track)

    def _send_expire(self, runtime, track: Track) -> None:
        """Bounce an EXPIRE back to the TRACK's origin end-node."""
        expire = Expire(
            circuit_id=runtime.entry.circuit_id,
            direction=track.direction.reverse,
            origin_correlator=track.origin_correlator,
        )
        self.expires_sent += 1
        self._send_circuit_message(runtime, expire.direction, expire)

    # ------------------------------------------------------------------
    # Expiry rule (Alg 9)
    # ------------------------------------------------------------------

    def _cutoff_rule(self, runtime, direction_state, pair: PairInfo) -> None:
        removed = direction_state.remove(pair.correlator)
        if removed is None:
            return  # already committed to a swap
        self.node.device.discard(pair.qubit)
        self.node.qmm.free(pair.correlator)
        self.pairs_discarded += 1
        if self.trace is not None:
            self._emit("CUTOFF_DISCARD", correlator=pair.correlator,
                       circuit=runtime.entry.circuit_id)
        pending = direction_state.take_pending_track(pair.correlator)
        if pending is not None:
            self._send_expire(runtime, pending)
        else:
            direction_state.expire_records.add(pair.correlator)
        self._update_link_priorities(runtime)

    # ------------------------------------------------------------------
    # Coordinated link scheduling (the Sec 5.1 "improved scheduling" fix)
    # ------------------------------------------------------------------

    def _update_link_priorities(self, runtime) -> None:
        """Tell each adjacent link whether this circuit should be served
        preferentially: boost a link exactly when the *other* link already
        holds an unmatched pair for the circuit (a pair produced now can be
        swapped immediately).  Disabled by default — the paper's evaluation
        runs the plain independent-links scheduler."""
        if not self.coordinated_scheduling:
            return
        entry = runtime.entry
        has_upstream = bool(runtime.upstream.available)
        has_downstream = bool(runtime.downstream.available)
        if entry.downstream_link is not None:
            self.node.links[entry.downstream_link].set_priority(
                entry.downstream_link_label, self.node.name,
                boosted=has_upstream and not has_downstream)
        if entry.upstream_link is not None:
            self.node.links[entry.upstream_link].set_priority(
                entry.upstream_link_label, self.node.name,
                boosted=has_downstream and not has_upstream)

    # ------------------------------------------------------------------
    # Near-term storage management
    # ------------------------------------------------------------------

    def _move_pair_to_storage(self, pair: PairInfo) -> None:
        storage_slot = self.node.qmm.try_acquire_storage()
        if storage_slot is None:
            return  # no carbon free: the pair stays on the comm qubit
        duration = self.node.device.move_to_storage(pair.qubit)
        self.node.qmm.rebind_slot(pair.qubit, storage_slot)
        # The device is busy for the move's duration.
        self.node.arbiter.acquire(partial(self._hold_device, duration))

    def _hold_device(self, duration: float) -> None:
        """Occupy the arbitrated device for ``duration`` ns, then release."""
        self.sim.schedule(duration, self.node.arbiter.release)
