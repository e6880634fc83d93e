"""Hypothesis property tests for the kernel and protocol data structures."""

from hypothesis import given, settings, strategies as st

from repro.analysis import Cdf
from repro.core import EpochManager, Policer, PolicerDecision, UserRequest
from repro.linklayer import FairShareScheduler
from repro.netsim import Simulator


# ----------------------------------------------------------------------
# Discrete-event kernel
# ----------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1,
                max_size=60))
@settings(max_examples=60, deadline=None)
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for index, delay in enumerate(delays):
        sim.schedule(delay, lambda d=delay, i=index: fired.append((d, i)))
    sim.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    # Ties keep submission order (FIFO).
    for (t_a, i_a), (t_b, i_b) in zip(fired, fired[1:]):
        if t_a == t_b:
            assert i_a < i_b


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1e6),
                          st.booleans()), min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_cancelled_events_never_fire(plan):
    sim = Simulator()
    fired = []
    handles = []
    for index, (delay, cancel) in enumerate(plan):
        handles.append((sim.schedule(delay, fired.append, index), cancel))
    for handle, cancel in handles:
        if cancel:
            handle.cancel()
    sim.run()
    cancelled = {index for index, (_, cancel) in enumerate(plan) if cancel}
    assert set(fired).isdisjoint(cancelled)
    assert len(fired) == len(plan) - len(cancelled)


# ----------------------------------------------------------------------
# Link scheduler fairness
# ----------------------------------------------------------------------

@given(st.floats(min_value=0.5, max_value=8.0),
       st.floats(min_value=0.5, max_value=8.0),
       st.integers(min_value=200, max_value=600))
@settings(max_examples=25, deadline=None)
def test_fair_share_converges_to_weight_ratio(weight_a, weight_b, rounds):
    scheduler = FairShareScheduler()
    scheduler.add("a", weight_a)
    scheduler.add("b", weight_b)
    served = {"a": 0.0, "b": 0.0}
    for _ in range(rounds):
        pick = scheduler.pick(["a", "b"])
        scheduler.charge(pick, 7.0)
        served[pick] += 7.0
    ratio = served["a"] / served["b"]
    expected = weight_a / weight_b
    assert 0.8 * expected <= ratio <= 1.25 * expected


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=200))
@settings(max_examples=30, deadline=None)
def test_fair_share_work_conserving(eligible_sequence):
    """Whenever someone is eligible, someone is picked."""
    scheduler = FairShareScheduler()
    for name in ("a", "b", "c"):
        scheduler.add(name, 1.0)
    for only in eligible_sequence:
        pick = scheduler.pick([only])
        assert pick == only
        scheduler.charge(pick, 1.0)


# ----------------------------------------------------------------------
# Policing invariants
# ----------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.1, max_value=30.0), min_size=1,
                max_size=30))
@settings(max_examples=40, deadline=None)
def test_policer_never_over_allocates(rates):
    policer = Policer(max_eer=25.0)
    active = []
    for index, rate in enumerate(rates):
        request = UserRequest(rate=rate, request_id=f"r{index}")
        decision = policer.admit(request)
        if decision == PolicerDecision.ACCEPT:
            active.append(request)
        assert policer.allocated_eer <= 25.0 + 1e-9
    # Releasing everything returns all capacity.
    for request in active:
        policer.release(request.request_id)
    while policer.next_startable() is not None:
        assert policer.allocated_eer <= 25.0 + 1e-9


@given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2,
                max_size=20))
@settings(max_examples=30, deadline=None)
def test_policer_queue_drains_in_fifo_order(rates):
    policer = Policer(max_eer=5.0)
    queued_ids = []
    for index, rate in enumerate(rates):
        request = UserRequest(rate=min(rate, 5.0), request_id=f"r{index}")
        decision = policer.admit(request)
        if decision == PolicerDecision.QUEUE:
            queued_ids.append(request.request_id)
    # Free everything, then drain: starts must follow queue order.
    for request_id in list(policer._active):
        policer.release(request_id)
    started = []
    while True:
        request = policer.next_startable()
        if request is None:
            break
        started.append(request.request_id)
        policer.release(request.request_id)
    assert started == queued_ids


# ----------------------------------------------------------------------
# Epoch monotonicity
# ----------------------------------------------------------------------

@given(st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=30)),
                min_size=1, max_size=50))
@settings(max_examples=40, deadline=None)
def test_epoch_activation_is_monotone(operations):
    epochs = EpochManager()
    created = [0]
    # Each epoch holds one distinct request, which names it.
    epoch_of = {(): 0}
    observed = [0]
    for create, pick in operations:
        if create:
            request = f"r{len(created)}"
            created.append(epochs.create_epoch((request,)))
            epoch_of[(request,)] = created[-1]
        else:
            target = created[pick % len(created)]
            epochs.activate(target)
        observed.append(epoch_of[epochs.active_requests()])
    assert observed == sorted(observed)


# ----------------------------------------------------------------------
# CDF consistency
# ----------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                max_size=200))
@settings(max_examples=40, deadline=None)
def test_cdf_quantile_at_consistency(samples):
    cdf = Cdf.from_samples(samples)
    for p in (0.1, 0.5, 0.9, 1.0):
        x = cdf.quantile(p)
        assert cdf.at(x) >= p - 1e-12
    assert cdf.at(cdf.xs[-1]) == 1.0
    assert cdf.at(cdf.xs[0] - 1.0) == 0.0
