"""Tests for the fair-share link scheduler."""

import pytest

from repro.linklayer import FairShareScheduler


def test_add_and_pick_single():
    scheduler = FairShareScheduler()
    scheduler.add("a", 1.0)
    assert scheduler.pick(["a"]) == "a"


def test_pick_prefers_least_served():
    scheduler = FairShareScheduler()
    scheduler.add("a", 1.0)
    scheduler.add("b", 1.0)
    scheduler.charge("a", 100.0)
    assert scheduler.pick(["a", "b"]) == "b"


def test_equal_weights_share_time_equally():
    scheduler = FairShareScheduler()
    scheduler.add("a", 1.0)
    scheduler.add("b", 1.0)
    served = {"a": 0.0, "b": 0.0}
    for _ in range(1000):
        pick = scheduler.pick(["a", "b"])
        scheduler.charge(pick, 10.0)
        served[pick] += 10.0
    assert served["a"] == pytest.approx(served["b"], rel=0.02)


def test_weighted_shares_proportional_to_demand():
    scheduler = FairShareScheduler()
    scheduler.add("heavy", 3.0)
    scheduler.add("light", 1.0)
    served = {"heavy": 0.0, "light": 0.0}
    for _ in range(4000):
        pick = scheduler.pick(["heavy", "light"])
        scheduler.charge(pick, 5.0)
        served[pick] += 5.0
    assert served["heavy"] / served["light"] == pytest.approx(3.0, rel=0.05)


def test_excess_capacity_flows_to_eligible():
    scheduler = FairShareScheduler()
    scheduler.add("a", 1.0)
    scheduler.add("b", 1.0)
    # b never eligible (e.g. blocked on memory): a gets everything.
    for _ in range(10):
        assert scheduler.pick(["a"]) == "a"
        scheduler.charge("a", 10.0)


def test_new_purpose_does_not_starve_existing():
    scheduler = FairShareScheduler()
    scheduler.add("old", 1.0)
    for _ in range(100):
        scheduler.charge("old", 10.0)
    scheduler.add("new", 1.0)
    # The newcomer starts at the current minimum, not at zero.
    picks = []
    for _ in range(10):
        pick = scheduler.pick(["old", "new"])
        scheduler.charge(pick, 10.0)
        picks.append(pick)
    assert "old" in picks  # old still gets service promptly


def test_remove_and_membership():
    scheduler = FairShareScheduler()
    scheduler.add("a", 1.0)
    assert "a" in scheduler._weights
    scheduler.remove("a")
    assert "a" not in scheduler._weights
    with pytest.raises(KeyError):
        scheduler.charge("a", 1.0)


def test_update_weight():
    scheduler = FairShareScheduler()
    scheduler.add("a", 1.0)
    scheduler.update_weight("a", 5.0)
    assert scheduler._weights["a"] == 5.0


def test_validation():
    scheduler = FairShareScheduler()
    with pytest.raises(ValueError):
        scheduler.add("a", 0.0)
    scheduler.add("a", 1.0)
    with pytest.raises(ValueError):
        scheduler.add("a", 1.0)
    with pytest.raises(ValueError):
        scheduler.update_weight("a", -1.0)
    with pytest.raises(ValueError):
        scheduler.charge("a", -1.0)
    with pytest.raises(KeyError):
        scheduler.pick(["ghost"])


def test_pick_empty_returns_none():
    scheduler = FairShareScheduler()
    assert scheduler.pick([]) is None
