"""Unit tests for classical channels."""

import pytest

from repro.netsim import (
    ClassicalChannel,
    MS,
    Simulator,
    fibre_delay,
    fibre_transmissivity,
)
from repro.netsim.ports import subscribe


def make_channel(sim, **kwargs):
    """A channel with an inbox and an injecting adapter on each side."""
    channel = ClassicalChannel(sim, **kwargs)
    inbox_a, inbox_b = [], []
    end_a = subscribe(channel.port("a"), inbox_a.append)
    end_b = subscribe(channel.port("b"), inbox_b.append)
    return channel, (end_a, end_b), inbox_a, inbox_b


def test_message_arrives_with_propagation_delay():
    sim = Simulator()
    _, (end_a, _), _, inbox_b = make_channel(sim, length_km=2.0)
    end_a.io.tx("hello")
    sim.run()
    assert inbox_b == ["hello"]
    assert sim.now == pytest.approx(fibre_delay(2.0))


def test_bidirectional_delivery():
    sim = Simulator()
    _, (end_a, end_b), inbox_a, inbox_b = make_channel(sim, length_km=1.0)
    end_a.io.tx("to-b")
    end_b.io.tx("to-a")
    sim.run()
    assert inbox_a == ["to-a"]
    assert inbox_b == ["to-b"]


def test_in_order_delivery():
    sim = Simulator()
    _, (end_a, _), _, inbox_b = make_channel(sim, length_km=5.0)
    for i in range(20):
        sim.schedule(i * 10.0, end_a.io.tx, i)
    sim.run()
    assert inbox_b == list(range(20))


def test_processing_delay_added():
    sim = Simulator()
    channel = ClassicalChannel(sim, length_km=0.0, processing_delay=3 * MS)
    received_at = []
    end_a = subscribe(channel.port("a"), lambda m: None)
    subscribe(channel.port("b"), lambda m: received_at.append(sim.now))
    end_a.io.tx("x")
    sim.run()
    assert received_at == [3 * MS]


def test_processing_delay_change_does_not_reorder():
    # If the delay shrinks mid-flight, later messages must not overtake
    # earlier ones (TCP stream semantics).
    sim = Simulator()
    channel, (end_a, _), _, inbox_b = make_channel(
        sim, length_km=0.0, processing_delay=10 * MS)
    end_a.io.tx("first")

    def shrink_and_send():
        channel.processing_delay = 0.0
        end_a.io.tx("second")

    sim.schedule(1 * MS, shrink_and_send)
    sim.run()
    assert inbox_b == ["first", "second"]


def test_send_without_receiver_raises():
    sim = Simulator()
    channel = ClassicalChannel(sim)
    subscribe(channel.port("a"), lambda m: None).io.tx("x")
    with pytest.raises(RuntimeError):
        sim.run()


def test_fibre_transmissivity_values():
    # 5 dB/km lab fibre: 1 km → 10^-0.5.
    assert fibre_transmissivity(1.0, 5.0) == pytest.approx(10 ** -0.5)
    # 25 km telecom fibre at 0.5 dB/km → 10^-1.25.
    assert fibre_transmissivity(25.0, 0.5) == pytest.approx(10 ** -1.25)
