"""The classical path of one QNP message, from send to rule.

Each hop of the path is resolved when the network is wired, so a
FORWARD, COMPLETE, TRACK or EXPIRE costs the same few Python calls: the
channel end's send, ``Simulator.post_at``, ``EventHandle._fire``, the
receiving agent's ``_on_message`` and the rule.  The test follows every
message of a short run under :func:`sys.setprofile` and counts the
``repro`` calls from entry into ``_send_circuit_message`` to entry into
the rule at the neighbour.  When every message still crossed three
``Port.tx`` hops, the channel's per-side handlers, the node's
demultiplexer and an unpack shim per agent, it took 13.
"""

import os
import sys

import pytest

import repro
from repro.core import RequestStatus, UserRequest
from repro.netsim import MS, PortAlreadyConnectedError, PortNotConnectedError
from repro.network.builder import build_chain_network

#: ``repro`` calls allowed per message, the rule included.
CALLS_PER_MESSAGE_BOUND = 5

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_RULES = frozenset({"_on_forward", "_on_complete", "_on_track", "_on_expire"})


def _carries(args, message) -> bool:
    """Whether an event's arguments hold ``message``, at any tuple depth."""
    return any(arg is message or (isinstance(arg, tuple) and _carries(arg, message))
               for arg in args)


def _calls_per_message(run):
    """Run ``run()`` and return ``{kind: [calls of each message]}``."""
    sending = []      # [message, calls] of the open _send_circuit_message frames
    in_flight = []    # [message, calls] sent and not yet delivered
    delivering = []   # the [message, calls] whose event is firing, if any
    done = {}

    def profile(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(_PACKAGE):
            return
        name = code.co_name
        if event == "return":
            if name == "_send_circuit_message" and sending:
                in_flight.append(sending.pop())
            return
        if event != "call" or frame.f_back.f_code.co_name == "post_at":
            # What post_at calls is the kernel's own: on an empty handle
            # pool it builds an EventHandle, which the soak budget counts.
            return
        if delivering:
            delivering[0][1] += 1
            if name in _RULES:
                message, calls = delivering.pop()
                done.setdefault(type(message).__name__.upper(), []).append(calls)
            return
        if sending:
            sending[-1][1] += 1
        if name == "_send_circuit_message":
            sending.append([frame.f_locals["message"], 0])
        elif name == "_fire":
            args = frame.f_locals["self"].args
            for index, (message, calls) in enumerate(in_flight):
                if _carries(args, message):
                    del in_flight[index]
                    delivering.append([message, calls + 1])
                    break

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return done


def test_each_qnp_message_reaches_its_rule_in_five_calls():
    net = build_chain_network(3, seed=1)
    # A 3 ms cutoff against ~5 ms generation: the middle node discards
    # pairs, so EXPIRE flows beside FORWARD, COMPLETE and TRACK.
    circuit_id = net.establish_circuit("node0", "node2", 0.8, cutoff_policy=3 * MS)
    handle = net.submit(circuit_id, UserRequest(num_pairs=3))

    def run():
        net.run_until_complete([handle], timeout_s=300)
        # The head's COMPLETE is still in flight when the request finishes.
        net.run(until_s=net.sim.now / 1e9 + 0.05)

    done = _calls_per_message(run)
    assert handle.status == RequestStatus.COMPLETED
    assert set(done) == {"FORWARD", "COMPLETE", "TRACK", "EXPIRE"}
    worst = {kind: max(calls) for kind, calls in done.items()}
    assert all(calls <= CALLS_PER_MESSAGE_BOUND for calls in worst.values()), worst


def test_sending_an_unserved_kind_names_the_node_and_kind():
    net = build_chain_network(2, seed=1)
    with pytest.raises(PortNotConnectedError) as err:
        net.node("node0").channel_end("node1", "telemetry")
    message = str(err.value)
    assert "node1" in message and "telemetry" in message


def test_a_kind_is_served_by_one_agent():
    net = build_chain_network(2, seed=1)
    node = net.node("node0")
    with pytest.raises(PortAlreadyConnectedError) as err:
        node.serve("qnp", net.qnps["node0"]._on_message)
    assert "node0" in str(err.value) and "qnp" in str(err.value)
