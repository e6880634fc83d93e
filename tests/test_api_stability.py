"""API-stability snapshot for the wiring layer.

The component-and-port API is the seam every layer of the stack plugs
into, so accidental signature drift breaks downstream wiring silently.
This test pins the public signatures of the wiring layer (ports, nodes,
channels, links, the builder and the heralding models) against a
committed JSON snapshot.

When a change is *intentional*, regenerate the snapshot and commit it
together with the code change::

    PYTHONPATH=src python tests/test_api_stability.py

``from __future__ import annotations`` keeps every annotation a plain
string, so the rendered signatures are identical across supported
Python versions.
"""

import inspect
import json
import pathlib
from functools import cached_property

SNAPSHOT = pathlib.Path(__file__).with_name("api_snapshot.json")

REGEN_HINT = ("signature drift in the wiring layer; if intentional, "
              "regenerate with: PYTHONPATH=src python "
              "tests/test_api_stability.py")


def _targets():
    from repro.hardware.heralded import MidpointHeraldModel, SingleClickModel
    from repro.linklayer.egp import Link
    from repro.netsim.channels import ChannelEnd, ClassicalChannel
    from repro.netsim.ports import (
        CallbackComponent,
        Component,
        Port,
        connect,
        subscribe,
    )
    from repro.network.builder import Network, build_network_from_graph
    from repro.network.node import QuantumNode

    return {
        "netsim.ports.Port": Port,
        "netsim.ports.Component": Component,
        "netsim.ports.CallbackComponent": CallbackComponent,
        "netsim.ports.connect": connect,
        "netsim.ports.subscribe": subscribe,
        "netsim.channels.ChannelEnd": ChannelEnd,
        "netsim.channels.ClassicalChannel": ClassicalChannel,
        "network.node.QuantumNode": QuantumNode,
        "network.builder.Network": Network,
        "network.builder.build_network_from_graph": build_network_from_graph,
        "linklayer.egp.Link": Link,
        "hardware.heralded.SingleClickModel": SingleClickModel,
        "hardware.heralded.MidpointHeraldModel": MidpointHeraldModel,
    }


def _class_api(cls) -> dict:
    members = {}
    for name, member in sorted(vars(cls).items()):
        if name.startswith("_") and name != "__init__":
            continue
        if inspect.isfunction(member):
            members[name] = f"def {str(inspect.signature(member))}"
        elif isinstance(member, property):
            members[name] = "property"
        elif isinstance(member, cached_property):
            members[name] = "cached_property"
        elif isinstance(member, (classmethod, staticmethod)):
            members[name] = (f"{type(member).__name__} "
                             f"{str(inspect.signature(member.__func__))}")
    return {
        "kind": "class",
        "bases": [base.__name__ for base in cls.__bases__],
        "members": members,
    }


def current_api() -> dict:
    """Render the wiring layer's public signatures as plain data."""
    api = {}
    for label, target in _targets().items():
        if inspect.isclass(target):
            api[label] = _class_api(target)
        else:
            api[label] = {
                "kind": "function",
                "signature": f"def {str(inspect.signature(target))}",
            }
    return api


def test_wiring_api_matches_snapshot():
    assert SNAPSHOT.exists(), f"missing {SNAPSHOT.name}; {REGEN_HINT}"
    recorded = json.loads(SNAPSHOT.read_text())
    live = current_api()
    assert live == recorded, REGEN_HINT


if __name__ == "__main__":
    SNAPSHOT.write_text(
        json.dumps(current_api(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {SNAPSHOT}")
