"""repro — a full reproduction of "Designing a Quantum Network Protocol".

Kozlowski, Dahlberg & Wehner, CoNEXT 2020 (arXiv:2010.02575).

The package implements the Quantum Network Protocol (QNP) — a connection
oriented quantum data plane protocol that produces end-to-end entangled
pairs — together with every substrate it depends on:

* :mod:`repro.netsim` — a discrete-event simulation kernel,
* :mod:`repro.quantum` — an exact density-matrix quantum engine,
* :mod:`repro.hardware` — NV-centre hardware and fibre models,
* :mod:`repro.linklayer` — the link layer entanglement generation service,
* :mod:`repro.network` — node/memory/topology assembly,
* :mod:`repro.control` — routing, signalling and circuit liveness,
* :mod:`repro.core` — the QNP itself (the paper's contribution),
* :mod:`repro.services` — applications built on the QNP,
* :mod:`repro.analysis` — experiment and statistics helpers.

Quickstart::

    from repro import build_chain_network, UserRequest

    net = build_chain_network(num_nodes=3, seed=1)
    circuit = net.establish_circuit("node0", "node2", target_fidelity=0.8)
    handle = net.submit(circuit, UserRequest(num_pairs=5))
    handle.on_delivery(lambda pair: print(pair.bell_state,
                                          pair.estimated_fidelity))
    net.run(until_s=20)
    print(handle.pairs_confirmed, "pairs confirmed")

The convenience names below are imported lazily (PEP 562) so that the light
subpackages (``repro.netsim``, ``repro.quantum``) can be used without paying
for the whole stack.
"""

__version__ = "1.0.0"

_LAZY_EXPORTS = {
    "UserRequest": ("repro.core.requests", "UserRequest"),
    "RequestType": ("repro.core.requests", "RequestType"),
    "Network": ("repro.network.builder", "Network"),
    "build_chain_network": ("repro.network.builder", "build_chain_network"),
    "build_dumbbell_network": ("repro.network.builder", "build_dumbbell_network"),
    "build_near_term_chain": ("repro.network.builder", "build_near_term_chain"),
}

__all__ = ["__version__", *_LAZY_EXPORTS]


def __getattr__(name):
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(__all__)
