"""Golden-value regression tests for the routing fidelity budget.

These pin the controller's numeric outputs for canonical inputs so that
any change to the physics models or the budget algorithm shows up as an
explicit diff, not a silent drift of every benchmark.
"""

import gc
import weakref

import pytest

from repro.control import routing
from repro.control.routing import RouteError
from repro.hardware.parameters import SIMULATION
from repro.netsim.scheduler import Simulator
from repro.netsim.units import MS
from repro.network.builder import (
    Network,
    build_chain_network,
    build_dumbbell_network,
)
from repro.quantum import qubit


@pytest.fixture(scope="module")
def chain3():
    return build_chain_network(3, seed=1)


@pytest.fixture(scope="module")
def dumbbell():
    return build_dumbbell_network(seed=1)


class TestGoldenChain3:
    """Two links, one repeater, simulation parameters, 2 m fibre."""

    def test_budget_for_f08(self, chain3):
        route = chain3.controller.compute_route("node0", "node2", 0.8)
        assert route.link_fidelity == pytest.approx(0.9077, abs=0.003)
        assert route.cutoff == pytest.approx(907 * MS, rel=0.05)
        assert route.estimated_fidelity == pytest.approx(0.800, abs=0.002)
        assert route.max_lpr == pytest.approx(188, rel=0.05)

    def test_budget_for_f09(self, chain3):
        route = chain3.controller.compute_route("node0", "node2", 0.9)
        assert route.link_fidelity == pytest.approx(0.9653, abs=0.003)
        assert route.estimated_fidelity >= 0.9

    def test_short_cutoff_value(self, chain3):
        route = chain3.controller.compute_route("node0", "node2", 0.8, "short")
        # 0.85 generation quantile at the (relaxed) link fidelity: ~10 ms.
        assert 4 * MS < route.cutoff < 25 * MS
        assert route.link_fidelity < 0.9077  # relaxed vs the loss cutoff


class TestGoldenDumbbell:
    """Three links A0-MA-MB-B0."""

    def test_budget_for_f08(self, dumbbell):
        route = dumbbell.controller.compute_route("A0", "B0", 0.8)
        assert route.num_links == 3
        assert route.link_fidelity == pytest.approx(0.9436, abs=0.004)
        assert route.estimated_fidelity == pytest.approx(0.800, abs=0.002)

    def test_eer_below_lpr_for_short_cutoff(self, dumbbell):
        route = dumbbell.controller.compute_route("A0", "B0", 0.8, "short")
        assert route.eer == pytest.approx(route.max_lpr * 0.85, rel=0.01)


class TestGoldenLinkModel:
    def test_f095_alpha_and_rate(self, chain3):
        link = chain3.link_between("node0", "node1")
        alpha = link.model.alpha_for_fidelity(0.95)
        assert alpha == pytest.approx(0.0455, abs=0.004)
        assert link.model.expected_pair_time(alpha) == pytest.approx(
            10.2 * MS, rel=0.1)

    def test_cycle_time(self, chain3):
        link = chain3.link_between("node0", "node1")
        assert link.model.cycle_time == pytest.approx(10.55e3, rel=0.02)

    def test_fidelity_ceiling(self, chain3):
        link = chain3.link_between("node0", "node1")
        best = max(link.model.fidelity(a) for a in
                   (0.001, 0.002, 0.005, 0.01, 0.02, 0.05))
        assert best == pytest.approx(0.985, abs=0.01)


# ----------------------------------------------------------------------
# Bit-exact budget pins
# ----------------------------------------------------------------------

#: (physical model, cutoff policy, target, links) → (link_fidelity, cutoff)
#: as float hex, or None when no budget exists.  Recorded from the
#: general-engine swap map; the precomputed swap kernel and the α-keyed
#: evaluation memo must reproduce every bit.
BUDGET_PINS = {
    ("analytic", "short", 0.7, 1): ("0x1.6666666666f93p-1", "0x1.e51a280000000p+21"),
    ("analytic", "short", 0.7, 2): ("0x1.a8cfbcd03f209p-1", "0x1.6b81440000000p+22"),
    ("analytic", "short", 0.7, 3): ("0x1.c3da89f3eb855p-1", "0x1.f153840000000p+22"),
    ("analytic", "short", 0.7, 4): ("0x1.d2db3e684049cp-1", "0x1.40b8820000000p+23"),
    ("analytic", "short", 0.7, 5): ("0x1.dc1c234e1bba9p-1", "0x1.8cf5d40000000p+23"),
    ("analytic", "short", 0.7, 6): ("0x1.e23eb068420bcp-1", "0x1.dd0f5e0000000p+23"),
    ("analytic", "short", 0.7, 7): ("0x1.e7033a1e60861p-1", "0x1.19f5250000000p+24"),
    ("analytic", "short", 0.7, 8): ("0x1.ea736df71a5a0p-1", "0x1.47278a0000000p+24"),
    ("analytic", "short", 0.9, 1): ("0x1.ccccccccccf94p-1", "0x1.1d55d60000000p+23"),
    ("analytic", "short", 0.9, 2): ("0x1.e6c5fecc45bc2p-1", "0x1.1882900000000p+24"),
    ("analytic", "short", 0.9, 3): ("0x1.f0251dff94714p-1", "0x1.c49ca60000000p+24"),
    ("analytic", "short", 0.9, 4): ("0x1.f507b5368dfd8p-1", "0x1.5a22480000000p+25"),
    ("analytic", "short", 0.9, 5): ("0x1.f828a84b02fb1p-1", "0x1.1ebe1fc000000p+26"),
    ("analytic", "short", 0.9, 6): None,
    ("analytic", "short", 0.9, 7): None,
    ("analytic", "short", 0.9, 8): None,
    ("analytic", "loss", 0.7, 1): ("0x1.6b5df4f94650ap-1", "0x1.b1a4629fd2774p+29"),
    ("analytic", "loss", 0.7, 2): ("0x1.b01afe71fcbedp-1", "0x1.b0d1fe0d3cd40p+29"),
    ("analytic", "loss", 0.7, 3): ("0x1.cba5689feb328p-1", "0x1.b08ee7f49c4a8p+29"),
    ("analytic", "loss", 0.7, 4): ("0x1.daa30818a1029p-1", "0x1.b06e189e1b174p+29"),
    ("analytic", "loss", 0.7, 5): ("0x1.e3fc1c2326201p-1", "0x1.b05aaa6df96e6p+29"),
    ("analytic", "loss", 0.7, 6): ("0x1.ea3f624bfb164p-1", "0x1.b04e106337c4ap+29"),
    ("analytic", "loss", 0.7, 7): ("0x1.eebeeb6337cb4p-1", "0x1.b0453639db0acp+29"),
    ("analytic", "loss", 0.7, 8): ("0x1.f22d962d97f90p-1", "0x1.b03e91474de18p+29"),
    ("analytic", "loss", 0.9, 1): ("0x1.d3ca12bfa29c0p-1", "0x1.b07cd28549990p+29"),
    ("analytic", "loss", 0.9, 2): ("0x1.ee3f31e4f98c2p-1", "0x1.b0462f829a32ep+29"),
    ("analytic", "loss", 0.9, 3): ("0x1.f79587a8121f4p-1", "0x1.b034584211306p+29"),
    ("analytic", "loss", 0.9, 4): None,
    ("analytic", "loss", 0.9, 5): None,
    ("analytic", "loss", 0.9, 6): None,
    ("analytic", "loss", 0.9, 7): None,
    ("analytic", "loss", 0.9, 8): None,
    ("midpoint", "short", 0.7, 1): ("0x1.6666666666f92p-1", "0x1.ecd2980000000p+21"),
    ("midpoint", "short", 0.7, 2): ("0x1.a8cf208b7f909p-1", "0x1.714b980000000p+22"),
    ("midpoint", "short", 0.7, 3): ("0x1.c3d9b4835a380p-1", "0x1.f90bf40000000p+22"),
    ("midpoint", "short", 0.7, 4): ("0x1.d2da2a56fff1ap-1", "0x1.458bc80000000p+23"),
    ("midpoint", "short", 0.7, 5): ("0x1.dc1acd7cedf36p-1", "0x1.9364dc0000000p+23"),
    ("midpoint", "short", 0.7, 6): ("0x1.e23d177231bd6p-1", "0x1.e4c7ce0000000p+23"),
    ("midpoint", "short", 0.7, 7): ("0x1.e70154e2ff42ep-1", "0x1.1e76110000000p+24"),
    ("midpoint", "short", 0.7, 8): ("0x1.ea713b2d5ed80p-1", "0x1.4c4d2a0000000p+24"),
    ("midpoint", "short", 0.9, 1): ("0x1.ccccccccccf94p-1", "0x1.21d6c20000000p+23"),
    ("midpoint", "short", 0.9, 2): ("0x1.e6c41e1f26226p-1", "0x1.1cda4f0000000p+24"),
    ("midpoint", "short", 0.9, 3): ("0x1.f02217013ad0ep-1", "0x1.cbb0620000000p+24"),
    ("midpoint", "short", 0.9, 4): ("0x1.f5031503d122ap-1", "0x1.5f85ab8000000p+25"),
    ("midpoint", "short", 0.9, 5): ("0x1.f82ac70007b2ap-1", "0x1.24dacdc000000p+26"),
    ("midpoint", "short", 0.9, 6): None,
    ("midpoint", "short", 0.9, 7): None,
    ("midpoint", "short", 0.9, 8): None,
    ("midpoint", "loss", 0.7, 1): ("0x1.6b5d89f7f75f4p-1", "0x1.b1a464291296ap+29"),
    ("midpoint", "loss", 0.7, 2): ("0x1.b01a56b8cd7dfp-1", "0x1.b0d1ffc115a14p+29"),
    ("midpoint", "loss", 0.7, 3): ("0x1.cba4774485620p-1", "0x1.b08eea207894ep+29"),
    ("midpoint", "loss", 0.7, 4): ("0x1.daa1bf005d382p-1", "0x1.b06e1b653b514p+29"),
    ("midpoint", "loss", 0.7, 5): ("0x1.e3fa6a832ef09p-1", "0x1.b05aadf35f544p+29"),
    ("midpoint", "loss", 0.7, 6): ("0x1.ea3d34d53850cp-1", "0x1.b04e14ccd4ffcp+29"),
    ("midpoint", "loss", 0.7, 7): ("0x1.eebc274547610p-1", "0x1.b0453bbaf56e4p+29"),
    ("midpoint", "loss", 0.7, 8): ("0x1.f22a10ea87b4ep-1", "0x1.b03e983050206p+29"),
    ("midpoint", "loss", 0.9, 1): ("0x1.d3c8f9563a0dap-1", "0x1.b07cd4f72ed90p+29"),
    ("midpoint", "loss", 0.9, 2): ("0x1.ee3c82b87b1cap-1", "0x1.b04634dcc57f8p+29"),
    ("midpoint", "loss", 0.9, 3): ("0x1.f795d4fea3100p-1", "0x1.b0344dc53230ap+29"),
    ("midpoint", "loss", 0.9, 4): None,
    ("midpoint", "loss", 0.9, 5): None,
    ("midpoint", "loss", 0.9, 6): None,
    ("midpoint", "loss", 0.9, 7): None,
    ("midpoint", "loss", 0.9, 8): None,
}


def _chain(physical: str, num_nodes: int = 9) -> Network:
    net = Network(Simulator(seed=0), SIMULATION, physical=physical)
    names = [f"node{i}" for i in range(num_nodes)]
    for name in names:
        net.add_node(name)
    for left, right in zip(names, names[1:]):
        net.connect(left, right, 0.002)
    net.finalise()
    return net


@pytest.mark.parametrize("physical", ["analytic", "midpoint"])
@pytest.mark.parametrize("policy", ["short", "loss"])
@pytest.mark.parametrize("target", [0.7, 0.9])
def test_budget_bit_identical(physical, policy, target):
    net = _chain(physical)
    for links in range(1, 9):
        expected = BUDGET_PINS[(physical, policy, target, links)]
        if expected is None:
            with pytest.raises(RouteError):
                net.controller.compute_route("node0", f"node{links}",
                                             target, policy)
            continue
        route = net.controller.compute_route("node0", f"node{links}",
                                             target, policy)
        assert (route.link_fidelity.hex(), route.cutoff.hex()) == expected


def test_route_solve_allocates_no_qubits(monkeypatch):
    """A cold solve touches no simulation state: no Qubit is built."""
    monkeypatch.setattr(routing, "_BUDGET_CACHE", {})
    monkeypatch.setattr(routing, "_CEILING_CACHE", {})
    net = build_chain_network(5, seed=1)
    built = []
    original = qubit.Qubit.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(qubit.Qubit, "__init__", counting_init)
    for target in (0.8, 0.9):
        for policy in ("loss", "short"):
            net.controller.compute_route("node0", "node3", target, policy)
    assert built == []


def test_failed_route_does_not_pin_network(monkeypatch):
    """A cached infeasible solve re-raises a fresh RouteError: the cached
    entry must not collect tracebacks that keep failing networks alive."""
    monkeypatch.setattr(routing, "_BUDGET_CACHE", {})

    def fail_once() -> weakref.ref:
        net = build_chain_network(6, seed=1)
        try:
            net.controller.compute_route("node0", "node5", 0.9)
        except RouteError:
            pass
        else:  # pragma: no cover - the pin is that this route fails
            raise AssertionError("expected an infeasible route")
        return weakref.ref(net)

    first = fail_once()   # solves and caches the failure
    second = fail_once()  # hits the cached failure
    gc.collect()
    assert first() is None
    assert second() is None
