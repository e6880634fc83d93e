"""The benchmark's three workloads, each driven through ``repro``'s public API.

A workload is built once per process from the workload seed; each call of
:meth:`Workload.repeat` runs the whole scenario again on freshly built
networks and returns an :class:`Outcome`: the simulated outputs the
benchmark pins, the networks (for registry counts) and the sessions'
recovery tally.

The scenario *structure* (topology, endpoint pairs, cell list) is fixed;
the seed drives the random streams — link generation, session arrivals,
endpoint order, failures — so every seed does comparable work and the
spread across seeds reflects the host, not the scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import campaign, traffic
from repro.campaign import CampaignCell, FaultSpec
from repro.campaign import runner as campaign_runner


@dataclass
class Outcome:
    """What one repetition produced."""

    #: Pinned simulated outputs (see :func:`fingerprint`).
    pairs: int
    sessions: dict
    mean_fidelity: list
    clock_ns: list
    nets: list = field(default_factory=list)
    circuits_recovered: int = 0

    def fingerprint(self) -> dict:
        """The outputs every repetition of one seed must reproduce exactly."""
        return {"pairs": self.pairs, "sessions": self.sessions,
                "mean_fidelity": self.mean_fidelity,
                "clock_ns": self.clock_ns}

    @property
    def sessions_ok_frac(self) -> float:
        return self.sessions["completed"] / self.sessions["submitted"]


_TALLIES = ("submitted", "accepted", "queued", "rejected", "completed")


def _engine_outcome(net, engine, report) -> Outcome:
    sessions = {name: sum(getattr(tally, name)
                          for tally in report.classes.values())
                for name in _TALLIES}
    return Outcome(pairs=report.total_confirmed_pairs, sessions=sessions,
                   mean_fidelity=[report.mean_fidelity],
                   clock_ns=[net.sim.now], nets=[net],
                   circuits_recovered=engine.circuits_recovered)


def _grid_edges(size: int) -> list:
    edges = []
    for row in range(size):
        for col in range(size):
            if col + 1 < size:
                edges.append((f"g{row}x{col}", f"g{row}x{col + 1}"))
            if row + 1 < size:
                edges.append((f"g{row}x{col}", f"g{row + 1}x{col}"))
    return edges


class Workload:
    """One scenario; ``repeat()`` runs it end to end."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def repeat(self) -> Outcome:
        raise NotImplementedError


class SoakBell(Workload):
    """``traffic_soak``: 96 single-hop circuits on a 4x4 grid, load 0.9, bell.

    Every one of the grid's 24 links carries four circuits, so per-pair
    work (EGP chains, delivery rules, histogram observes, weight rows,
    session bookkeeping) dominates; there are no swaps.
    """

    name = "soak_bell"
    ENDPOINTS = _grid_edges(4)

    def repeat(self) -> Outcome:
        net = traffic.build_topology("grid", 4, seed=self.seed,
                                     formalism="bell")
        engine = traffic.TrafficEngine(net, circuits=96, load=0.9,
                                       seed=self.seed,
                                       endpoint_pairs=self.ENDPOINTS,
                                       max_sessions=40000)
        report = engine.run(horizon_s=0.3, drain_s=0.2)
        return _engine_outcome(net, engine, report)


class RoundDm(Workload):
    """``traffic_round``: 8 multi-hop circuits on a 3x3 grid, load 0.8, dm.

    Swaps, tracking, cutoffs and EXPIRE run on density matrices while the
    pair rate is an order of magnitude below the soak's.
    """

    name = "round_dm"
    ENDPOINTS = [("g0x0", "g1x1"), ("g0x2", "g2x1"), ("g2x0", "g0x1"),
                 ("g2x2", "g1x0"), ("g0x0", "g2x0"), ("g0x2", "g2x2"),
                 ("g1x0", "g1x2"), ("g0x1", "g2x1")]

    def repeat(self) -> Outcome:
        net = traffic.build_topology("grid", 3, seed=self.seed,
                                     formalism="dm")
        engine = traffic.TrafficEngine(net, circuits=8, load=0.8,
                                       seed=self.seed,
                                       endpoint_pairs=self.ENDPOINTS)
        report = engine.run(horizon_s=1.0, drain_s=0.5)
        return _engine_outcome(net, engine, report)


class CampaignBell(Workload):
    """A fixed list of campaign cells run serially through ``run_cell``.

    Topology, routing metric and app form a Latin square over the cells, so
    each topology meets every metric and every app; each cell has 2 failed
    links, 4 circuits and load 0.7.  The cell seeds derive from the workload
    seed.
    """

    name = "campaign_bell"
    CELLS = 18
    TOPOLOGIES = (("ring", 6), ("waxman", 10), ("grid", 3))
    METRICS = ("hops", "utilisation", "fidelity-cost")
    APPS = ("qkd", "distil", "teleport")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cells = []
        for index in range(self.CELLS):
            row, col = divmod(index, 3)
            topology, size = self.TOPOLOGIES[col]
            self.cells.append(CampaignCell(
                index=index, topology=topology, size=size, formalism="bell",
                metric=self.METRICS[(col + row) % 3],
                faults=FaultSpec(fail_links=2),
                app=self.APPS[(col + 2 * row) % 3], circuits=4, load=0.7,
                seed=seed * self.CELLS + index, horizon_s=0.3, drain_s=0.15,
                target_fidelity=0.7))

    def repeat(self) -> Outcome:
        nets = []
        # run_cell builds its network through the runner module's global;
        # keeping a handle on each lets the benchmark read the registries.
        original = campaign_runner.build_topology

        def build_and_keep(*args, **kwargs):
            net = original(*args, **kwargs)
            nets.append(net)
            return net

        campaign_runner.build_topology = build_and_keep
        try:
            results = [campaign.run_cell(cell) for cell in self.cells]
        finally:
            campaign_runner.build_topology = original
        errors = [result.error for result in results if result.error]
        if errors:
            raise RuntimeError(f"campaign cell failed: {errors[0]}")
        sessions = {"submitted": sum(r.sessions for r in results)}
        for name in _TALLIES[1:]:
            sessions[name] = sum(getattr(r, name) for r in results)
        return Outcome(
            pairs=sum(r.pairs for r in results), sessions=sessions,
            mean_fidelity=[r.mean_fidelity for r in results],
            clock_ns=[net.sim.now for net in nets], nets=nets,
            circuits_recovered=sum(r.circuits_recovered for r in results))


WORKLOADS = {cls.name: cls for cls in (SoakBell, RoundDm, CampaignBell)}
