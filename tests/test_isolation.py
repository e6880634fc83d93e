"""One network, one world: a run depends only on its own spec and seed.

Request, circuit and qubit identifiers come from the simulation that
owns them (:meth:`repro.netsim.Simulator.next_id`), never from module
state, so two simulations sharing a process cannot see each other.
"""

import ast
import json
from pathlib import Path

from repro.netsim.units import S
from repro.traffic import TrafficEngine, build_topology

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Two unlike workloads: the ring one fails a link, so it re-installs
#: circuits (and allocates fresh circuit IDs) in the middle of its run.
SPECS = {
    "grid": dict(topology=("grid", 3, 7), circuits=3, load=0.5, seed=7),
    "ring": dict(topology=("ring", 5, 33), circuits=3, load=0.8, seed=33,
                 fail_links=1),
}
HORIZON_S, DRAIN_S = 0.4, 0.3


def _engine(name):
    spec = dict(SPECS[name])
    kind, size, seed = spec.pop("topology")
    net = build_topology(kind, size, seed=seed, formalism="bell")
    return TrafficEngine(net, **spec)


def _fingerprint(engine, report):
    net = engine.net
    return {
        "render": report.render(),
        "registry": json.dumps(net.obs.snapshot(), sort_keys=True),
        "events": net.sim.events_processed,
        "now": net.sim.now,
        "requests": [record.handle.request_id for record in engine.records],
    }


def _solo(name):
    engine = _engine(name)
    return _fingerprint(engine, engine.run(horizon_s=HORIZON_S,
                                           drain_s=DRAIN_S))


def test_interleaved_networks_match_solo_runs():
    engines = {name: _engine(name) for name in SPECS}
    for engine in engines.values():
        engine._begin_run(HORIZON_S, DRAIN_S)
    # Alternate short slices of each simulator up to its horizon, so the
    # two worlds submit, fail, recover and allocate IDs turn about.
    slice_ns = 0.02 * S
    until = slice_ns
    while until < HORIZON_S * S:
        for engine in engines.values():
            if until < engine._start_ns + engine._horizon_ns:
                engine.net.sim.run(until=until)
        until += slice_ns
    reports = {name: engine._run_phases() for name, engine in engines.items()}
    for name, engine in engines.items():
        interleaved = _fingerprint(engine, reports[name])
        assert interleaved["requests"][0] == "req0"
        assert interleaved == _solo(name), name


def _process_global_counters(path):
    """``SerialCounter()`` / ``itertools.count()`` assignments outside any
    function body: module and class attributes are shared by every
    simulation in the process."""
    hits = []

    def is_counter(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in ("SerialCounter", "count")
        return isinstance(func, ast.Attribute) and (
            func.attr == "SerialCounter"
            or (func.attr == "count" and isinstance(func.value, ast.Name)
                and func.value.id == "itertools"))

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if (isinstance(child, (ast.Assign, ast.AnnAssign))
                    and is_counter(child.value)):
                hits.append(f"{path.relative_to(SRC)}:{child.lineno}")
            visit(child)

    visit(ast.parse(path.read_text(), filename=str(path)))
    return hits


def test_no_process_global_id_counters():
    hits = [hit for path in sorted(SRC.rglob("*.py"))
            for hit in _process_global_counters(path)]
    assert hits == [], ("ID counters must live on the Simulator "
                        f"(Simulator.next_id), found: {hits}")
