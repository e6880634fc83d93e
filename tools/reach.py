#!/usr/bin/env python
"""Reachability audit: every function in ``src/repro`` must be one that a
user can reach.

The audit runs a fixed list of entry points (``ENTRY_POINTS``): the
README's console commands and every CLI flag that selects a different
path, the three campaign specs, the examples, perfbench, the bell/dm
ratio floors and the paper's figure suite.  Each runs in a fresh process
with a ``sitecustomize`` hook (``HOOK``) on ``PYTHONPATH``.  The hook
records the code object of every Python call that ``sys.setprofile``
reports and, at exit, writes the ``(file, first line, name)`` of those
under ``src/repro`` to a JSON file.

The list of functions comes from an ``ast`` walk of ``src/repro``.  A
decorated function's code object starts at its first decorator, so that
line, with the file and the name, is the function's key.  Functions that
no entry point called, minus the ``KEEP`` entries (``"path:qualname"`` →
why it stays), are findings.  A ``KEEP`` entry that is reached or no longer exists is a
finding too, so the list cannot go stale.

Limits of the hook: a process that leaves with ``os._exit`` (a
``multiprocessing`` pool worker) writes nothing, so campaigns run at
``--workers 1``; and ``cProfile`` replaces the hook, so ``traffic
--profile`` records only what runs outside its profiled section.

Usage::

    python tools/reach.py

Exits 1 on any finding or on an entry point that fails.  It runs
``JOBS`` entry points at a time.  On a 2-vCPU host the entry points add
up to about 20 minutes, most of it the figure suite, and the audit
finishes in 12–14 minutes.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
#: Entry points run at a time.
JOBS = 2

#: The ``sitecustomize`` each entry point's process imports at start-up.
#: ``REACH_OUT`` names the dump directory, ``REACH_SRC`` the source root
#: whose code objects are kept.
HOOK = '''\
import atexit
import os
import sys
import threading

_OUT = os.environ.get("REACH_OUT")
_SRC = os.environ.get("REACH_SRC", "")
if _OUT:
    _codes = set()

    def _hook(frame, event, arg, _add=_codes.add):
        if event == "call":
            _add(frame.f_code)

    def _dump():
        sys.setprofile(None)
        import json
        import tempfile
        rows = sorted({(code.co_filename, code.co_firstlineno, code.co_name)
                       for code in _codes
                       if code.co_filename.startswith(_SRC)})
        fd, _ = tempfile.mkstemp(dir=_OUT, suffix=".json")
        with os.fdopen(fd, "w") as fh:
            json.dump(rows, fh)

    atexit.register(_dump)
    threading.setprofile(_hook)
    sys.setprofile(_hook)
'''

_TRAFFIC = ["-m", "repro", "traffic", "--seed", "7", "--size", "3",
            "--circuits", "4", "--horizon", "0.5"]
_CAMPAIGN = ["-m", "repro", "campaign", "--workers", "1"]

#: ``(name, argv after the interpreter, exit codes that count as success)``.
#: ``{tmp}`` is the run's scratch directory, which is also the working
#: directory, so every file an entry point writes lands there.
ENTRY_POINTS: list[tuple[str, list[str], tuple[int, ...]]] = [
    ("quickstart", ["-m", "repro", "quickstart"], (0,)),
    ("quickstart bell", ["-m", "repro", "--formalism", "bell", "quickstart"], (0,)),
    ("chain", ["-m", "repro", "chain", "--nodes", "4", "--pairs", "3",
               "--fidelity", "0.75"], (0,)),
    ("qkd", ["-m", "repro", "qkd", "--pairs", "40"], (0,)),
    ("near-term", ["-m", "repro", "near-term", "--pairs", "10"], (0,)),
    ("trace", ["-m", "repro", "trace", "--pairs", "2"], (0,)),
    ("traffic obs+checkpoint",
     ["-m", "repro", "traffic", "--seed", "7", "--horizon", "2.0",
      "--metrics-out", "{tmp}/run.jsonl", "--snapshot-interval", "0.5",
      "--trace-out", "{tmp}/spans.jsonl",
      "--checkpoint-out", "{tmp}/soak.ckpt", "--checkpoint-interval", "1.0"],
     (0,)),
    ("traffic resume", ["-m", "repro", "traffic", "--resume", "{tmp}/soak.ckpt"], (0,)),
    ("obs summarise", ["-m", "repro", "obs", "--summarise", "{tmp}/run.jsonl",
                       "--require", "traffic.pairs_confirmed,egp.attempts"], (0,)),
    *[(f"traffic {kind}", _TRAFFIC[:3] + ["--topology", kind] + _TRAFFIC[3:], (0,))
      for kind in ("grid", "ring", "star", "erdos-renyi", "waxman", "tree")],
    ("traffic midpoint", _TRAFFIC + ["--physical", "midpoint"], (0,)),
    ("traffic dm utilisation", _TRAFFIC + ["--formalism", "dm", "--metric", "utilisation"],
     (0,)),
    ("traffic bell fidelity-cost",
     _TRAFFIC + ["--formalism", "bell", "--metric", "fidelity-cost"], (0,)),
    ("traffic fail-links", _TRAFFIC + ["--fail-links", "2"], (0,)),
    ("traffic mtbf", _TRAFFIC + ["--fail-links", "2", "--mtbf", "0.2", "--mttr", "0.1"],
     (0,)),
    ("traffic apps", _TRAFFIC + ["--apps", "qkd,distil,teleport,certify"], (0,)),
    ("traffic profile", _TRAFFIC + ["--profile"], (0,)),
    ("apps", ["-m", "repro", "apps"], (0,)),
    ("apps demo", ["-m", "repro", "apps", "--demo"], (0,)),
    ("campaign grid", _CAMPAIGN + ["--spec", "{root}/examples/campaign_grid.json",
                                   "--out", "{tmp}/grid.json"], (0,)),
    ("campaign apps", _CAMPAIGN + ["--spec", "{root}/examples/campaign_apps.json",
                                   "--out", "{tmp}/apps.json"], (0,)),
    ("campaign smoke obs+checkpoint",
     _CAMPAIGN + ["--spec", "{root}/examples/campaign_smoke.json", "--apps", "qkd",
                  "--out", "{tmp}/smoke.json", "--metrics-out", "{tmp}/cm",
                  "--trace-out", "{tmp}/ct", "--checkpoint-out", "{tmp}/ck"], (0,)),
    ("campaign smoke resume",
     _CAMPAIGN + ["--spec", "{root}/examples/campaign_smoke.json", "--apps", "qkd",
                  "--out", "{tmp}/smoke2.json", "--checkpoint-out", "{tmp}/ck",
                  "--resume"], (0,)),
    *[(f"example {path.stem}", [str(path)], (0,))
      for path in sorted((ROOT / "examples").glob("*.py"))],
    *[(f"perfbench {workload} trace {trace}",
       ["{root}/perfbench/run.py", "--workload", workload, "--seconds", "1",
        "--trace", trace], (0,))
      for workload in ("soak_bell", "round_dm", "campaign_bell")
      for trace in ("0", "1")],
    # The ratio floors are timing gates; the hook skews the timings, so a
    # floor miss (exit 1) still counts as a run.
    ("run_bench", ["{root}/benchmarks/run_bench.py", "--rounds", "1"], (0, 1)),
    *[(f"figure {path.stem}",
       ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--rootdir", "{root}", str(path)],
       (0,))
      for path in sorted((ROOT / "benchmarks").glob("bench_*.py"))],
]


Key = tuple[str, int, str]


def defined_functions(src: pathlib.Path) -> dict[Key, tuple[str, int]]:
    """Every function under ``src``: ``(relpath, first line, name)`` →
    ``(qualname, lines)``.

    The first line is the first decorator's, as in ``co_firstlineno``;
    the qualname follows ``__qualname__`` (``Outer.method``,
    ``func.<locals>.inner``).
    """
    found: dict[Key, tuple[str, int]] = {}

    def walk(node: ast.AST, prefix: str, rel: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(rel, first, child.name)] = (qualname,
                                                   child.end_lineno - first + 1)
                walk(child, qualname + ".<locals>.", rel)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", rel)
            else:
                walk(child, prefix, rel)

    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        walk(ast.parse(path.read_text(), filename=str(path)), "", rel)
    return found


def reached_functions(dump_dir: pathlib.Path, src: pathlib.Path) -> set[Key]:
    """``(relpath, first line, name)`` of every code object in the hook
    dumps that ``src`` holds."""
    src = src.resolve()
    reached = set()
    for dump in dump_dir.glob("*.json"):
        for filename, line, name in json.loads(dump.read_text()):
            path = pathlib.Path(filename).resolve()
            if path.is_relative_to(src):
                reached.add((path.relative_to(src).as_posix(), line, name))
    return reached


def audit(defined: dict[Key, tuple[str, int]], reached: set[Key],
          keep: dict[str, str]) -> tuple[list[str], list[str]]:
    """Return ``(unreached, stale)``.

    ``unreached`` lists ``path:qualname (lines)`` for each function not
    reached and not in ``keep``; ``stale`` lists each ``keep`` entry that
    is reached or names no function.
    """
    by_name: dict[str, list[Key]] = {}
    for key, (qualname, _) in defined.items():
        by_name.setdefault(f"{key[0]}:{qualname}", []).append(key)
    unreached = []
    for key, (qualname, lines) in sorted(defined.items()):
        name = f"{key[0]}:{qualname}"
        if key not in reached and name not in keep:
            unreached.append(f"{name} ({lines} lines)")
    stale = []
    for name in sorted(keep):
        keys = by_name.get(name)
        if not keys:
            stale.append(f"{name}: no such function")
        elif any(key in reached for key in keys):
            stale.append(f"{name}: reached, so it needs no KEEP entry")
    return unreached, stale


def hook_env(hook_dir: pathlib.Path, out: pathlib.Path, src: pathlib.Path,
             pythonpath: list[pathlib.Path]) -> dict[str, str]:
    """The environment that makes a child process record its calls."""
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in [hook_dir, *pythonpath])
    env["REACH_OUT"] = str(out)
    env["REACH_SRC"] = str(src)
    return env


def run_entry_points(tmp: pathlib.Path) -> tuple[pathlib.Path, list[str]]:
    """Run ``ENTRY_POINTS`` under the hook; return the dump dir and failures."""
    out = tmp / "dumps"
    out.mkdir()
    env = hook_env(tmp, out, SRC, [ROOT / "src"])
    failures: list[str] = []

    def run(entry: tuple[str, list[str], tuple[int, ...]]) -> None:
        name, argv, ok = entry
        argv = [arg.format(tmp=tmp, root=ROOT) for arg in argv]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=tmp, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        took = time.perf_counter() - start
        print(f"  {name}: exit {proc.returncode}, {took:.1f} s", flush=True)
        if proc.returncode not in ok:
            failures.append(f"{name}: exit {proc.returncode}\n{proc.stdout[-2000:]}")

    # An entry point that reads another's files (a resume, the summary)
    # follows it in the list; run those pairs in order.
    serial = {"traffic obs+checkpoint", "traffic resume", "obs summarise",
              "campaign smoke obs+checkpoint", "campaign smoke resume"}
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        ordered = pool.submit(lambda: [run(e) for e in ENTRY_POINTS if e[0] in serial])
        list(pool.map(run, [e for e in ENTRY_POINTS if e[0] not in serial]))
        ordered.result()
    return out, failures


_REPR = "debugging aid: repr()"
_STUB = "abstract method of a base class; subclasses implement it"
_DEPOLAR = ("model branch: runs when NoisyOpParams.single_qubit_depolar_prob > 0 "
            "(pauli_correct, measure_qubit)")
_REFERENCE = "reference the tests compare the simulator against"

#: Functions no entry point reaches that stay, with the reason.
KEEP: dict[str, str] = {
    "__init__.py:__dir__": "dir(repro) lists the lazily loaded public API",
    "analysis/tracing.py:SpanTracer.roots": "README API: walking a span tree",
    "analysis/tracing.py:SpanTracer.walk": "README API: render_tree walks with it",
    "analysis/tracing.py:SpanTracer.render_tree": "README API: walking a span tree",
    "apps/base.py:AppService.consume": _STUB,
    "apps/base.py:AppService.metrics": _STUB,
    "campaign/runner.py:_error_result": "safety: a cell whose spec cannot run",
    "core/qnp.py:QNPNode.cancel": ("model branch: the only end of a rate-based request "
                                   "(UserRequest(rate=...))"),
    "linklayer/egp.py:Link._abort_round": "safety: a request ended while its round "
                                          "waited for the device arbiter",
    "netsim/entity.py:Entity.__repr__": _REPR,
    "netsim/ports.py:Port.__repr__": _REPR,
    "netsim/scheduler.py:_noop": ("placeholder callback of a free-list handle rebuilt "
                                  "on unpickling; never fires (ROADMAP pool item)"),
    "netsim/scheduler.py:Simulator.post": "perfbench/test_perfbench.py calls it",
    "quantum/backends.py:Backend.__repr__": _REPR,
    "quantum/backends.py:Backend.create_pair_from_weights": _STUB,
    "quantum/backends.py:Backend.link_pair_factory": _STUB,
    "quantum/bell.py:bell_diagonal_weights": _REFERENCE,
    "quantum/bell.py:swap_combine": _REFERENCE,
    "quantum/bell.py:werner_dm": _REFERENCE,
    "quantum/bellstate.py:BellPairState.__repr__": _REPR,
    "quantum/bellstate.py:BellPairState.apply_depolarizing": _DEPOLAR,
    "quantum/bellstate.py:_depolarized": _DEPOLAR,
    "quantum/channels.py:depolarizing_kraus": _DEPOLAR,
    "quantum/channels.py:is_trace_preserving": "reference check the tests run every "
                                               "channel through",
    "quantum/fidelity.py:state_fidelity": _REFERENCE,
    "quantum/operations.py:create_pair": "fixture: the tests build exact pairs with it",
    "quantum/qubit.py:Qubit.__repr__": _REPR,
    "quantum/states.py:QState.__repr__": _REPR,
    "quantum/states.py:QState.apply_depolarizing": _DEPOLAR,
    "quantum/states.py:QState.is_valid": "reference check the tests hold states to",
    "quantum/states.py:QState.trace": "reference check: is_valid calls it",
    "quantum/states.py:_permute_qubits": ("branch of QState.reduced_dm for targets "
                                          "out of state order"),
    "services/distillation.py:theoretical_dejmps_success": _REFERENCE,
    "traffic/arrivals.py:SessionArrivals.__iter__": ("iterator protocol: list() "
                                                     "and for-loops over the merge "
                                                     "call it; the engine calls next()"),
    "traffic/arrivals.py:poisson_schedule": ("public API (repro.traffic exports it): "
                                             "the whole schedule at once; the engine "
                                             "merges lazily"),
}


def report(src: pathlib.Path, dumps: pathlib.Path, keep: dict[str, str],
           failures: Sequence[str] = ()) -> int:
    """Print the audit of ``src`` against the hook dumps; return the exit code."""
    defined = defined_functions(src)
    reached = reached_functions(dumps, src) & defined.keys()
    unreached, stale = audit(defined, reached, keep)
    lines = sum(n for key, (_, n) in defined.items() if key not in reached)
    print(f"{len(defined)} functions, {len(defined) - len(reached)} unreached "
          f"({lines} lines), {len(keep)} kept")
    for failure in failures:
        print(f"ENTRY POINT FAILED {failure}")
    for item in unreached:
        print(f"UNREACHED {item}")
    for item in stale:
        print(f"STALE KEEP {item}")
    return 1 if failures or unreached or stale else 0


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reach-") as name:
        print(f"running {len(ENTRY_POINTS)} entry points under the call hook")
        dumps, failures = run_entry_points(pathlib.Path(name))
        print(f"{time.perf_counter() - start:.0f} s; src/repro: ", end="")
        return report(SRC, dumps, KEEP, failures)


if __name__ == "__main__":
    sys.exit(main())
