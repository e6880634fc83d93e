"""Python calls per confirmed pair on the soak scenario, held to a budget.

Wall time on a shared host cannot resolve a few percent, but the number
of Python calls a run makes is exact: the same spec and seed make the
same calls.  This test runs the soak scenario (96 single-hop bell
circuits on a 4x4 grid, load 0.9) at a 0.1 s horizon, counts the calls
under :func:`sys.setprofile`, and divides by the confirmed pairs.  It
keeps two budgets:

* calls into named functions of ``repro``.  Comprehension,
  generator-expression and lambda frames are not counted: Python 3.12
  inlines comprehensions, so counting them would make the figure depend
  on the interpreter.  Nor is the standard library;
* frames of code compiled from a string: the ``__init__``, ``__eq__``
  and ``__hash__`` that ``dataclasses`` generates.  Each is one object
  built or compared, so this budget catches a change that adds an
  allocation per pair, which the first cannot see.

Each bound sits about 3% above its measured count (138.6 named calls and
12.41 generated frames per pair on CPython 3.11).  A change that adds a
call to the per-pair path fails; a change that removes calls should
lower the bound.
"""

import functools
import os
import sys

import repro
from repro import traffic
from test_finished_requests import _grid_edges

#: Calls per confirmed pair allowed (measured 138.6).
CALLS_PER_PAIR_BOUND = 143.0
#: Dataclass-generated frames per confirmed pair allowed (measured 12.41).
GENERATED_PER_PAIR_BOUND = 12.8

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_UNNAMED = frozenset({"<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>",
                      "<lambda>"})


def _soak():
    net = traffic.build_topology("grid", 4, seed=7, formalism="bell")
    engine = traffic.TrafficEngine(net, circuits=96, load=0.9, seed=7,
                                   endpoint_pairs=_grid_edges(4),
                                   max_sessions=40000)
    return engine.run(horizon_s=0.1, drain_s=0.2)


def _count_calls(run):
    """Run ``run()`` under a profiler; return its result, the calls per
    named ``repro`` function and the number of generated frames."""
    counts = {}
    generated = 0

    def profile(frame, event, arg):
        nonlocal generated
        if event == "call":
            code = frame.f_code
            if (code.co_filename.startswith(_PACKAGE)
                    and code.co_name not in _UNNAMED):
                key = (code.co_filename[len(_PACKAGE):], code.co_name)
                counts[key] = counts.get(key, 0) + 1
            elif code.co_filename == "<string>":
                generated += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, counts, generated


@functools.cache
def _measure():
    _soak()  # warm: first-use caches fill outside the count
    report, counts, generated = _count_calls(_soak)
    pairs = report.total_confirmed_pairs
    assert pairs > 1000
    return pairs, counts, generated


def test_soak_calls_per_pair_within_budget():
    pairs, counts, _ = _measure()
    per_pair = sum(counts.values()) / pairs
    hottest = sorted(counts.items(), key=lambda item: -item[1])[:10]
    detail = ", ".join(f"{name}:{func} {n / pairs:.2f}"
                       for (name, func), n in hottest)
    assert per_pair <= CALLS_PER_PAIR_BOUND, (
        f"{per_pair:.1f} calls per confirmed pair > {CALLS_PER_PAIR_BOUND}; "
        f"hottest: {detail}")


def test_soak_generated_frames_per_pair_within_budget():
    pairs, _, generated = _measure()
    per_pair = generated / pairs
    assert per_pair <= GENERATED_PER_PAIR_BOUND, (
        f"{per_pair:.2f} dataclass-generated frames per confirmed pair > "
        f"{GENERATED_PER_PAIR_BOUND}")
