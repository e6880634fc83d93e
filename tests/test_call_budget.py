"""Python calls per confirmed pair on the soak scenario, held to a budget.

Wall time on a shared host cannot resolve a few percent, but the number
of Python calls a run makes is exact: the same spec and seed make the
same calls.  This test runs the soak scenario (96 single-hop bell
circuits on a 4x4 grid, load 0.9) at a 0.1 s horizon, counts the calls
into named functions of ``repro`` under :func:`sys.setprofile`, and
divides by the confirmed pairs.

Comprehension, generator-expression and lambda frames are not counted:
Python 3.12 inlines comprehensions, so counting them would make the
figure depend on the interpreter.  Code that no file of ``repro`` holds
(dataclass-generated ``__init__``, the standard library) is not counted
either.

The bound sits about 3% above the measured count (159.5 calls per pair
on CPython 3.11).  A change that adds a call to the per-pair path fails
it; a change that removes calls should lower it.
"""

import os
import sys

import repro
from repro import traffic
from test_finished_requests import _grid_edges

#: Calls per confirmed pair allowed (measured 159.5).
CALLS_PER_PAIR_BOUND = 164.0

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
    counts = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if (code.co_filename.startswith(_PACKAGE)
                    and code.co_name not in _UNNAMED):
                key = (code.co_filename[len(_PACKAGE):], code.co_name)
                counts[key] = counts.get(key, 0) + 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, counts


def test_soak_calls_per_pair_within_budget():
    _soak()  # warm: first-use caches fill outside the count
    report, counts = _count_calls(_soak)
    pairs = report.total_confirmed_pairs
    assert pairs > 1000
    per_pair = sum(counts.values()) / pairs
    hottest = sorted(counts.items(), key=lambda item: -item[1])[:10]
    detail = ", ".join(f"{name}:{func} {n / pairs:.2f}"
                       for (name, func), n in hottest)
    assert per_pair <= CALLS_PER_PAIR_BOUND, (
        f"{per_pair:.1f} calls per confirmed pair > {CALLS_PER_PAIR_BOUND}; "
        f"hottest: {detail}")
