"""Fig 9's censored latency (``benchmarks/bench_fig9_latency_throughput.py``).

Past saturation some requests are still unfinished at the horizon; the
figure counts each at ``horizon − t_submitted`` instead of dropping it,
and reports how many it censored.  Checked here on hand-built handles.
"""

from pathlib import Path

import pytest

from repro.core import UserRequest
from repro.core.requests import RequestHandle

MS = 1e6  # ns


@pytest.fixture
def censored_latency(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "benchmarks"))
    from bench_fig9_latency_throughput import censored_latency
    return censored_latency


def _handle(submitted_ms, completed_ms=None):
    handle = RequestHandle(UserRequest(num_pairs=3))
    handle.t_submitted = submitted_ms * MS
    if completed_ms is not None:
        handle.t_completed = completed_ms * MS
    return handle


def test_unfinished_requests_count_to_the_horizon(censored_latency):
    handles = [
        _handle(50, 60),     # before the window: ignored
        _handle(80),         # before the window, unfinished: ignored
        _handle(200, 500),   # 300 ms
        _handle(400),        # censored: 1000 - 400 = 600 ms
        _handle(900),        # censored: 1000 - 900 = 100 ms
    ]
    latency_ms, censored = censored_latency(handles, 100 * MS, 1000 * MS)
    assert latency_ms == pytest.approx((300 + 600 + 100) / 3)
    assert censored == 2


def test_all_finished_is_the_plain_mean(censored_latency):
    handles = [_handle(100, 130), _handle(200, 250), _handle(300, 310)]
    latency_ms, censored = censored_latency(handles, 100 * MS, 1000 * MS)
    assert latency_ms == pytest.approx((30 + 50 + 10) / 3)
    assert censored == 0


def test_overloaded_point_reads_a_number_not_nan(censored_latency):
    """The case that read ``nan`` when unfinished requests were dropped:
    no request in the window completes."""
    handles = [_handle(10, 20), _handle(600), _handle(700)]
    latency_ms, censored = censored_latency(handles, 500 * MS, 1000 * MS)
    assert latency_ms == pytest.approx((400 + 300) / 2)
    assert censored == 2
