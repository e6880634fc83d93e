"""Tests for the wiring and kernel lint (`tools/lint_callbacks.py`).

Each rule is shown failing on a planted snippet, and the real package is
shown passing, so the CI step that runs the lint can actually fail.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_lint():
    spec = importlib.util.spec_from_file_location(
        "lint_callbacks", REPO_ROOT / "tools" / "lint_callbacks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lint = _load_lint()


def _plant(root: Path, rel: str, source: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)


def test_src_repro_passes(capsys):
    assert lint.main(["lint", str(REPO_ROOT / "src" / "repro")]) == 0
    assert "OK" in capsys.readouterr().out


def test_clean_tree_passes(tmp_path):
    _plant(tmp_path, "core/ok.py",
           "class A:\n"
           "    def __init__(self, sim, handler):\n"
           "        self._handler = handler\n"
           "        self._queue = []\n"
           "        self._timer = sim.schedule(1.0, handler)\n"
           "    def size(self):\n"
           "        return len(self._queue)\n")
    assert lint.main(["lint", str(tmp_path)]) == 0


@pytest.mark.parametrize("rel, source, message", [
    ("core/wire.py", "def wire(end, cb):\n    end._receiver = cb\n",
     "callback-attribute assignment '._receiver"),
    ("core/wire.py", "def wire(port, cb):\n    port.handler: object = cb\n",
     "callback-attribute assignment '.handler"),
    ("core/heap.py", "import heapq\n", "'import heapq'"),
    ("core/heap.py", "from heapq import heappush\n", "'from heapq import"),
    ("core/peek.py", "def head(sim):\n    return sim._queue[0]\n",
     "'._queue'"),
    ("core/arm.py",
     "from repro.netsim.scheduler import EventHandle\n"
     "def arm(cb):\n    return EventHandle(cb, ())\n",
     "'EventHandle(...)'"),
    ("core/arm.py",
     "from repro.netsim import scheduler\n"
     "def arm(cb):\n    return scheduler.EventHandle(cb, ())\n",
     "'EventHandle(...)'"),
])
def test_planted_violation_fails(tmp_path, capsys, rel, source, message):
    _plant(tmp_path, rel, source)
    assert lint.main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"{rel}:" in out
    assert message in out


def test_exemptions_are_per_rule(tmp_path, capsys):
    # The scheduler owns the heap and its handles' callback slots; the port
    # layer may set Port.handler but must not reach into the heap.
    _plant(tmp_path, "netsim/scheduler.py",
           "import heapq\n"
           "def push(sim, handle, cb):\n"
           "    handle.callback = cb\n"
           "    heapq.heappush(sim._queue, (0.0, 0, EventHandle(cb, ())))\n")
    _plant(tmp_path, "netsim/ports.py",
           "def connect(port, cb):\n    port.handler = cb\n")
    assert lint.main(["lint", str(tmp_path)]) == 0
    _plant(tmp_path, "netsim/ports.py", "import heapq\n")
    assert lint.main(["lint", str(tmp_path)]) == 1
    assert "netsim/ports.py:1: 'import heapq'" in capsys.readouterr().out
