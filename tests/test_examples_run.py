"""Smoke tests: the fast example scripts run end to end, and every
example and benchmark script imports.

(The slower examples — QKD, distillation, near-future hardware, the
congestion study — exercise the same code paths as the integration tests
and the benchmarks, so they are only imported here.)
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
EXAMPLES_DIR = ROOT / "examples"
BENCHMARKS_DIR = ROOT / "benchmarks"


def run_example(name: str, timeout: float = 240.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True, text=True, timeout=timeout, check=False)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "Virtual circuit installed" in out
    assert "completed" in out
    assert "entanglement" in out


def test_sequence_trace():
    out = run_example("sequence_trace.py")
    assert "FORWARD" in out
    assert "SWAP" in out
    assert "PAIR" in out


def test_teleportation():
    out = run_example("teleportation.py")
    assert "Teleporting" in out
    assert out.count("Φ+") >= 5  # all pairs corrected to the requested state


@pytest.mark.parametrize(
    "path",
    sorted(BENCHMARKS_DIR.glob("*.py")) + sorted(EXAMPLES_DIR.glob("*.py")),
    ids=lambda path: f"{path.parent.name}/{path.name}")
def test_script_imports(path, monkeypatch):
    """Every benchmark and example module imports: a public name removed
    from the package breaks its importers here, not at the next
    full-scale run.  Examples keep their work behind a ``__main__`` guard
    and bench modules hold only test functions, so importing runs
    nothing."""
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    name = f"_script_{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
