"""Tests for the reachability audit (`tools/reach.py`).

The hook runs on a planted package, not on the real entry points, so the
test is fast; it shows that an uncalled function and a stale ``KEEP``
entry each fail the audit.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_reach():
    spec = importlib.util.spec_from_file_location(
        "reach", REPO_ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load_reach()

MODULE = '''\
import functools


def called():
    return 1


@functools.lru_cache(maxsize=None)
def decorated():
    return 2


class Box:
    def uncalled(self):
        return 3
'''


def _run_planted(tmp_path):
    """Run the hook over a planted ``pkg``; return ``(src, dump dir)``."""
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(MODULE)
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    hook_dir = tmp_path / "hook"
    hook_dir.mkdir()
    env = reach.hook_env(hook_dir, dumps, pkg, [tmp_path / "src"])
    subprocess.run([sys.executable, "-c",
                    "import pkg.mod; pkg.mod.called(); pkg.mod.decorated()"],
                   env=env, check=True)
    return pkg, dumps


def test_uncalled_function_is_reported(tmp_path, capsys):
    pkg, dumps = _run_planted(tmp_path)
    defined = reach.defined_functions(pkg)
    assert sorted(qualname for qualname, _ in defined.values()) == [
        "Box.uncalled", "called", "decorated"]
    assert reach.report(pkg, dumps, {}) == 1
    out = capsys.readouterr().out
    assert "UNREACHED mod.py:Box.uncalled (2 lines)" in out
    assert "mod.py:called" not in out and "mod.py:decorated" not in out
    assert reach.report(pkg, dumps, {"mod.py:Box.uncalled": "fixture"}) == 0


def test_stale_keep_entries_fail(tmp_path, capsys):
    pkg, dumps = _run_planted(tmp_path)
    keep = {"mod.py:Box.uncalled": "fixture"}
    assert reach.report(pkg, dumps, {**keep, "mod.py:called": "x"}) == 1
    assert "STALE KEEP mod.py:called: reached" in capsys.readouterr().out
    assert reach.report(pkg, dumps, {**keep, "mod.py:gone": "x"}) == 1
    assert "STALE KEEP mod.py:gone: no such function" in capsys.readouterr().out


def test_keep_entries_name_real_functions():
    """Every KEEP entry names a function that exists in src/repro."""
    defined = reach.defined_functions(reach.SRC)
    names = {f"{key[0]}:{qualname}" for key, (qualname, _) in defined.items()}
    assert set(reach.KEEP) <= names
    assert all(reason.strip() for reason in reach.KEEP.values())
