#!/usr/bin/env python
"""Lint: wiring goes through repro.netsim.ports, and only the kernel
touches the event heap.

The component-and-port layer made inter-component wiring explicit: every
connection is a pair of typed ports joined by ``connect()``.  The old
style — reaching into another object and assigning a callback attribute
(``end._receiver = cb``) — bypasses protocol validation and hides the
wiring again.  Likewise the simulator's heap of ``(time, seq, handle)``
entries is private to ``repro/netsim/scheduler.py``: everything else
arms an event with ``sim.schedule``/``schedule_at`` and disarms it through
the returned handle.  Two rules, enforced by AST walk over ``src/repro``:

* **callback rule** — no assignment of a callback-ish attribute
  (``handler``, ``callback``, ``receiver`` and underscore variants) on
  any object other than ``self``: storing *your own* constructor argument
  is fine, wiring someone else's inbox is not.  ``repro/netsim/ports.py``
  (the one place allowed to touch ``Port.handler``) and
  ``repro/netsim/scheduler.py`` (whose pooled ``EventHandle.callback``
  slots are event payloads, not wiring) are exempt.
* **kernel rule** — outside ``repro/netsim/scheduler.py``: no ``import
  heapq``, no read of a ``_queue`` attribute on an object other than
  ``self``, and no ``EventHandle(...)`` construction.

Usage::

    python tools/lint_callbacks.py [src/repro]
"""

from __future__ import annotations

import ast
import pathlib
import sys

BANNED_ATTRS = frozenset({
    "handler", "_handler", "handlers", "_handlers",
    "callback", "_callback", "receiver", "_receiver",
})
CALLBACK_EXEMPT = frozenset({"netsim/ports.py", "netsim/scheduler.py"})
KERNEL_FILE = "netsim/scheduler.py"


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _callback_problems(node: ast.AST):
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and target.attr in BANNED_ATTRS
                    and not _is_self(target.value)):
                yield (f"direct callback-attribute assignment "
                       f"'.{target.attr} = ...' — wire through "
                       f"repro.netsim.ports.connect() instead")


def _kernel_problems(node: ast.AST):
    if isinstance(node, ast.Import):
        if any(alias.name == "heapq" for alias in node.names):
            yield "'import heapq' — only the scheduler owns a heap"
    elif isinstance(node, ast.ImportFrom):
        if node.module == "heapq":
            yield "'from heapq import ...' — only the scheduler owns a heap"
    elif isinstance(node, ast.Attribute):
        if (node.attr == "_queue" and isinstance(node.ctx, ast.Load)
                and not _is_self(node.value)):
            yield ("read of another object's '._queue' — ask the "
                   "simulator (pending_events, stop) instead")
    elif isinstance(node, ast.Call):
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name == "EventHandle":
            yield ("'EventHandle(...)' construction — arm events with "
                   "sim.schedule and keep the handle it returns")


def check_file(path: pathlib.Path, root: pathlib.Path) -> list[str]:
    rel = path.relative_to(root).as_posix()
    rules = []
    if rel not in CALLBACK_EXEMPT:
        rules.append(_callback_problems)
    if rel != KERNEL_FILE:
        rules.append(_kernel_problems)
    if not rules:
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path}:{node.lineno}: {message}"
            for node in ast.walk(tree)
            for rule in rules
            for message in rule(node)]


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src/repro")
    if not root.is_dir():
        print(f"lint_callbacks: no such directory: {root}", file=sys.stderr)
        return 2
    problems = []
    for path in sorted(root.rglob("*.py")):
        problems.extend(check_file(path, root))
    for problem in problems:
        print(problem)
    if problems:
        print(f"lint_callbacks: {len(problems)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint_callbacks: OK ({root})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
