"""Fire-and-forget callbacks use ``Simulator.post``, not ``schedule``.

``Simulator.schedule``/``schedule_at`` return an Event whose only use
is a later cancel.  A call whose result is thrown away pays for a
handle nobody keeps, where ``post``/``post_at`` push a bare heap entry.
This walks every module under ``src/repro`` with :mod:`ast` and fails
on each statement that calls one of them and discards the result.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

_HANDLE_METHODS = {"schedule", "schedule_at"}


def _dropped_handles(tree):
    """Line numbers of the statements in ``tree`` that call
    ``.schedule(`` or ``.schedule_at(`` and keep no result: a bare
    expression statement, or an assignment to ``_``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr):
            call = node.value
        elif (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "_"
        ):
            call = node.value
        else:
            continue
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in _HANDLE_METHODS
        ):
            yield node.lineno


def test_detector_flags_only_dropped_handles():
    tree = ast.parse(
        "sim.schedule(1.0, f)\n"
        "event = sim.schedule(1.0, f)\n"
        "sim.post(1.0, f)\n"
        "self.sim.schedule_at(t, f, x)\n"
        "_ = sim.schedule_at(t, f)\n"
        "self.timeouts[k] = self.sim.schedule(d, f)\n"
        "def g():\n"
        "    return sim.schedule(1.0, f)\n"
    )
    assert list(_dropped_handles(tree)) == [1, 4, 5]


def test_no_module_drops_a_schedule_handle():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in modules
        for line in _dropped_handles(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == [], (
        "these calls drop their Event handle; use sim.post/post_at: "
        + ", ".join(offenders)
    )
