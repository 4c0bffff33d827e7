"""Attribute a cProfile run's self time and calls to the program's layers.

A layer is a package under ``src/repro/`` or numpy.  A Python function
belongs to the layer whose files hold it.  A C built-in (``heapq``,
``len``, numpy's ufuncs...) has no file, so its self time goes to the
layers that called it, split in proportion to their calls.  Time in any
other code (``repro/api.py``, the standard library) stays unnamed.
"""

from __future__ import annotations

import pstats
from collections import defaultdict
from pathlib import PurePath
from typing import Dict, Optional, Tuple

LAYERS = (
    "sim", "workload", "hw", "core", "schedulers", "cluster", "datacenter",
    "kvs", "faults", "control", "telemetry", "analysis", "numpy",
)

Func = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or ``None``."""
    parts = PurePath(filename).parts
    if "repro" in parts:
        i = len(parts) - 1 - parts[::-1].index("repro")
        if i + 2 < len(parts) and parts[i + 1] in LAYERS:
            return parts[i + 1]
        return None
    return "numpy" if "numpy" in parts else None


def _is_builtin(func: Func) -> bool:
    return func[0] == "~"


def attribute(stats: pstats.Stats) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Per-layer ``self_s``, ``calls`` and ``entries``, and the total
    traced self time in seconds.

    ``calls`` counts calls of the layer's Python functions; ``entries``
    counts those made from Python code outside the layer.
    """
    raw = stats.stats  # func -> (primitive calls, calls, self s, cum s, callers)
    owners: Dict[Func, Dict[Optional[str], float]] = {}

    def owner_shares(func: Func, visiting: frozenset) -> Dict[Optional[str], float]:
        if not _is_builtin(func):
            return {layer_of(func[0]): 1.0}
        if func in owners:
            return owners[func]
        callers = raw[func][4] if func in raw else {}
        total = sum(v[1] for v in callers.values())
        if not total or func in visiting:
            return {None: 1.0}
        shares: Dict[Optional[str], float] = defaultdict(float)
        for caller, v in callers.items():
            for layer, w in owner_shares(caller, visiting | {func}).items():
                shares[layer] += w * v[1] / total
        owners[func] = dict(shares)
        return owners[func]

    out = {layer: {"self_s": 0.0, "calls": 0, "entries": 0} for layer in LAYERS}
    total_s = 0.0
    for func, (_, calls, self_s, _, callers) in raw.items():
        total_s += self_s
        for layer, w in owner_shares(func, frozenset()).items():
            if layer is not None:
                out[layer]["self_s"] += w * self_s
        if _is_builtin(func):
            continue
        layer = layer_of(func[0])
        if layer is None:
            continue
        out[layer]["calls"] += calls
        out[layer]["entries"] += sum(
            v[1] for caller, v in callers.items()
            if not _is_builtin(caller) and layer_of(caller[0]) != layer
        )
    return out, total_s
