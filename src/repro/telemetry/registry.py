"""Typed, namespaced metric instruments and the registry that owns them.

Every subsystem in the reproduction (engine, NoC, messaging protocol,
NIC delivery, KVS store, scheduler harness, cluster tier) registers its
counters into one :class:`MetricRegistry` per system, under a dotted
namespace (``noc.messages``, ``messaging.m0.migrates_sent``,
``cluster.imbalance_index``).  The registry is the single snapshot /
schema / export spine: :meth:`MetricRegistry.snapshot` returns a flat
JSON-able dict, :meth:`MetricRegistry.schema` pins the instrument names
and types for the schema-regression test.

Two instrument storage modes coexist deliberately:

* **Owned instruments** hold their own value.  ``Counter.value += 1`` on
  a slotted instance costs exactly what the old per-subsystem dataclass
  field bump cost, so converting a hot path to an owned instrument is
  performance-neutral by construction.
* **Bound instruments** read a live value through a callback at snapshot
  time (``fn=...``).  The hottest mutable state (``SystemStats``'
  offered/completed counts, the simulator clock) stays a plain attribute
  and is merely *observed* by the registry -- zero added work per event.

Counters preserve ``int`` semantics: an instrument incremented only by
ints snapshots as an int (no more ``migrations: 12.0`` in JSON output).
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Instrument names are dotted paths of lowercase segments; at least one
#: dot, so every instrument carries an explicit namespace.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: Namespace prefixes (for adapters) are one or more dotted segments.
_NAMESPACE_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")

#: Default fixed latency buckets, in ns: powers of two from 64 ns to
#: ~67 ms.  Nanosecond-scale RPCs live in the low buckets; the top
#: bucket catches pathological stragglers without unbounded growth.
DEFAULT_LATENCY_BOUNDS_NS: Tuple[float, ...] = tuple(
    float(1 << k) for k in range(6, 27)
)


class MetricError(ValueError):
    """Base class for registry misuse."""


class MetricNameError(MetricError):
    """Malformed or duplicate instrument name."""


class MetricNamespaceError(MetricError):
    """Malformed namespace, or a cross-namespace key collision."""


def validate_namespace(namespace: str) -> str:
    """Validate a namespace prefix; returns it unchanged."""
    if not _NAMESPACE_RE.match(namespace):
        raise MetricNamespaceError(
            f"bad namespace {namespace!r}: must be dotted lowercase "
            "segments like 'cluster' or 'messaging.m0'"
        )
    return namespace


class Counter:
    """A monotonically increasing count.

    Owned mode (no ``fn``): mutate :attr:`value` directly on the hot
    path, or call :meth:`inc`.  Bound mode (``fn`` given): the counter
    reads a live external value at snapshot time and must not be
    incremented.
    """

    kind = "counter"

    __slots__ = ("name", "value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], Number]] = None):
        self.name = name
        self.value: Number = 0
        self._fn = fn

    def inc(self, amount: Number = 1) -> None:
        if self._fn is not None:
            raise MetricError(f"counter {self.name} is bound; cannot inc()")
        self.value += amount

    def read(self) -> Number:
        return self._fn() if self._fn is not None else self.value


class Gauge:
    """A point-in-time value (set directly or bound to a callback)."""

    kind = "gauge"

    __slots__ = ("name", "value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], Any]] = None):
        self.name = name
        self.value: Any = 0
        self._fn = fn

    def set(self, value: Any) -> None:
        if self._fn is not None:
            raise MetricError(f"gauge {self.name} is bound; cannot set()")
        self.value = value

    def read(self) -> Any:
        return self._fn() if self._fn is not None else self.value


class Histogram:
    """Fixed-bucket histogram for ns-scale latency distributions.

    ``bounds`` are upper bucket edges (inclusive-exclusive in the usual
    ``bisect`` sense); one overflow bucket catches values beyond the
    last edge.  ``observe`` is a single C-level ``bisect`` plus three
    attribute updates, cheap enough to stay always-on in the completion
    path.
    """

    kind = "histogram"

    __slots__ = ("name", "bounds", "counts", "count", "sum")

    def __init__(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> None:
        self.name = name
        bounds = tuple(
            float(b) for b in (bounds if bounds is not None
                               else DEFAULT_LATENCY_BOUNDS_NS)
        )
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise MetricError(
                f"histogram {name}: bounds must be non-empty and increasing"
            )
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def read(self) -> Dict[str, Any]:
        buckets: Dict[str, int] = {}
        for bound, count in zip(self.bounds, self.counts):
            if count:
                buckets[f"le_{bound:g}"] = count
        if self.counts[-1]:
            buckets["le_inf"] = self.counts[-1]
        return {"count": self.count, "sum": self.sum, "buckets": buckets}


Instrument = Union[Counter, Gauge, Histogram]

#: Sentinel: a child registry disjoint from a snapshot filter.
_SKIP = object()


class MetricRegistry:
    """Owns a flat, insertion-ordered set of uniquely named instruments.

    Child registries can be attached under a prefix
    (:meth:`attach_child`), so a rack's registry transparently exposes
    every server's instruments as ``srv<i>.<name>`` -- one snapshot for
    the whole hierarchy.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}
        self._children: List[Tuple[str, "MetricRegistry"]] = []
        self._before_snapshot: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _admit(self, name: str) -> None:
        if not _NAME_RE.match(name):
            raise MetricNameError(
                f"bad instrument name {name!r}: must be dotted lowercase "
                "segments like 'noc.messages'"
            )
        if name in self._instruments:
            raise MetricNameError(f"instrument {name!r} already registered")

    def counter(
        self, name: str, fn: Optional[Callable[[], Number]] = None
    ) -> Counter:
        self._admit(name)
        instrument = Counter(name, fn)
        self._instruments[name] = instrument
        return instrument

    def gauge(
        self, name: str, fn: Optional[Callable[[], Any]] = None
    ) -> Gauge:
        self._admit(name)
        instrument = Gauge(name, fn)
        self._instruments[name] = instrument
        return instrument

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        self._admit(name)
        instrument = Histogram(name, bounds)
        self._instruments[name] = instrument
        return instrument

    def attach_child(self, prefix: str, child: "MetricRegistry") -> None:
        """Expose ``child``'s instruments under ``prefix.`` in snapshots."""
        validate_namespace(prefix)
        if child is self:
            raise MetricError("a registry cannot attach itself")
        if any(existing is child for _, existing in self._children):
            raise MetricError("child registry already attached")
        self._children.append((prefix, child))

    def before_snapshot(self, fn: Callable[[], None]) -> None:
        """Call ``fn()`` at the start of every :meth:`snapshot`: for an
        owner that defers updates to owned instruments and must apply
        them before they are read."""
        self._before_snapshot.append(fn)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def get(self, name: str) -> Instrument:
        try:
            return self._instruments[name]
        except KeyError:
            raise MetricNameError(f"no instrument named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> List[str]:
        """Own instrument names, in registration order."""
        return list(self._instruments)

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, Any]:
        """Flat name -> value dict over this registry and its children.

        Counters keep int-ness; histograms snapshot as nested dicts.
        With ``prefix`` (a dotted namespace like ``"faults"`` or
        ``"rack0.cluster"``), only instruments whose full name equals the
        prefix or lives under ``prefix.`` are read -- the cheap path for
        periodic samplers like the control loop, which must not pay for
        reading every bound instrument in a datacenter-sized hierarchy.
        Keys keep their full prefixed names either way.
        """
        for fn in self._before_snapshot:
            fn()
        if prefix is None:
            out: Dict[str, Any] = {
                name: instrument.read()
                for name, instrument in self._instruments.items()
            }
            for cprefix, child in self._children:
                for name, value in child.snapshot().items():
                    out[f"{cprefix}.{name}"] = value
            return out
        validate_namespace(prefix)
        dotted = prefix + "."
        out = {
            name: instrument.read()
            for name, instrument in self._instruments.items()
            if name == prefix or name.startswith(dotted)
        }
        for cprefix, child in self._children:
            sub = self._narrow(prefix, dotted, cprefix)
            if sub is _SKIP:
                continue
            for name, value in child.snapshot(sub).items():
                out[f"{cprefix}.{name}"] = value
        return out

    @staticmethod
    def _narrow(prefix: str, dotted: str, cprefix: str) -> Any:
        """Remaining filter for a child mounted at ``cprefix``.

        ``None`` means the whole child matches; :data:`_SKIP` means the
        child is disjoint from the filter; otherwise the returned string
        is the filter with the mount point stripped.
        """
        if prefix == cprefix or cprefix.startswith(dotted):
            return None
        if prefix.startswith(cprefix + "."):
            return prefix[len(cprefix) + 1:]
        return _SKIP

    def schema(self) -> List[Dict[str, str]]:
        """Sorted ``[{"name", "type"}]`` over the full hierarchy -- the
        shape pinned by the metrics-schema regression test."""
        entries = [
            {"name": name, "type": instrument.kind}
            for name, instrument in self._instruments.items()
        ]
        for prefix, child in self._children:
            entries.extend(
                {"name": f"{prefix}.{entry['name']}", "type": entry["type"]}
                for entry in child.schema()
            )
        return sorted(entries, key=lambda entry: entry["name"])

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Strict-JSON snapshot (non-finite floats are stringified)."""

        def default(value: object) -> object:
            return str(value)

        return json.dumps(
            _json_safe(self.snapshot()), indent=indent, default=default,
            allow_nan=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricRegistry {len(self._instruments)} instruments, "
            f"{len(self._children)} children>"
        )


def _json_safe(value: Any) -> Any:
    """Replace non-finite floats so ``allow_nan=False`` never trips."""
    if isinstance(value, float):
        if value != value:  # NaN
            return None
        if value in (float("inf"), float("-inf")):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value
