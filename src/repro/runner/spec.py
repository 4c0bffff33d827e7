"""Picklable descriptions of simulation work.

The evaluation's sweeps are embarrassingly parallel -- offered rates x
seeds x system variants -- but the experiment modules historically
described each point with closures, which cannot cross a process
boundary and cannot be hashed for caching.  This module provides the
data layer that replaces them:

* :class:`CallableRef` -- a reference to a module-level callable plus
  keyword arguments, picklable and stably hashable.
* :class:`PointSpec` -- one unit of simulation work (builder + workload
  configuration + rate + seed + request count) as plain data.
* :func:`fingerprint` -- a stable content hash of any spec, used as the
  key of the on-disk result cache.

Determinism contract: executing the same :class:`PointSpec` always
constructs a fresh :class:`~repro.sim.engine.Simulator` and
:class:`~repro.sim.rng.RandomStreams` from the spec's seed, so results
are bit-identical whether a point runs serially, in a worker process,
or on another machine.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Union

import numpy as np

from repro.control.config import ControlConfig
from repro.faults.plan import FaultPlan
from repro.kvs.ownership import KvsSpec
from repro.workload.jobs import JobShape
from repro.workload.service import ServiceDistribution

#: Bump when the execution or result layout changes incompatibly;
#: salted into every cache key alongside the package version.
#: 2: PointResult grew the ``instruments`` telemetry-registry snapshot.
#: 3: PointSpec grew the ``faults`` FaultPlan field.
#: 4: PointSpec grew the ``shards`` sharded-execution field.
#: 5: PointSpec grew the ``control`` ControlConfig field.
#: 6: PointSpec grew the ``jobs`` JobShape field.
#: 7: PointSpec grew the ``kvs`` KvsSpec field.
#: 8: PointSpec lost the ``shards`` field.
#: 9: PointResult lost the ``extra`` field; ``job.*`` rides ``instruments``.
#: 10: PointSpec lost the ``request_factory`` field.
SPEC_SCHEMA_VERSION = 10


class SpecError(TypeError):
    """Raised when a callable cannot be described as picklable data
    (lambdas, closures, instance-bound state, ...)."""


@dataclass
class CallableRef:
    """A module-level callable identified by ``"module:qualname"`` plus
    keyword arguments to pre-apply.

    Only import-reachable callables can be referenced: the whole point
    is that a worker process (or a future run reading the cache key) can
    reconstruct the call from the string.  Use :func:`ref` to build one
    with validation.
    """

    target: str
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def resolve(self) -> Callable[..., Any]:
        """Import and return the referenced callable (kwargs applied)."""
        module_name, _, qualname = self.target.partition(":")
        if not module_name or not qualname:
            raise SpecError(f"malformed callable reference {self.target!r}")
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        if not callable(obj):
            raise SpecError(f"{self.target!r} resolved to non-callable {obj!r}")
        if self.kwargs:
            return functools.partial(obj, **self.kwargs)
        return obj

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.resolve()(*args, **kwargs)


def ref(fn: Union[Callable[..., Any], CallableRef], **kwargs: Any) -> CallableRef:
    """Describe ``fn`` as a :class:`CallableRef`, merging ``kwargs``.

    ``fn`` must be reachable as ``module.qualname`` -- a module-level
    function, a ``functools.partial`` of one (keyword arguments only),
    a static/class method, or an existing :class:`CallableRef`.
    Lambdas and closures are rejected with :class:`SpecError`: a run
    that cannot be described as data cannot be dispatched.
    """
    if isinstance(fn, CallableRef):
        return CallableRef(fn.target, {**fn.kwargs, **kwargs})
    if isinstance(fn, functools.partial):
        if fn.args:
            raise SpecError(
                "functools.partial with positional arguments cannot be "
                "described stably; use keyword arguments"
            )
        inner = ref(fn.func)
        return CallableRef(inner.target, {**inner.kwargs,
                                          **(fn.keywords or {}), **kwargs})
    underlying = getattr(fn, "__func__", fn)  # unwrap bound class/static methods
    module = getattr(underlying, "__module__", None)
    qualname = getattr(underlying, "__qualname__", None)
    if not module or not qualname:
        raise SpecError(f"{fn!r} has no importable module/qualname")
    if "<" in qualname:  # <lambda>, <locals> (closures)
        raise SpecError(
            f"{qualname!r} is a lambda or closure; move it to module level "
            "so sweep points can be pickled and cached"
        )
    target = f"{module}:{qualname}"
    # Round-trip check: the name must resolve back to the same object,
    # otherwise workers would silently run different code.
    try:
        resolved = CallableRef(target).resolve()
    except (ImportError, AttributeError) as exc:
        raise SpecError(f"cannot re-import {target!r}: {exc}") from exc
    resolved_underlying = getattr(resolved, "__func__", resolved)
    if resolved_underlying is not underlying:
        raise SpecError(f"{target!r} does not round-trip to {fn!r}")
    return CallableRef(target, dict(kwargs))


def maybe_ref(fn: Optional[Callable[..., Any]], **kwargs: Any) -> Optional[CallableRef]:
    """:func:`ref`, passing ``None`` through."""
    if fn is None:
        return None
    return ref(fn, **kwargs)


@dataclass
class PointSpec:
    """One unit of simulation work, as plain picklable data.

    Execution semantics (see :func:`repro.runner.executor.execute_point`):
    a fresh simulator and seeded RNG streams are built, ``builder`` is
    called as ``fn(sim, streams, **kwargs)`` to construct the system
    (it may return ``(system, request_factory)`` when the workload needs
    per-run wiring, e.g. the MICA experiments), ``arrivals`` is called
    as ``fn(rate_rps, **kwargs)`` (Poisson by default), and the workload
    is driven to completion.  ``metrics`` -- called as
    ``fn(simulation_result, **kwargs)`` in the worker -- distills any
    per-request statistics into a small picklable dict so that neither
    the request log nor the system object ever crosses the process
    boundary.
    """

    builder: CallableRef
    service: Union[ServiceDistribution, CallableRef]
    rate_rps: float
    n_requests: int
    seed: int = 1
    arrivals: Optional[CallableRef] = None
    connections: Optional[CallableRef] = None
    metrics: Optional[CallableRef] = None
    warmup_fraction: float = 0.1
    size_bytes: int = 300
    slo_ns: Optional[float] = None
    #: Fault-injection schedule driven into the system during the run
    #: (``None`` = the fault-free fast path).  FaultPlan is a frozen
    #: dataclass of primitives, so it pickles and content-hashes cleanly.
    faults: Optional[FaultPlan] = None
    #: Adaptive control loop attached to the run (``None`` = no loop,
    #: the sense-only fast path).  ControlConfig is a frozen dataclass
    #: of primitives, so it pickles and content-hashes cleanly.
    control: Optional[ControlConfig] = None
    #: Job structure over the request stream (``None`` = plain
    #: independent requests, the fast path).  A JobShape is a dataclass
    #: of degree distributions, so it pickles and content-hashes
    #: cleanly; the shape participates in the cache key because the same
    #: builder/rate/seed produces entirely different traffic once
    #: requests are grouped into scatter-gather or gang jobs.
    jobs: Optional[JobShape] = None
    #: KVS-backed workload: a MICA store + ownership discipline wired
    #: into every leaf of the built system (``None`` = no data layer).
    #: KvsSpec is a frozen dataclass of primitives, so it pickles and
    #: content-hashes cleanly; mutually exclusive with a wired
    #: builder's request factory.
    kvs: Optional[KvsSpec] = None
    #: Free-form label for progress display and result grouping; part of
    #: the identity (two differently-tagged identical runs cache apart).
    tag: str = ""


# ----------------------------------------------------------------------
# Content hashing
# ----------------------------------------------------------------------
def _canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-encodable canonical structure.

    Every constituent a spec may carry must either be a primitive, a
    container of canonicalizable values, a :class:`CallableRef`, a
    dataclass, a numpy scalar/array, or a plain object whose identity is
    fully captured by ``type + __dict__`` (the service distributions).
    Anything else raises :class:`SpecError` rather than hashing
    unstably.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr() is exact for floats and distinguishes NaN/inf, which
        # json.dumps would otherwise refuse or collapse.
        return ["f", repr(value)]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return ["f", repr(float(value))]
    if isinstance(value, bytes):
        return ["b", value.hex()]
    if isinstance(value, np.ndarray):
        return ["arr", list(value.shape), str(value.dtype),
                hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()]
    if isinstance(value, (list, tuple)):
        return ["seq", [_canonical(v) for v in value]]
    if isinstance(value, dict):
        return ["map", sorted(
            ([_canonical(k), _canonical(v)] for k, v in value.items()),
            key=json.dumps,
        )]
    if isinstance(value, CallableRef):
        return ["ref", value.target, _canonical(value.kwargs)]
    cls = type(value)
    type_tag = f"{cls.__module__}:{cls.__qualname__}"
    if dataclasses.is_dataclass(value):
        fields = {f.name: getattr(value, f.name)
                  for f in dataclasses.fields(value)}
        return ["obj", type_tag, _canonical(fields)]
    state = getattr(value, "__dict__", None)
    if state is not None:
        return ["obj", type_tag, _canonical(dict(state))]
    raise SpecError(
        f"cannot canonically hash {value!r} of type {type_tag}; use "
        "primitives, dataclasses, or CallableRef in specs"
    )


def fingerprint(spec: Any, salt: str = "") -> str:
    """Stable content hash of a spec (hex sha256).

    The package version and spec schema version are always salted in,
    so cached results are invalidated by upgrades rather than silently
    replayed across behavioral changes.
    """
    from repro import __version__

    payload = json.dumps(
        ["altocumulus", __version__, SPEC_SCHEMA_VERSION, salt,
         _canonical(spec)],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()
