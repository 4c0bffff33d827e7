#!/usr/bin/env python3
"""Debugging a latency tail with per-request timelines.

Percentiles tell you a tail exists; timelines tell you *why*.  This
example runs an RSS d-FCFS server under a dispersive workload, keeps
every completed request through the system's completion hook, and
prints the life of the slowest ones from the timestamps each request
already carries -- which turn out (predictably) to be shorts that
queued behind a long request on a hashed-hot core.

Usage::

    python examples/tail_debugging.py
"""

import heapq

from repro.api import run_workload
from repro.schedulers.rss import RssSystem
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import PoissonArrivals
from repro.workload.request import Request
from repro.workload.service import Bimodal


def render(request: Request) -> str:
    """One request's life, step by step, with inter-step deltas."""
    steps = [(request.arrival, "nic_arrival", "")]
    if request.enqueued is not None:
        steps.append((request.enqueued, "enqueued",
                      f"queue_len={request.queue_len_at_arrival}"))
    if request.migrations:
        steps.append((request.enqueued or request.arrival, "migrated",
                      f"hops={request.migrations}"))
    if request.started is not None:
        steps.append((request.started, "started", f"core={request.core_id}"))
    steps.append((request.finished, "finished",
                  f"latency={request.latency:.0f}ns"))
    lines = [f"request #{request.req_id} ({request.latency:.0f} ns total)"]
    previous = None
    for time_ns, what, detail in steps:
        delta = "" if previous is None else f" (+{time_ns - previous:.0f})"
        detail = f"  {detail}" if detail else ""
        lines.append(f"  {time_ns:12.1f} ns{delta:>12s}  {what}{detail}")
        previous = time_ns
    return "\n".join(lines)


def main() -> None:
    sim, streams = Simulator(), RandomStreams(31)
    system = RssSystem(sim, streams, 8)
    completed = []
    system.completion_hooks.append(completed.append)

    service = Bimodal(500.0, 200_000.0, 0.005)  # 0.5% x 200 us longs
    result = run_workload(
        system, sim, streams,
        PoissonArrivals(0.6 * 8 / service.mean * 1e9), service,
        n_requests=30_000,
    )
    print(f"p50 = {result.latency.p50 / 1000:.2f} us, "
          f"p99 = {result.latency.p99 / 1000:.2f} us, "
          f"max = {result.latency.maximum / 1000:.2f} us\n")
    print("The three slowest requests, step by step:\n")
    for request in heapq.nlargest(3, completed, key=lambda r: r.latency):
        print(render(request))
        print()
    print(
        "Reading the timelines: each victim enqueued behind a deep queue\n"
        "(see queue_len at 'enqueued') and only 'started' after the long\n"
        "request ahead of it drained -- head-of-line blocking, the\n"
        "pathology every scheduler in this repository beyond plain RSS\n"
        "exists to fix."
    )


if __name__ == "__main__":
    main()
