"""A fixed pure-Python event loop that measures the host's current speed.

On a shared virtual machine the same deterministic run can take a third
longer for minutes at a time.  Best-of-N within one invocation does not
remove that, but this loop slows with the host: over 670 paired
measurements on a 2-vCPU VM the spread of the simulation rate fell from
12% to 2% once divided by the loop's time taken just before each run.
It uses nothing from the program, so no change to the program moves it.
"""

from __future__ import annotations

import heapq
import time


class _Job:
    __slots__ = ("arrival", "work")

    def __init__(self, arrival: float, work: float) -> None:
        self.arrival = arrival
        self.work = work


class _Loop:
    """Sixteen FIFO servers behind a heap of timed callbacks, fed by an
    LCG: the same mix of heap, attribute, call and allocation work as the
    simulator's kernel, in a few dozen lines."""

    def __init__(self, n_jobs: int) -> None:
        self.n_jobs = n_jobs
        self.heap = []
        self.seq = 0
        self.now = 0.0
        self.done = 0
        self.state = 12345
        self.queues = [[] for _ in range(16)]

    def rand(self) -> float:
        self.state = (self.state * 1103515245 + 12345) & 0x7FFFFFFF
        return self.state / 2147483648.0

    def at(self, delay: float, fn, arg: int) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, fn, arg))

    def arrive(self, i: int) -> None:
        job = _Job(self.now, 2.0 * self.rand())
        queue = self.queues[i & 15]
        queue.append(job)
        if len(queue) == 1:
            self.at(job.work, self.finish, i & 15)
        if i + 1 < self.n_jobs:
            self.at(self.rand(), self.arrive, i + 1)

    def finish(self, k: int) -> None:
        queue = self.queues[k]
        queue.pop(0)
        self.done += 1
        if queue:
            self.at(queue[0].work, self.finish, k)

    def run(self) -> int:
        self.at(0.0, self.arrive, 0)
        heap = self.heap
        while heap:
            self.now, _, fn, arg = heapq.heappop(heap)
            fn(arg)
        return self.done


def reference_s(repeats: int = 3, n_jobs: int = 20_000) -> float:
    """Best host time, in seconds, of ``repeats`` runs of the loop."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        done = _Loop(n_jobs).run()
        best = min(best, time.perf_counter() - start)
        if done != n_jobs:
            raise RuntimeError(f"reference loop finished {done}/{n_jobs} jobs")
    return best
