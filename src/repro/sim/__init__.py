"""Discrete-event simulation kernel.

This package provides the substrate every other subsystem runs on: a
nanosecond-resolution event heap (:class:`~repro.sim.engine.Simulator`),
cancellable events, periodic timers, and deterministic named random
streams (read through numpy or the stream-exact :class:`~repro.sim.rng.ExactDraws`).  The paper's methodology (Sec. VII-B) is a Pin/ZSim-based
microarchitectural simulator; this kernel is the Python substitute that
reproduces the queueing behaviour all evaluated metrics derive from.
"""

from repro.sim.engine import Event, Simulator, SimulationError
from repro.sim.rng import ExactDraws, RandomStreams
from repro.sim.timer import PeriodicTimer

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "RandomStreams",
    "ExactDraws",
    "PeriodicTimer",
]
