"""Telemetry-driven adaptive control plane for the Altocumulus repro.

The reproduction's metric registry was historically write-only at
runtime: instruments observed the run, nothing acted on them.  This
package closes the loop.  A :class:`ControlLoop` (built by
:func:`repro.api.run_workload` when a :class:`ControlConfig` is
attached) senses the system every control epoch on the simulated clock
and hands the observation to a :class:`Controller`, which actuates
construction-frozen knobs through the :class:`Actuators` facade:
steering-policy selection and telemetry knobs (rack and spine level),
worker<->manager group reassignment, and rack autoscaling via admin
drains.

Everything is deterministic: a fixed seed plus a fixed
:class:`ControlConfig` reproduces every decision bit-for-bit, and the
``static`` controller leaves runs bit-identical to uncontrolled ones
(both pinned by the golden determinism gate).  See
``docs/architecture.md`` for the sensing -> decision -> actuation
contract.
"""

from repro.control.actuators import Actuators, AdminHealthView
from repro.control.config import (
    CONTROLLER_NAMES,
    ControlConfig,
    DEFAULT_CONTROL_EPOCH_NS,
)
from repro.control.controllers import (
    BanditController,
    Controller,
    EpochObservation,
    HysteresisController,
    StaticController,
    make_controller,
)
from repro.control.loop import ControlLoop

__all__ = [
    "Actuators",
    "AdminHealthView",
    "BanditController",
    "CONTROLLER_NAMES",
    "ControlConfig",
    "ControlLoop",
    "Controller",
    "DEFAULT_CONTROL_EPOCH_NS",
    "EpochObservation",
    "HysteresisController",
    "StaticController",
    "make_controller",
]
