"""The per-manager software runtime (Algorithm 1).

Each manager core runs this loop every ``Period`` nanoseconds:

1. refresh the local queue-length entry and broadcast it (UPDATE);
2. recompute the migration threshold ``T`` from the prediction model
   and the current load estimate;
3. run ``predict()`` -- threshold check + pattern classification -- to
   obtain the destination vector ``QD``;
4. for each destination, apply the line-8 guard
   (``q[j] - S < q[QD[i]] + S`` forbids migrations that would leave the
   migrated requests worse off) and trigger a MIGRATE of
   ``S = Bulk / Concurrency`` descriptors from the NetRX tail;
5. charge the manager core for the tick's interface accesses.

The runtime is deliberately mechanism-agnostic: it talks to the rest of
the system through the small :class:`RuntimeHooks` surface so tests can
drive it against a mock system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.config import AltocumulusConfig
from repro.core.interface import HwInterface
from repro.core.patterns import migrate_size, migration_plan
from repro.core.prediction import upper_bound_threshold
from repro.workload.request import Request


class LoadEstimator:
    """Online EWMA estimate of per-group offered load in Erlangs.

    Tracks the inter-arrival gap and mean service time with exponential
    smoothing; ``load_erlangs = mean_service / mean_gap``.  This is the
    "Local Load Status Monitor" feeding the prediction model when the
    operator has not supplied the load a priori.
    """

    __slots__ = (
        "alpha",
        "_last_arrival",
        "_mean_gap",
        "_mean_service",
        "arrivals",
        "completions",
    )

    def __init__(self, alpha: float = 0.05) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0,1], got {alpha}")
        self.alpha = float(alpha)
        self._last_arrival: Optional[float] = None
        self._mean_gap: Optional[float] = None
        self._mean_service: Optional[float] = None
        self.arrivals = 0
        self.completions = 0

    def record_arrival(self, now: float) -> None:
        self.arrivals += 1
        if self._last_arrival is not None:
            gap = now - self._last_arrival
            if self._mean_gap is None:
                self._mean_gap = gap
            else:
                self._mean_gap += self.alpha * (gap - self._mean_gap)
        self._last_arrival = now

    def record_completion(self, service_ns: float) -> None:
        self.completions += 1
        if self._mean_service is None:
            self._mean_service = service_ns
        else:
            self._mean_service += self.alpha * (service_ns - self._mean_service)

    @property
    def mean_service_ns(self) -> Optional[float]:
        return self._mean_service

    def load_erlangs(self) -> Optional[float]:
        """Current load estimate, or None before enough samples exist."""
        if not self._mean_gap or self._mean_service is None:
            return None
        if self._mean_gap <= 0:
            return None
        return self._mean_service / self._mean_gap


@dataclass
class RuntimeHooks:
    """System services the runtime relies on.

    ``local_queue_len``
        Current NetRX occupancy (descriptors not yet dispatched).
    ``take_batch(size)``
        Remove up to ``size`` migration-eligible descriptors from the
        NetRX tail (stamping counterfactuals); may return fewer.
    ``restore_batch(batch)``
        Undo ``take_batch`` after hardware back-pressure.
    ``send_migrate(dst, batch) -> bool``
        Hand the batch to the messaging hardware; False on back-pressure.
    ``broadcast_update(qlen)``
        UPDATE broadcast via the messaging hardware.
    ``charge(ns)``
        Account manager-core time consumed by this tick.
    ``flag_predicted(count)``
        Mark the ``count`` newest queued requests as predicted SLO
        violators (queued beyond the threshold), whether or not they
        end up migrated -- the prediction-accuracy bookkeeping.
    """

    local_queue_len: Callable[[], int]
    take_batch: Callable[[int], List[Request]]
    restore_batch: Callable[[List[Request]], None]
    send_migrate: Callable[[int, List[Request]], bool]
    broadcast_update: Callable[[int], None]
    charge: Callable[[float], None]
    flag_predicted: Callable[[int], None] = lambda count: None


class ManagerRuntime:
    """One manager core's decision loop state."""

    def __init__(
        self,
        group_index: int,
        n_groups: int,
        config: AltocumulusConfig,
        hooks: RuntimeHooks,
        interface: HwInterface,
        estimator: Optional[LoadEstimator] = None,
    ) -> None:
        self.group_index = int(group_index)
        self.n_groups = int(n_groups)
        self.config = config
        self.hooks = hooks
        self.interface = interface
        self.estimator = estimator or LoadEstimator()
        #: Isolation domain: migration destinations outside it are
        #: filtered out (application isolation, Sec. XI future work).
        self.domain = frozenset(config.domain_of(group_index))
        #: This manager's (possibly stale) view of all NetRX lengths,
        #: refreshed from the UPDATE registers before each tick
        #: (:meth:`repro.hw.messaging.ManagerTileHw.read_updates`).
        self.q_view: List[int] = [0] * n_groups
        #: Ticks run: :meth:`tick`, and parked ticks, which the system's
        #: tick loop counts here.
        self.ticks = 0
        self.migrations_triggered = 0
        self.descriptors_migrated = 0
        #: Live worker count for this group.  Starts at the config's
        #: uniform split; the control plane's worker<->group
        #: reassignment updates it via :meth:`set_workers`.
        self.n_workers: int = config.workers_per_group
        #: ``T_upper`` depends on the worker count and the config;
        #: recomputed only when :meth:`set_workers` changes the count.
        self._t_upper: float = upper_bound_threshold(
            self.n_workers, config.slo_multiplier
        )
        #: Threshold cache: the load the model threshold was last
        #: computed at, and that threshold.  Reused only for an identical
        #: load, so it always equals recomputation.
        self._cached_load: Optional[float] = None
        self._cached_threshold: float = float("inf")
        #: The sorted isolation domain and this group's position in it
        #: never change; computing them per tick was pure overhead.
        self._domain_sorted: List[int] = sorted(self.domain)
        self._domain_self: int = self._domain_sorted.index(self.group_index)
        #: True when the domain is every group, so ``q_view`` itself is
        #: the domain's queue vector.
        self._whole_domain: bool = self._domain_sorted == list(range(n_groups))

    # ------------------------------------------------------------------
    # Threshold (Eq. 2 / bounds)
    # ------------------------------------------------------------------
    def set_workers(self, n_workers: int) -> None:
        """Adopt a new live worker count (control-plane reassignment).

        Recomputes ``T_upper`` and flushes the threshold cache so the
        next :meth:`current_threshold` reflects the new capacity.
        """
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        self.n_workers = int(n_workers)
        self._t_upper = upper_bound_threshold(
            self.n_workers, self.config.slo_multiplier
        )
        self._cached_load = None
        self._cached_threshold = float("inf")

    def _model_load(self) -> Optional[float]:
        """The load Eq. 2 is evaluated at, or None before the
        estimator has warmed up."""
        k = self.n_workers
        if self.config.offered_load is not None:
            load = self.config.offered_load * k
        else:
            load = self.estimator.load_erlangs()
            if load is None:
                return None
        return min(load, 0.995 * k)  # keep Erlang-C finite under overload

    def _model_threshold(self, load: float) -> float:
        """Evaluate Eq. 2 at ``load`` and cache the result."""
        t_model = self.config.threshold_model.threshold(self.n_workers, load)
        threshold = min(max(t_model, 1.0), self._t_upper)
        self._cached_load = load
        self._cached_threshold = threshold
        return threshold

    def current_threshold(self) -> float:
        cfg = self.config
        t_upper = self._t_upper
        if cfg.threshold_mode == "fixed":
            return min(cfg.fixed_threshold, t_upper)
        if cfg.threshold_mode == "upper_bound":
            return t_upper
        # "model": Eq. 2 on the current load estimate.
        load = self._model_load()
        if load is None:
            return t_upper  # not warmed up; be conservative
        # Threshold cache: skip the Erlang-C evaluation for the load it
        # was last computed at.
        if load == self._cached_load:
            return self._cached_threshold
        return self._model_threshold(load)

    # ------------------------------------------------------------------
    # The periodic tick (Algorithm 1 body)
    # ------------------------------------------------------------------
    def tick(self) -> int:
        """Run one period's decision; returns MIGRATE messages sent."""
        self.ticks += 1
        cfg = self.config
        local_len = self.hooks.local_queue_len()
        self.q_view[self.group_index] = local_len
        self.hooks.broadcast_update(local_len)

        threshold = self.current_threshold()
        excess = local_len - threshold
        if excess > 0:
            # Everything queued beyond T is a predicted violator
            # (Sec. IV), independent of whether migration follows.
            self.hooks.flag_predicted(int(excess))
        # Classify within this manager's isolation domain only: queues
        # belonging to other applications are invisible to the decision.
        q_view = self.q_view
        domain = self._domain_sorted
        sub_q = q_view if self._whole_domain else [q_view[g] for g in domain]
        size = migrate_size(cfg.bulk, cfg.concurrency)
        sent = 0
        # Line 8 below rejects every destination the local queue does not
        # lead by 2*S.  When even the domain's shortest queue is within
        # that margin, no plan can send, so skip planning altogether.
        if local_len - min(sub_q) >= 2 * size:
            plan = migration_plan(sub_q, self._domain_self, cfg.bulk,
                                  cfg.concurrency, threshold)
            destinations = [domain[d] for d in plan.destinations]
            for dst in destinations:
                local = q_view[self.group_index]
                # Line 8: never migrate into a queue that would end up
                # longer than the source; the move would hurt the
                # migrated requests.
                if local - size < q_view[dst] + size:
                    continue
                batch = self.hooks.take_batch(size)
                if not batch:
                    break
                if not self.hooks.send_migrate(dst, batch):
                    self.hooks.restore_batch(batch)
                    break
                sent += 1
                self.descriptors_migrated += len(batch)
                q_view[self.group_index] -= len(batch)
                # Optimistic: dst's next UPDATE corrects this.
                q_view[dst] += len(batch)
        if sent:
            self.migrations_triggered += 1
        self.hooks.charge(
            self.interface.tick_cost_ns(sent, queue_reads=self.n_groups)
        )
        return sent
