"""Altocumulus system configuration (the parameters of Sec. III-A and
the programmer guidelines of Sec. VI)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.prediction import ThresholdModel


@dataclass
class AltocumulusConfig:
    """Everything that parameterises an :class:`AltocumulusSystem`.

    Attributes
    ----------
    n_groups / group_size:
        Core grouping: each group is 1 manager + ``group_size - 1``
        workers.  The paper settles on 16-core groups (Sec. VIII-B).
    period_ns:
        Migration decision interval ``P`` (swept 10-1000 ns; 200 ns is
        the tuned default of Sec. VIII-C).
    bulk:
        Maximum descriptors batched per migration round (8-40; 16
        eliminates all violations in Fig. 11a).
    concurrency:
        Concurrent MIGRATE flows per decision; the paper sets it to
        n/4, n/2 or n managers and "usually maximised to N".
    variant:
        ``"int"`` -- hardware-terminated integrated NIC, hardware JBSQ
        dispatch inside each group (AC_int).
        ``"rss"`` -- commodity PCIe RSS NIC, software dispatch by the
        manager at >= 70 cycles/message (AC_rss).
    interface:
        ``"isa"`` (custom instructions) or ``"msr"`` (syscalls).
    threshold_mode:
        ``"model"`` -- Eq. 2 via ``threshold_model``;
        ``"upper_bound"`` -- ``k*L + 1``;
        ``"fixed"`` -- the constant ``fixed_threshold`` (used to replay
        a measured ``T_lower``).
    threshold_model:
        The calibrated Eq. 2 constants (defaults to the Fig. 7d fit).
    slo_multiplier:
        ``L`` in ``SLO = L x mean service time`` (10 unless stated).
    offered_load:
        Per-group load in Erlangs, if known a priori; otherwise the
        runtime estimates it online (EWMA).
    worker_bound:
        Local c-FCFS depth bound (2, inherited from JBSQ(2) hardware).
    allow_remigration:
        Paper forbids migrating twice (Sec. V-B opt. 4); True enables
        the ablation.
    steering_policy:
        NIC steering across manager NetRX queues ("connection",
        "random", "round_robin").
    runtime_enabled:
        False disables prediction+migration entirely (the "before the
        Altocumulus runtime has started" baseline of Fig. 14).
    messaging:
        ``"hw"`` -- the paper's register-level migrator/controller over
        the NoC.  ``"sw"`` -- migrations move through shared caches:
        each descriptor costs the manager one coherence message and the
        transfer adds coherence latency (the AC_int_rt configuration of
        case study 1, runtime without the messaging hardware).
    """

    n_groups: int = 1
    group_size: int = 16
    period_ns: float = 200.0
    bulk: int = 16
    concurrency: int = 8
    variant: str = "int"
    interface: str = "isa"
    threshold_mode: str = "model"
    threshold_model: ThresholdModel = field(
        default_factory=lambda: ThresholdModel(a=1.01, b=0.0, c=0.998, d=0.0)
    )
    fixed_threshold: float = float("inf")
    slo_multiplier: float = 10.0
    offered_load: Optional[float] = None
    worker_bound: int = 2
    allow_remigration: bool = False
    steering_policy: str = "connection"
    runtime_enabled: bool = True
    messaging: str = "hw"
    dispatch_mode: Optional[str] = None
    #: Application-isolation extension (the paper's stated future work,
    #: Sec. XI): a partition of the group indices.  Migrations never
    #: cross domain boundaries, so co-located applications cannot
    #: pollute each other's groups.  None = one global domain.
    migration_domains: Optional[List[List[int]]] = None
    #: Model per-link NoC contention for Altocumulus messages.  Off by
    #: default (the paper argues the NoC is lightly loaded, Sec. V-B);
    #: the ablation bench turns it on to verify that claim.
    noc_link_contention: bool = False

    def __post_init__(self) -> None:
        if self.n_groups <= 0:
            raise ValueError(f"n_groups must be positive, got {self.n_groups}")
        if self.group_size < 2:
            raise ValueError(
                f"group_size must be >= 2 (manager + worker), got {self.group_size}"
            )
        if self.period_ns <= 0:
            raise ValueError(f"period_ns must be positive, got {self.period_ns}")
        if self.bulk <= 0:
            raise ValueError(f"bulk must be positive, got {self.bulk}")
        if self.concurrency <= 0:
            raise ValueError(f"concurrency must be positive, got {self.concurrency}")
        if self.variant not in ("int", "rss"):
            raise ValueError(f"variant must be 'int' or 'rss', got {self.variant!r}")
        if self.interface not in ("isa", "msr"):
            raise ValueError(
                f"interface must be 'isa' or 'msr', got {self.interface!r}"
            )
        if self.threshold_mode not in ("model", "upper_bound", "fixed"):
            raise ValueError(
                "threshold_mode must be 'model', 'upper_bound' or 'fixed', "
                f"got {self.threshold_mode!r}"
            )
        if self.slo_multiplier <= 0:
            raise ValueError(
                f"slo_multiplier must be positive, got {self.slo_multiplier}"
            )
        if self.worker_bound <= 0:
            raise ValueError(
                f"worker_bound must be positive, got {self.worker_bound}"
            )
        if self.messaging not in ("hw", "sw"):
            raise ValueError(
                f"messaging must be 'hw' or 'sw', got {self.messaging!r}"
            )
        if self.dispatch_mode not in (None, "hw", "sw"):
            raise ValueError(
                f"dispatch_mode must be None, 'hw' or 'sw', got {self.dispatch_mode!r}"
            )
        if self.migration_domains is not None:
            flat = [g for domain in self.migration_domains for g in domain]
            if sorted(flat) != list(range(self.n_groups)):
                raise ValueError(
                    "migration_domains must partition the group indices "
                    f"0..{self.n_groups - 1}, got {self.migration_domains}"
                )

    # ------------------------------------------------------------------
    @property
    def n_cores(self) -> int:
        """Total cores (managers + workers)."""
        return self.n_groups * self.group_size

    @property
    def workers_per_group(self) -> int:
        return self.group_size - 1

    @property
    def n_workers(self) -> int:
        return self.n_groups * self.workers_per_group

    def domain_of(self, group: int) -> List[int]:
        """The isolation domain containing ``group`` (all groups if no
        domains are configured)."""
        if not 0 <= group < self.n_groups:
            raise ValueError(f"group {group} out of range")
        if self.migration_domains is None:
            return list(range(self.n_groups))
        for domain in self.migration_domains:
            if group in domain:
                return list(domain)
        raise AssertionError("validated partition must cover every group")

    @property
    def effective_dispatch(self) -> str:
        """How requests move from the manager's NetRX to workers.

        Defaults by NIC variant (AC_int ships hardware JBSQ; AC_rss
        dispatches in manager software), but Fig. 14's AC_rss pairs the
        commodity NIC with the in-CPU hardware path -- override with
        ``dispatch_mode="hw"`` for that configuration.
        """
        if self.dispatch_mode is not None:
            return self.dispatch_mode
        return "sw" if self.variant == "rss" else "hw"
