"""Fault-tolerant batched solve runtime for the hybrid solver stack.

This package is the serving layer on top of the reproduction's solver
library: a batch of :class:`SolveRequest` objects fanned over a
process pool, each attempt supervised by deadlines, bounded
seeded-backoff retries, and an explicit degradation ladder
(analog-seeded hybrid -> damped Newton -> homotopy continuation ->
structured failure), with every request guaranteed to end in exactly
one :class:`SolveOutcome`. A seeded :class:`FaultInjector` provides the
chaos-testing seam (silent analog spikes, solver hangs, worker
crashes), and the whole story — rungs, retries, faults, crashes — is
recorded through :mod:`repro.trace`.
"""

from repro.runtime.api import (
    Deadline,
    DeadlineExceeded,
    PoolBroken,
    ProblemSpec,
    RetryPolicy,
    SolveOutcome,
    SolveRequest,
    TERMINAL_STATUSES,
    stable_seed,
)
from repro.runtime.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    InjectedWorkerCrash,
)
from repro.runtime.ladder import (
    DEFAULT_RUNGS,
    DegradationLadder,
    LadderResult,
    RungAttempt,
    damped_recovery,
)
from repro.runtime.health_report import HealthReportResult, run_health_report
from repro.runtime.runtime import AttemptReport, BatchResult, Runtime

__all__ = [
    "AttemptReport",
    "BatchResult",
    "HealthReportResult",
    "run_health_report",
    "DEFAULT_RUNGS",
    "Deadline",
    "DeadlineExceeded",
    "DegradationLadder",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "InjectedWorkerCrash",
    "LadderResult",
    "PoolBroken",
    "ProblemSpec",
    "RetryPolicy",
    "Runtime",
    "RungAttempt",
    "SolveOutcome",
    "SolveRequest",
    "TERMINAL_STATUSES",
    "damped_recovery",
    "stable_seed",
]
