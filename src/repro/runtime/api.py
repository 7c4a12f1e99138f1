"""Request/outcome contract of the fault-tolerant solve runtime.

The runtime's API is deliberately process-boundary-shaped: a
:class:`SolveRequest` carries a *description* of a problem (a
picklable :class:`ProblemSpec`), never a live system object, so the
same request can be executed in this process, in a pool worker, or
retried in-process after a worker crash, and always builds the
identical problem. A :class:`SolveOutcome` is the one terminal shape
every request ends in — converged, failed, or timed out — with the
degradation-ladder rung that produced the answer, the retry/fault
history, and the residual actually achieved. The runtime never lets a
solve escape as a raised exception or a hang.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analog.health import stable_seed
from repro.families import FAMILIES, ProblemFamily

__all__ = [
    "DEFAULT_RUNGS",
    "DeadlineExceeded",
    "PoolBroken",
    "Deadline",
    "ProblemSpec",
    "RetryPolicy",
    "SolveRequest",
    "SolveOutcome",
    "TERMINAL_STATUSES",
    "check_rungs",
    "stable_seed",
]

# Every outcome ends in exactly one of these.
TERMINAL_STATUSES = ("converged", "failed", "timeout")

# The degradation ladder's rungs, in descent order; every rung name a
# request or a ladder may name is one of these.
DEFAULT_RUNGS: Tuple[str, ...] = ("hybrid", "damped_newton", "homotopy")


def check_rungs(rungs: Tuple[str, ...]) -> Tuple[str, ...]:
    """Validate a rung order; returns it as a tuple.

    Raises :class:`ValueError` for an empty order or a name outside
    :data:`DEFAULT_RUNGS`.
    """
    unknown = set(rungs) - set(DEFAULT_RUNGS)
    if unknown:
        raise ValueError(f"unknown ladder rungs: {sorted(unknown)}")
    if not rungs:
        raise ValueError("the ladder needs at least one rung")
    return tuple(rungs)


class DeadlineExceeded(RuntimeError):
    """A solve ran past its per-request deadline (cooperative check)."""


class PoolBroken(RuntimeError):
    """The process pool died and the runtime was told not to degrade.

    Raised by :class:`~repro.runtime.runtime.Runtime` only under
    ``on_pool_break="fail"`` — the posture a multi-shard service wants,
    where a broken shard should surface as a crash (so the service can
    fail requests over to healthy shards via the journal) instead of
    silently limping along in-process on the dead shard's host.
    """


class Deadline:
    """A per-attempt time budget with a cooperative raise-on-expiry check."""

    def __init__(self, seconds: float, clock: Callable[[], float] = time.monotonic):
        if seconds <= 0:
            raise ValueError("deadline seconds must be positive")
        self.seconds = float(seconds)
        self._clock = clock
        self._t0 = clock()

    @property
    def remaining(self) -> float:
        return self.seconds - (self._clock() - self._t0)

    @property
    def expired(self) -> bool:
        return self.remaining <= 0.0

    def check(self) -> None:
        if self.expired:
            raise DeadlineExceeded(f"deadline of {self.seconds:.3f}s exceeded")


@dataclass(frozen=True)
class ProblemSpec:
    """A picklable recipe for one nonlinear problem instance.

    ``kind`` names the problem family (:data:`repro.families.FAMILIES`,
    checked on construction); ``params`` (a sorted tuple of key/value
    pairs, kept hashable) parameterizes it. :meth:`build` returns the
    live ``(system, initial_guess)`` pair and is always called inside
    whichever process executes the attempt.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown problem kind {self.kind!r}")

    @classmethod
    def burgers(cls, grid_n: int, reynolds: float, seed: int) -> "ProblemSpec":
        """A random 2-D Burgers instance (the paper's Section 6.1 setup)."""
        return cls(
            kind="burgers",
            params=(("grid_n", int(grid_n)), ("reynolds", float(reynolds)), ("seed", int(seed))),
        )

    @classmethod
    def quadratic(cls, rhs0: float = 1.0, rhs1: float = 1.0,
                  guess: Tuple[float, float] = (1.0, 1.0)) -> "ProblemSpec":
        """The paper's Equation 2 coupled quadratic (cheap; soak tests)."""
        return cls(
            kind="quadratic",
            params=(("rhs0", float(rhs0)), ("rhs1", float(rhs1)),
                    ("guess", (float(guess[0]), float(guess[1])))),
        )

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def family(self) -> ProblemFamily:
        """This spec's entry in the problem-family table."""
        return FAMILIES[self.kind]

    def build(self):
        """Instantiate ``(system, initial_guess)`` for this spec."""
        return self.family.build(self.as_dict())


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    ``delay_for`` is a pure function of (runtime seed, request id,
    attempt), so the schedule a request experiences is independent of
    worker count and of what the rest of the batch is doing.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be nonnegative")

    def delay_for(self, seed: int, request_id: str, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (attempts count from 0)."""
        base = min(self.max_delay, self.base_delay * (2.0 ** max(attempt - 1, 0)))
        rng = np.random.default_rng(stable_seed(seed, request_id, attempt, "backoff"))
        return float(base * (1.0 + self.jitter * rng.uniform()))


@dataclass
class SolveRequest:
    """One unit of work for the runtime.

    Attributes
    ----------
    request_id:
        Caller-chosen identifier; unique within a batch. Keys the
        request's fault draws, backoff jitter and accelerator die.
    problem:
        The picklable problem recipe.
    deadline_seconds:
        Per-attempt time budget. Enforced cooperatively inside the
        solver (iteration hook) and, in pooled mode, by a parent-side
        watchdog with a grace margin for true hangs.
    rungs:
        Optional override of the degradation-ladder rung order (e.g.
        ``("damped_newton",)`` for digital-only soak batches); a
        nonempty subset of :data:`DEFAULT_RUNGS`.
    """

    request_id: str
    problem: ProblemSpec
    deadline_seconds: Optional[float] = None
    rungs: Optional[Tuple[str, ...]] = None
    value_bound: float = 3.0
    analog_time_limit: float = 60.0

    def __post_init__(self) -> None:
        if not self.request_id:
            raise ValueError("request_id must be nonempty")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive when set")
        if self.rungs is not None:
            check_rungs(self.rungs)


@dataclass
class SolveOutcome:
    """The terminal record of one request: every request gets exactly one.

    ``status`` is one of :data:`TERMINAL_STATUSES`; ``rung`` names the
    degradation-ladder rung that produced the accepted solution (or
    ``None`` when nothing converged); ``rungs_tried`` is the ladder
    path of the final attempt in order; ``faults`` lists every fault
    injected across all attempts (chaos runs) plus runtime-observed
    events such as ``worker_crash``.
    """

    request_id: str
    status: str
    rung: Optional[str] = None
    residual_norm: float = float("inf")
    attempts: int = 1
    retries: int = 0
    rungs_tried: Tuple[str, ...] = ()
    faults: Tuple[str, ...] = ()
    error: Optional[str] = None
    solution: Optional[np.ndarray] = None
    elapsed_seconds: float = 0.0
    iterations: int = 0
    attempt_history: List[str] = field(default_factory=list)
    """Per-attempt statuses in order, e.g. ``["timeout", "converged"]``."""
    health: Optional[Dict[str, Any]] = None
    """Final attempt's analog board state
    (:meth:`~repro.analog.health.DegradationSchedule.state_dict`) when a
    degradation model was active. It rides into the batch journal as a
    record only: each attempt builds a fresh schedule from its
    per-attempt seed, so nothing restores it on resume."""
    certificate: Optional[Any] = None
    """The :class:`~repro.certify.SolveCertificate` that admitted this
    answer when the runtime ran with certification on (``None`` for
    uncertified runs and non-converged outcomes). Journaled with the
    outcome so ``--resume`` replay and ``repro verify-journal`` can
    re-verify the commit instead of trusting it."""

    def __post_init__(self) -> None:
        if self.status not in TERMINAL_STATUSES:
            raise ValueError(
                f"status must be one of {TERMINAL_STATUSES}, got {self.status!r}"
            )

    @property
    def ok(self) -> bool:
        return self.status == "converged"
