"""Deterministic fault injection for the runtime's chaos harness.

Robustness that is asserted but never exercised is fiction; the
:class:`FaultInjector` makes the failure modes the runtime claims to
survive *reproducible test inputs*:

* ``analog_spike`` — the accelerator's measurement comes back silently
  corrupted (large noise added to the solution while ``converged``
  stays set): the poisoned-seed case of Figure 6 taken to the extreme,
  which the degradation ladder must absorb by falling past the hybrid
  rung;
* ``solver_hang`` — a bounded stall inside the Newton iteration, which
  the deadline watchdog must convert into a ``timeout`` outcome and a
  retry instead of a stuck batch;
* ``worker_crash`` — the worker process dies mid-solve
  (``os._exit``), which the pool supervisor must convert into charged
  crashed attempts plus a degrade of the rest of the window to
  in-process execution. In serial (in-process) mode the
  crash is simulated by raising :class:`InjectedWorkerCrash` so the
  suite exercises the same recovery path without killing the test
  process;
* ``silent_corruption`` — a small seeded element perturbation applied
  *after* the ladder accepts a converged answer, sized to evade the
  seed-quality gate and every bounds scan while failing the
  independent certificate (:mod:`repro.certify`) by orders of
  magnitude. The one fault no pre-solve gate can see — it exists to
  prove the a-posteriori certification layer earns its keep.

Faults are matched per ``(request_id, attempt)`` — either explicitly
via :class:`FaultSpec` or probabilistically via per-kind rates drawn
from :func:`repro.runtime.api.stable_seed`-keyed streams — so a chaos
run replays identically regardless of worker count or scheduling.
The injector is immutable-ish and picklable; per-attempt state (the
"fired once" latch of a hang, the log of injected faults) lives in the
closures and list handed out per attempt, never on the injector.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analog.health import DegradationModel
from repro.fleet.board import BoardAssignment
from repro.runtime.api import stable_seed

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultInjector",
    "InjectedWorkerCrash",
]

FAULT_KINDS = (
    "analog_spike",
    "solver_hang",
    "worker_crash",
    "degrade_analog",
    "silent_corruption",
)

_DEFAULT_MAGNITUDES = {
    # Spike amplitude in solution units (the dynamic range is +-3).
    "analog_spike": 1e4,
    # Stall length in seconds; bounded so an injected hang can never
    # wedge a suite, only a deadline.
    "solver_hang": 0.5,
    # Worker exit code (visible in pool diagnostics).
    "worker_crash": 17.0,
    # Offset-drift sigma per degradation step, in full-scale units.
    # Large enough that a single step already yields a gate-rejectable
    # seed (the per-attempt accelerator only ages one step), small
    # enough that the drifted continuous-Newton flow still settles
    # quickly instead of wandering a root-free landscape.
    "degrade_analog": 0.3,
    # Elementwise perturbation applied AFTER the solver accepts, in
    # solution units: large enough that the independent certificate's
    # relative-residual bound (1e-6) fails by orders of magnitude,
    # small enough to evade the seed-quality gate, the value-bound
    # scan, and any eyeball of the answer.
    "silent_corruption": 1e-3,
}


class InjectedWorkerCrash(RuntimeError):
    """Serial-mode stand-in for a worker process dying mid-solve."""


@dataclass(frozen=True)
class FaultSpec:
    """One targeted fault: inject ``kind`` on a specific attempt.

    ``request_id=None`` matches every request (useful for
    every-first-attempt scenarios). ``magnitude`` falls back to the
    per-kind default when not set.
    """

    kind: str
    request_id: Optional[str] = None
    attempt: int = 0
    magnitude: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")

    def matches(self, request_id: str, attempt: int) -> bool:
        if self.attempt != attempt:
            return False
        return self.request_id is None or self.request_id == request_id

    @property
    def effective_magnitude(self) -> float:
        if self.magnitude is not None:
            return self.magnitude
        return _DEFAULT_MAGNITUDES[self.kind]


@dataclass(frozen=True)
class FaultInjector:
    """A seeded, picklable fault plan evaluated per (request, attempt).

    ``specs`` are explicit targeted faults; ``rates`` maps fault kind
    to a probability evaluated deterministically per
    ``(seed, request_id, attempt, kind)`` — a 0.25 rate hits the same
    requests every run, in every process.
    """

    specs: Tuple[FaultSpec, ...] = ()
    rates: Tuple[Tuple[str, float], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for kind, rate in self.rates:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r} in rates")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {kind!r} must be in [0, 1], got {rate}")

    @classmethod
    def from_rates(cls, rates: Dict[str, float], seed: int = 0) -> "FaultInjector":
        return cls(rates=tuple(sorted(rates.items())), seed=seed)

    # -- fault selection ------------------------------------------------

    def active_faults(self, request_id: str, attempt: int) -> List[FaultSpec]:
        """Every fault that fires for this attempt, deterministic."""
        active = [spec for spec in self.specs if spec.matches(request_id, attempt)]
        covered = {spec.kind for spec in active}
        for kind, rate in self.rates:
            if kind in covered or rate <= 0.0:
                continue
            rng = np.random.default_rng(stable_seed(self.seed, request_id, attempt, kind))
            if rng.uniform() < rate:
                active.append(FaultSpec(kind=kind, request_id=request_id, attempt=attempt))
        return active

    def _first(self, kind: str, request_id: str, attempt: int) -> Optional[FaultSpec]:
        for spec in self.active_faults(request_id, attempt):
            if spec.kind == kind:
                return spec
        return None

    # -- the three seams ------------------------------------------------

    def maybe_crash_worker(
        self, request_id: str, attempt: int, allow_process_exit: bool
    ) -> None:
        """Kill the executing worker if a ``worker_crash`` fault fires.

        In pooled mode (``allow_process_exit=True``) this is a real
        ``os._exit`` — the parent sees a broken pool, exactly as with a
        segfault or an OOM kill. In serial mode it raises
        :class:`InjectedWorkerCrash` for the runtime to treat as a
        crashed attempt.
        """
        spec = self._first("worker_crash", request_id, attempt)
        if spec is None:
            return
        if allow_process_exit:
            os._exit(int(spec.effective_magnitude))
        raise InjectedWorkerCrash(
            f"injected worker crash for {request_id!r} attempt {attempt}"
        )

    def analog_hook(
        self, request_id: str, attempt: int, log: List[str]
    ) -> Optional[Callable]:
        """An ``AnalogAccelerator.fault_hook`` corrupting the seed, or None.

        The corruption is *silent*: the result keeps ``converged=True``
        while the measured solution is blasted with seeded noise — the
        worst case for the hybrid rung, whose polish then starts far
        outside the quadratic basin.
        """
        spec = self._first("analog_spike", request_id, attempt)
        if spec is None:
            return None
        injector_seed = stable_seed(self.seed, request_id, attempt, "analog_spike_noise")

        def corrupt(result):
            rng = np.random.default_rng(injector_seed)
            result.solution = result.solution + spec.effective_magnitude * rng.standard_normal(
                result.solution.shape
            )
            result.converged = True
            result.residual_norm = float("nan")
            log.append("analog_spike")
            return result

        return corrupt

    def corruption_hook(
        self, request_id: str, attempt: int, log: List[str]
    ) -> Optional[Callable]:
        """A post-acceptance solution corrupter, or None.

        Unlike :meth:`analog_hook` (which poisons the analog *seed*,
        for the ladder's polish to recover from), this fires after the
        ladder has already accepted a converged answer: a few seeded
        elements are nudged by ``magnitude`` while the reported
        ``residual_norm`` keeps its converged value — that lie is what
        makes the corruption *silent*. Only the independent certificate
        can catch it.
        """
        spec = self._first("silent_corruption", request_id, attempt)
        if spec is None:
            return None
        injector_seed = stable_seed(self.seed, request_id, attempt, "silent_corruption")

        def corrupt(solution: np.ndarray) -> np.ndarray:
            rng = np.random.default_rng(injector_seed)
            corrupted = np.array(solution, dtype=float, copy=True)
            hits = max(1, min(3, corrupted.size))
            indices = rng.choice(corrupted.size, size=hits, replace=False)
            signs = rng.choice((-1.0, 1.0), size=hits)
            corrupted[indices] += signs * spec.effective_magnitude
            log.append("silent_corruption")
            return corrupted

        return corrupt

    def degrade(
        self, board: BoardAssignment, request_id: str, attempt: int, log: List[str]
    ) -> BoardAssignment:
        """The attempt's :class:`~repro.fleet.board.BoardAssignment`,
        edited when a ``degrade_analog`` fault fires.

        The edit puts the attempt's accelerator on a board whose
        components drift (offset walk of ``magnitude`` full-scale units
        per step, plus a tenth of that in gain), seeded from the fault's
        own stream; it replaces the board's model, even on a
        fleet-exhausted assignment. That is the drift-induced bad seed
        the health layer must catch: gate rejection, ladder demotion to
        ``damped_newton``, and eventually tile quarantine.
        """
        spec = self._first("degrade_analog", request_id, attempt)
        if spec is None:
            return board
        magnitude = spec.effective_magnitude
        model = DegradationModel(
            gain_drift_sigma=0.1 * magnitude,
            offset_drift_sigma=magnitude,
            seed=stable_seed(self.seed, request_id, attempt, "degrade_analog"),
        )
        log.append("degrade_analog")
        return replace(board, degradation=model, degradation_seed=model.seed)

    def iteration_hook(
        self, request_id: str, attempt: int, log: List[str]
    ) -> Optional[Callable[[int, float], None]]:
        """A Newton iteration hook injecting one bounded stall, or None."""
        spec = self._first("solver_hang", request_id, attempt)
        if spec is None:
            return None
        state = {"fired": False}

        def stall(iteration: int, residual_norm: float) -> None:
            if state["fired"]:
                return
            state["fired"] = True
            log.append("solver_hang")
            time.sleep(spec.effective_magnitude)

        return stall

