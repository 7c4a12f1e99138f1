"""One analog board in a fleet: identity, seed streams, health EWMAs.

A fleet board is the parent-side bookkeeping for one piece of analog
silicon. The silicon itself is still simulated per attempt inside
:func:`repro.runtime.runtime._execute_attempt` (a fresh
:class:`~repro.analog.engine.AnalogAccelerator` whose die and
degradation schedule are seeded from stable streams, so any worker
process reproduces them bitwise); what the *board* owns is

* the **seed streams** that make it a distinct device: board 0 keys
  its streams by ``(seed, request, attempt)`` alone
  (``stable_seed(seed, request, attempt, "die")`` /
  ``..., "degradation"``), and a :class:`~repro.runtime.runtime.Runtime`
  without a fleet runs every attempt on board 0's assignment, which is
  what makes a one-board fleet bitwise-identical to no fleet at all;
  boards 1..N-1 mix their board id into the key, so each board is an
  independently-seeded piece of silicon with its own mismatch pattern
  and its own drift walk;
* the **recalibration epoch**: recalibrating a board re-nulls its
  drift, which in seed terms means the degradation walk restarts on a
  fresh stream (the epoch joins the key). The die seed never changes
  — recalibration trims the DACs, it does not swap the silicon;
* the **health EWMAs** the scheduler routes on: an EWMA of observed
  hybrid-rung seed rejections and an EWMA of the drift magnitude the
  attempt's schedule reported back, folded in by
  :meth:`AnalogFleet.observe <repro.fleet.scheduler.AnalogFleet.observe>`
  after every attempt that actually ran analog.

A :class:`BoardAssignment` (built by :meth:`AnalogBoard.assign`) is the
picklable description of the silicon one attempt runs on: board id,
both seeds, the per-board degradation model, and the predictive gate's
verdict. It is the only description of an attempt's die and drift
walk. Workers stay stateless — all fleet state lives in the parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.analog.health import DegradationModel, stable_seed

__all__ = ["FLEET_EWMA_ALPHA", "AnalogBoard", "BoardAssignment"]

# Smoothing factor of every board's rejection and drift EWMAs.
FLEET_EWMA_ALPHA = 0.5


@dataclass(frozen=True)
class BoardAssignment:
    """One routing decision, shipped (picklable) into the attempt.

    ``gate_decision`` is the :class:`~repro.fleet.gate.PredictiveSeedGate`
    verdict: ``"allow"`` runs the ladder normally, ``"veto"`` skips the
    hybrid rung entirely (the settle this fleet exists to avoid), and
    ``"audit"`` runs a would-be veto anyway so the gate's prediction
    can be scored against the actual post-settle verdict.
    ``fleet_exhausted`` marks the structured fallback: no healthy board
    existed, the attempt degrades straight to damped Newton on board
    0's die stream with no degradation model.
    """

    board_id: int
    die_seed: int
    degradation_seed: int
    epoch: int = 0
    degradation: Optional[DegradationModel] = None
    gate_decision: str = "allow"
    predicted_quality: float = 0.0
    conditioning: float = 1.0
    health_penalty: float = 0.0
    fleet_exhausted: bool = False

    @property
    def skip_analog(self) -> bool:
        """True when the attempt must not run the hybrid rung."""
        return self.fleet_exhausted or self.gate_decision == "veto"


@dataclass
class AnalogBoard:
    """Parent-side state of one board: seeds, wear evidence, lifecycle."""

    board_id: int
    model: Optional[DegradationModel] = None
    epoch: int = 0
    observations: int = 0
    rejection_ewma: float = 0.0
    drift_ewma: float = 0.0
    routed: int = 0
    vetoes: int = 0
    audits: int = 0
    gate_false_positives: int = 0
    recalibrations: int = 0
    quarantined: bool = False
    quarantine_reason: Optional[str] = None
    killed: bool = False

    @property
    def eligible(self) -> bool:
        return not (self.quarantined or self.killed)

    # -- seed streams ---------------------------------------------------

    def die_seed(self, runtime_seed: int, request_id: str, attempt: int) -> int:
        """The accelerator die seed this board gives (request, attempt).

        Board 0 reproduces the pre-fleet stream exactly; other boards
        key their id in, so each is independent silicon. Recalibration
        never changes the die — trimming is not a respin.
        """
        if self.board_id == 0:
            return stable_seed(runtime_seed, request_id, attempt, "die") % (2**31)
        return (
            stable_seed(
                runtime_seed, request_id, attempt, "die", "board", self.board_id
            )
            % (2**31)
        )

    def degradation_seed(self, runtime_seed: int, request_id: str, attempt: int) -> int:
        """Seed of this board's drift walk for (request, attempt).

        Board 0 at epoch 0 is the pre-fleet stream; any recalibration
        bumps the epoch into the key, modelling a re-nulled board whose
        subsequent drift is a fresh walk.
        """
        if self.board_id == 0 and self.epoch == 0:
            return stable_seed(runtime_seed, request_id, attempt, "degradation")
        return stable_seed(
            runtime_seed,
            request_id,
            attempt,
            "degradation",
            "board",
            self.board_id,
            "epoch",
            self.epoch,
        )

    def assign(
        self, runtime_seed: int, request_id: str, attempt: int, **verdict: Any
    ) -> BoardAssignment:
        """This board's assignment for (request, attempt): its seeds,
        epoch and degradation model, plus the routing ``verdict``
        fields (gate decision, prediction, penalty, exhaustion)."""
        return BoardAssignment(
            board_id=self.board_id,
            die_seed=self.die_seed(runtime_seed, request_id, attempt),
            degradation_seed=self.degradation_seed(runtime_seed, request_id, attempt),
            epoch=self.epoch,
            degradation=self.model,
            **verdict,
        )

    # -- health evidence ------------------------------------------------

    def observe(self, rejected: bool, drift: float) -> None:
        """Fold one analog attempt's evidence into the board EWMAs."""
        rejected_value = 1.0 if rejected else 0.0
        drift = float(drift)
        if self.observations == 0:
            self.rejection_ewma = rejected_value
            self.drift_ewma = drift
        else:
            self.rejection_ewma += FLEET_EWMA_ALPHA * (rejected_value - self.rejection_ewma)
            self.drift_ewma += FLEET_EWMA_ALPHA * (drift - self.drift_ewma)
        self.observations += 1

    def recalibrate(self) -> None:
        """Re-null the board: EWMAs restart, the drift walk re-seeds
        (epoch bump), any quarantine lifts. The die is untouched."""
        self.epoch += 1
        self.recalibrations += 1
        self.observations = 0
        self.rejection_ewma = 0.0
        self.drift_ewma = 0.0
        self.quarantined = False
        self.quarantine_reason = None

    def summary(self) -> Dict[str, Any]:
        return {
            "board": self.board_id,
            "epoch": self.epoch,
            "routed": self.routed,
            "observations": self.observations,
            "rejection_ewma": self.rejection_ewma,
            "drift_ewma": self.drift_ewma,
            "vetoes": self.vetoes,
            "audits": self.audits,
            "gate_false_positives": self.gate_false_positives,
            "recalibrations": self.recalibrations,
            "quarantined": self.quarantined,
            "quarantine_reason": self.quarantine_reason,
            "killed": self.killed,
        }
