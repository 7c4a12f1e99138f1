"""A-priori seed gating: veto doomed analog settles before paying.

The post-settle gate (:func:`repro.analog.health.assess_seed`) judges
a seed *after* the settle — the settle time and the ADC readout are
already spent by the time a drifted board's seed is rejected. The
hybrid-dynamical accuracy-bounds analysis (arXiv:2410.06397) says the
post-settle relative residual of an analog seed scales, to first
order, with the board's accumulated drift amplified by the problem's
conditioning: a stiff, large system turns the same physical drift into
a proportionally worse seed. That gives an *a-priori* score the fleet
can act on:

``predicted = (w_r * rejection_EWMA + w_d * drift_EWMA) * kappa(P)``

with the fixed weights ``w_r =`` :data:`REJECTION_WEIGHT` and
``w_d =`` :data:`DRIFT_WEIGHT`. The EWMAs are the board's observed
evidence (fraction of recent hybrid rungs whose seed the post-settle
gate rejected, and the drift magnitude its schedules reported) and
``kappa`` is :func:`problem_conditioning` — a cheap proxy for the
bound's amplification factor. A score over ``threshold`` (the same 1.0
acceptance bound the post-settle gate uses: "no worse than the naive
guess") predicts a rejection, so the settle is skipped and the ladder
degrades straight to damped Newton (``settles_avoided``).

**Honest accounting**: a veto that skips the settle can never learn it
was wrong. So a seeded fraction of would-be vetoes (``audit_rate``,
keyed by ``stable_seed(seed, request, attempt, "gate_audit")`` like
every other stream) runs the settle anyway; an audited settle whose
seed the post-settle gate then *accepts* is counted as
``gate_false_positive``, one it rejects as ``gate_vetoes_confirmed``.
Each attempt's ``fleet_route`` span carries the gate's ``decision``,
``predicted`` score, ``conditioning`` and ``threshold``, and those two
counters carry the audit verdicts, so predicted-vs-actual is always
reconstructible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.analog.health import stable_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.board import AnalogBoard
    from repro.runtime.api import ProblemSpec

__all__ = [
    "DRIFT_WEIGHT",
    "REJECTION_WEIGHT",
    "PredictiveSeedGate",
    "problem_conditioning",
]

# Weights of the board-health penalty: a board that rejected every
# recent seed scores 2.0, and one unit of full-scale drift scores 4.0.
REJECTION_WEIGHT = 2.0
DRIFT_WEIGHT = 4.0


def problem_conditioning(problem: "ProblemSpec") -> float:
    """Conditioning proxy ``kappa(P) >= 1`` for the gate's amplification:
    the ``conditioning`` field of the problem's family entry
    (:data:`repro.families.FAMILIES`), ``1.0`` where it has none."""
    kappa = problem.family.conditioning
    return 1.0 if kappa is None else kappa(problem.as_dict())


@dataclass(frozen=True)
class PredictiveSeedGate:
    """Scores (board health x problem conditioning); vetoes up front.

    ``threshold`` mirrors the post-settle gate's acceptance bound: a
    predicted relative residual above it means the settle is expected
    to be rejected and is skipped. ``min_observations`` keeps the gate
    honest on cold boards — with no evidence it always allows (which is
    also what keeps a healthy one-board fleet bitwise identical to the
    pre-fleet path: penalty 0 never crosses any threshold).
    """

    threshold: float = 1.0
    min_observations: int = 2
    audit_rate: float = 0.125
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.threshold <= 0.0:
            raise ValueError("threshold must be positive")
        if self.min_observations < 1:
            raise ValueError("min_observations must be at least 1")
        if not 0.0 <= self.audit_rate <= 1.0:
            raise ValueError("audit_rate must be in [0, 1]")

    def penalty(self, board: "AnalogBoard") -> float:
        """The board-health half of the score (also the routing key)."""
        return REJECTION_WEIGHT * board.rejection_ewma + DRIFT_WEIGHT * board.drift_ewma

    def predict(self, board: "AnalogBoard", problem: "ProblemSpec") -> Tuple[float, float]:
        """Predicted relative seed quality and the conditioning used."""
        kappa = problem_conditioning(problem)
        return self.penalty(board) * kappa, kappa

    def decide(
        self,
        board: "AnalogBoard",
        problem: "ProblemSpec",
        runtime_seed: int,
        request_id: str,
        attempt: int,
    ) -> Tuple[str, float, float]:
        """Returns ``(decision, predicted, conditioning)``.

        ``decision`` is ``"allow"``, ``"veto"``, or ``"audit"`` (a
        would-be veto selected — by a seeded draw, so any worker count
        replays it — to run anyway and score the prediction).
        """
        predicted, kappa = self.predict(board, problem)
        if (
            not self.enabled
            or board.observations < self.min_observations
            or predicted <= self.threshold
        ):
            return "allow", predicted, kappa
        draw = np.random.default_rng(
            stable_seed(runtime_seed, request_id, attempt, "gate_audit")
        ).uniform()
        if draw < self.audit_rate:
            return "audit", predicted, kappa
        return "veto", predicted, kappa
