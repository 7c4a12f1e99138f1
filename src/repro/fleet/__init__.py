"""Fleet-scale analog board management.

The layer between PR 4's single aging board and the north star's
"many users, many boards" story: a fleet of independently-seeded
boards, health-aware routing, board-granularity quarantine with
pressure-triggered recalibration, a predictive seed gate that vetoes
doomed analog settles before paying for them, and a structured
fleet-exhausted fallback (straight to damped Newton) when no healthy
board exists. See :mod:`repro.fleet.scheduler` for the state machine
and :mod:`repro.fleet.gate` for the gating math.
"""

from repro.fleet.board import AnalogBoard, BoardAssignment
from repro.fleet.gate import PredictiveSeedGate, problem_conditioning
from repro.fleet.scheduler import AnalogFleet, FleetConfig

__all__ = [
    "AnalogBoard",
    "AnalogFleet",
    "BoardAssignment",
    "FleetConfig",
    "PredictiveSeedGate",
    "problem_conditioning",
]
