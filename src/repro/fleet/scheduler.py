"""Fleet-scale board management: health-aware routing, quarantine,
pressure-triggered recalibration, structured exhaustion.

:class:`AnalogFleet` owns N :class:`~repro.fleet.board.AnalogBoard`
states and makes every fleet decision in the parent process (guarded
by one small lock, so a multi-shard service can share a single fleet
from its window threads):

* **routing** — each attempt goes to the healthiest *eligible* board:
  minimum health penalty (the gate's weighted rejection/drift EWMAs),
  ties to the lowest board id. Quarantined and killed boards are never
  eligible — the invariant the Hypothesis property tier pins is that a
  routed request landed on a board that was healthy at decision time;
* **predictive gating** — the chosen board's predicted seed quality
  (:class:`~repro.fleet.gate.PredictiveSeedGate`) can veto the settle
  up front (``settles_avoided``) or audit a would-be veto to score the
  prediction (``gate_false_positive`` / ``gate_vetoes_confirmed``);
* **quarantine** — a board whose rejection EWMA or drift EWMA crosses
  the fleet thresholds (with enough observations to call it climate,
  not weather) is quarantined at board granularity: it keeps its wear
  state but receives no more routes;
* **recalibration** — when the quarantined fraction reaches
  ``recalibration_pressure``, the worst quarantined board is re-nulled
  (:meth:`~repro.fleet.board.AnalogBoard.recalibrate`: EWMAs restart,
  the drift walk re-seeds on a bumped epoch, quarantine lifts) —
  trading one recalibration's downtime against fleet capacity, exactly
  like the single-board monitor of PR 4 but across devices;
* **exhaustion** — when no eligible board exists the fleet returns a
  structured ``fleet_exhausted`` assignment: the attempt skips the
  hybrid rung and degrades straight to damped Newton. Requests keep
  completing; only the analog speedup is lost;
* **kill seam** — ``kill_board(id)`` (or the deterministic
  ``kill_board_after=(board, routes)`` chaos config) marks a board
  dead mid-batch. It is immediately ineligible, and any in-flight
  attempt whose answer came off its hybrid rung is invalidated by
  :meth:`AnalogFleet.invalidate_if_killed` — the runtime charges a
  failed attempt and the retry re-routes, the board-level mirror of a
  killed shard's journal fail-over.

Every decision is logged to ``audit_log`` with the board's eligibility
at decision time, so "no settle ran on a quarantined board" is an
assertable fact, not a hope.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.analog.health import DegradationModel
from repro.fleet.board import AnalogBoard, BoardAssignment
from repro.fleet.gate import PredictiveSeedGate

__all__ = ["AnalogFleet", "FleetConfig"]

_AUDIT_LOG_BOUND = 100_000
# Gate settings older journals recorded that are now module constants.
_RETIRED_GATE_KEYS = ("rejection_weight", "drift_weight")


@dataclass
class FleetConfig:
    """Everything needed to rebuild an identical fleet (JSON-able).

    ``board_models`` overrides the runtime-level degradation model for
    specific boards (heterogeneous fleets: one hot board among healthy
    peers); unlisted boards inherit the runtime's model.
    ``kill_board_after=(board, routes)`` is the deterministic chaos
    seam: the board dies once the fleet has made that many routing
    decisions.
    """

    boards: int = 1
    quarantine_rejections: float = 0.75
    quarantine_drift: float = 1.2
    min_observations: int = 4
    recalibration_pressure: float = 0.5
    gate: PredictiveSeedGate = field(default_factory=PredictiveSeedGate)
    board_models: Optional[Dict[int, DegradationModel]] = None
    kill_board_after: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.boards < 1:
            raise ValueError("boards must be at least 1")
        if self.min_observations < 1:
            raise ValueError("min_observations must be at least 1")
        if not 0.0 < self.recalibration_pressure <= 1.0:
            raise ValueError("recalibration_pressure must be in (0, 1]")

    def to_record(self) -> Dict[str, Any]:
        """JSON round-trippable form (the journal's config record)."""
        return {
            "boards": self.boards,
            "quarantine_rejections": self.quarantine_rejections,
            "quarantine_drift": self.quarantine_drift,
            "min_observations": self.min_observations,
            "recalibration_pressure": self.recalibration_pressure,
            "gate": {
                "threshold": self.gate.threshold,
                "min_observations": self.gate.min_observations,
                "audit_rate": self.gate.audit_rate,
                "enabled": self.gate.enabled,
            },
            "board_models": (
                {str(key): model.to_record() for key, model in self.board_models.items()}
                if self.board_models
                else None
            ),
            "kill_board_after": (
                list(self.kill_board_after) if self.kill_board_after else None
            ),
        }

    @classmethod
    def from_record(cls, raw: Dict[str, Any]) -> "FleetConfig":
        """Inverse of :meth:`to_record`. The ``ewma_alpha``,
        ``rejection_weight`` and ``drift_weight`` keys of older journals
        are ignored: they always held today's constants."""
        board_models = None
        if raw.get("board_models"):
            board_models = {
                int(key): DegradationModel.from_record(model)
                for key, model in raw["board_models"].items()
            }
        kill = raw.get("kill_board_after")
        return cls(
            boards=int(raw.get("boards", 1)),
            quarantine_rejections=float(raw.get("quarantine_rejections", 0.75)),
            quarantine_drift=float(raw.get("quarantine_drift", 1.2)),
            min_observations=int(raw.get("min_observations", 4)),
            recalibration_pressure=float(raw.get("recalibration_pressure", 0.5)),
            gate=PredictiveSeedGate(
                **{
                    key: value
                    for key, value in (raw.get("gate") or {}).items()
                    if key not in _RETIRED_GATE_KEYS
                }
            ),
            board_models=board_models,
            kill_board_after=(int(kill[0]), int(kill[1])) if kill else None,
        )


class AnalogFleet:
    """The fleet state machine; all methods are thread-safe."""

    def __init__(
        self,
        config: Optional[FleetConfig] = None,
        degradation: Optional[DegradationModel] = None,
        seed: int = 0,
    ):
        self.config = config or FleetConfig()
        self.gate = self.config.gate
        self.seed = int(seed)
        self.degradation = degradation
        overrides = self.config.board_models or {}
        self.boards: List[AnalogBoard] = [
            AnalogBoard(board_id=index, model=overrides.get(index, degradation))
            for index in range(self.config.boards)
        ]
        self.routes = 0
        self.audit_log: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = {}
        self._lock = threading.Lock()

    # -- routing --------------------------------------------------------

    def eligible_boards(self) -> List[AnalogBoard]:
        return [board for board in self.boards if board.eligible]

    def route(
        self, request: Any, attempt: int
    ) -> Tuple[BoardAssignment, Dict[str, float]]:
        """Pick a board for one attempt; returns (assignment, events).

        ``events`` are the counter bumps this decision caused
        (``settles_avoided`` / ``gate_audits`` / ``fleet_exhausted``),
        for the runtime to record with journal attribution.
        """
        with self._lock:
            self._apply_scheduled_kill()
            self.routes += 1
            events: Dict[str, float] = {}
            candidates = [board for board in self.boards if board.eligible]
            if not candidates:
                events["fleet_exhausted"] = 1
                # No board to settle on: digital rungs only, on board
                # 0's die stream and with no drift model.
                assignment = replace(
                    AnalogBoard(board_id=0).assign(
                        self.seed, request.request_id, attempt
                    ),
                    board_id=-1,
                    fleet_exhausted=True,
                )
                self._log(request.request_id, attempt, assignment, eligible=True)
                self._count(events)
                return assignment, events
            board = min(
                candidates, key=lambda b: (self.gate.penalty(b), b.board_id)
            )
            decision, predicted, kappa = self.gate.decide(
                board, request.problem, self.seed, request.request_id, attempt
            )
            board.routed += 1
            if decision == "veto":
                board.vetoes += 1
                events["settles_avoided"] = 1
            elif decision == "audit":
                board.audits += 1
                events["gate_audits"] = 1
            assignment = board.assign(
                self.seed,
                request.request_id,
                attempt,
                gate_decision=decision,
                predicted_quality=predicted,
                conditioning=kappa,
                health_penalty=self.gate.penalty(board),
            )
            self._log(request.request_id, attempt, assignment, eligible=board.eligible)
            self._count(events)
            return assignment, events

    def _apply_scheduled_kill(self) -> None:
        kill = self.config.kill_board_after
        if kill is None:
            return
        board_id, after_routes = kill
        if self.routes >= after_routes and 0 <= board_id < len(self.boards):
            board = self.boards[board_id]
            if not board.killed:
                board.killed = True
                self.counters["boards_killed"] = (
                    self.counters.get("boards_killed", 0) + 1
                )

    def kill_board(self, board_id: int) -> None:
        """Chaos seam: the board is gone, effective immediately."""
        with self._lock:
            board = self.boards[board_id]
            if not board.killed:
                board.killed = True
                self.counters["boards_killed"] = (
                    self.counters.get("boards_killed", 0) + 1
                )

    def condemn(self, board_id: int, reason: str) -> Dict[str, float]:
        """External evidence says this board lies: quarantine it now.

        The EWMA path (:meth:`observe`) quarantines on *trends*; this
        is the immediate path for point evidence too strong to average
        away — a failed solve certificate blamed on the board's hybrid
        rung, or a failed canary probe. The board keeps its wear state
        and stays recalibratable under pressure relief, same as an
        EWMA quarantine. Returns the counter events (``{}`` when the
        board is already out of service or the id is out of range).
        """
        with self._lock:
            if not 0 <= board_id < len(self.boards):
                return {}
            board = self.boards[board_id]
            if board.killed or board.quarantined:
                return {}
            board.quarantined = True
            board.quarantine_reason = reason
            events: Dict[str, float] = {
                "boards_condemned": 1,
                "boards_quarantined": 1,
            }
            self._count(events)
            return events

    # -- evidence and lifecycle -----------------------------------------

    def invalidate_if_killed(self, assignment: BoardAssignment, report: Any) -> Optional[str]:
        """An answer off a now-dead board's hybrid rung is no answer.

        Returns the failure message when the report must be voided
        (converged via the hybrid rung of a board killed while the
        attempt was in flight); the runtime then charges a failed
        attempt and the retry re-routes — board fail-over. Digital
        results (damped Newton, homotopy) survive the board's death.
        """
        if assignment.fleet_exhausted or assignment.board_id < 0:
            return None
        with self._lock:
            board = self.boards[assignment.board_id]
            if board.killed and report.rung == "hybrid":
                self.counters["board_failovers"] = (
                    self.counters.get("board_failovers", 0) + 1
                )
                return f"board {board.board_id} killed mid-attempt"
        return None

    def observe(self, assignment: BoardAssignment, report: Any) -> Dict[str, float]:
        """Fold one attempt's outcome back into fleet state.

        Only attempts that actually exercised the hybrid rung carry
        analog evidence (a vetoed or exhausted attempt says nothing
        about the board). Returns counter events:
        ``gate_false_positive`` / ``gate_vetoes_confirmed`` (audit
        verdicts), ``boards_quarantined``, ``board_recalibrations``,
        ``board_failovers``.
        """
        events: Dict[str, float] = {}
        if assignment.fleet_exhausted or assignment.board_id < 0:
            return events
        rungs_tried = tuple(report.rungs_tried or ())
        if "hybrid" not in rungs_tried:
            return events
        with self._lock:
            board = self.boards[assignment.board_id]
            # The post-settle verdict: the answer came off the hybrid
            # rung iff the seed was accepted and polished successfully.
            rejected = report.rung != "hybrid"
            drift = self._drift_from_health(report.health)
            board.observe(rejected=rejected, drift=drift)
            if assignment.gate_decision == "audit":
                if rejected:
                    events["gate_vetoes_confirmed"] = 1
                else:
                    board.gate_false_positives += 1
                    events["gate_false_positive"] = 1
            if self._maybe_quarantine(board):
                events["boards_quarantined"] = 1
            recalibrated = self._relieve_pressure()
            if recalibrated:
                events["board_recalibrations"] = recalibrated
            self._count(events)
        return events

    @staticmethod
    def _drift_from_health(health: Optional[Dict[str, Any]]) -> float:
        """Largest accumulated drift the attempt's schedule reported."""
        if not health:
            return 0.0
        magnitudes = [abs(float(v)) for v in (health.get("gain_drift") or {}).values()]
        magnitudes += [abs(float(v)) for v in (health.get("offset_drift") or {}).values()]
        return max(magnitudes, default=0.0)

    def _maybe_quarantine(self, board: AnalogBoard) -> bool:
        if board.quarantined or board.killed:
            return False
        if board.observations < self.config.min_observations:
            return False
        if board.rejection_ewma > self.config.quarantine_rejections:
            board.quarantined = True
            board.quarantine_reason = (
                f"rejection EWMA {board.rejection_ewma:.3g} beyond "
                f"{self.config.quarantine_rejections:.3g}"
            )
        elif board.drift_ewma > self.config.quarantine_drift:
            board.quarantined = True
            board.quarantine_reason = (
                f"drift EWMA {board.drift_ewma:.3g} beyond "
                f"{self.config.quarantine_drift:.3g}"
            )
        return board.quarantined

    def quarantine_pressure(self) -> float:
        alive = [board for board in self.boards if not board.killed]
        if not alive:
            return 0.0
        return sum(1 for board in alive if board.quarantined) / float(len(alive))

    def _relieve_pressure(self) -> int:
        """Recalibrate worst quarantined boards while pressure holds."""
        recalibrated = 0
        while self.quarantine_pressure() >= self.config.recalibration_pressure:
            quarantined = [board for board in self.boards if board.quarantined]
            if not quarantined:
                break
            worst = max(
                quarantined, key=lambda b: (self.gate.penalty(b), -b.board_id)
            )
            worst.recalibrate()
            recalibrated += 1
        return recalibrated

    # -- bookkeeping ----------------------------------------------------

    def _count(self, events: Dict[str, float]) -> None:
        for name, value in events.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def _log(
        self,
        request_id: str,
        attempt: int,
        assignment: BoardAssignment,
        eligible: bool,
    ) -> None:
        if len(self.audit_log) >= _AUDIT_LOG_BOUND:
            return
        self.audit_log.append(
            {
                "request_id": request_id,
                "attempt": attempt,
                "board": assignment.board_id,
                "decision": assignment.gate_decision,
                "exhausted": assignment.fleet_exhausted,
                "eligible_at_decision": eligible,
            }
        )

    def stats(self) -> Dict[str, Any]:
        """Fleet summary: per-board state plus decision counters.

        ``routed_while_ineligible`` is the audit-log invariant count —
        the chaos tier asserts it is zero (no settle was ever routed to
        a quarantined or killed board).
        """
        with self._lock:
            return {
                "boards": [board.summary() for board in self.boards],
                "routes": self.routes,
                "counters": dict(self.counters),
                "quarantine_pressure": self.quarantine_pressure(),
                "routed_while_ineligible": sum(
                    1
                    for entry in self.audit_log
                    if not entry["exhausted"] and not entry["eligible_at_decision"]
                ),
            }

