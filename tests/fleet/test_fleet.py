"""Unit tests for :mod:`repro.fleet`: gate math, board lifecycle,
routing policy, config round-trip, and the two compatibility anchors —
board 0 reproduces the pre-fleet seed streams exactly, and a one-board
fleet leaves a Runtime batch bitwise identical to no fleet at all.
"""

import json

import pytest

from repro.analog.health import DegradationModel, stable_seed
from repro.experiments import run_capacity
from repro.fleet import (
    AnalogBoard,
    AnalogFleet,
    BoardAssignment,
    FleetConfig,
    PredictiveSeedGate,
    problem_conditioning,
)
from repro.runtime import runtime as runtime_module
from repro.runtime.api import ProblemSpec, RetryPolicy, SolveRequest
from repro.runtime.faults import FaultInjector, FaultSpec
from repro.runtime.runtime import Runtime
from repro.trace.tracer import Tracer


class TestPredictiveGate:
    def test_penalty_is_weighted_ewma_sum(self):
        gate = PredictiveSeedGate()
        board = AnalogBoard(board_id=1)
        board.rejection_ewma = 0.5
        board.drift_ewma = 0.25
        assert gate.penalty(board) == pytest.approx(2.0 * 0.5 + 4.0 * 0.25)

    def test_conditioning_is_one_for_quadratic_and_grows_for_burgers(self):
        assert problem_conditioning(ProblemSpec.quadratic()) == 1.0
        small = problem_conditioning(ProblemSpec.burgers(grid_n=2, reynolds=1.0, seed=0))
        large = problem_conditioning(ProblemSpec.burgers(grid_n=6, reynolds=1.0, seed=0))
        stiff = problem_conditioning(ProblemSpec.burgers(grid_n=2, reynolds=100.0, seed=0))
        assert 1.0 < small < large
        assert stiff > small

    def test_cold_board_always_allows(self):
        # min_observations keeps the gate honest on no evidence — and
        # keeps a healthy one-board fleet on the pre-fleet path.
        gate = PredictiveSeedGate(min_observations=2)
        board = AnalogBoard(board_id=0)
        board.rejection_ewma = 1.0  # even with terrible (unobserved) EWMAs
        board.drift_ewma = 10.0
        board.observations = 1
        decision, _, _ = gate.decide(board, ProblemSpec.quadratic(), 0, "r", 0)
        assert decision == "allow"

    def test_hot_board_is_vetoed_or_audited(self):
        gate = PredictiveSeedGate(min_observations=1, audit_rate=0.125)
        board = AnalogBoard(board_id=0)
        board.observations = 4
        board.rejection_ewma = 1.0
        board.drift_ewma = 2.0
        decisions = {
            gate.decide(board, ProblemSpec.quadratic(), 0, f"r{i}", 0)[0]
            for i in range(40)
        }
        assert "veto" in decisions
        assert "allow" not in decisions
        assert decisions <= {"veto", "audit"}

    def test_audit_draw_is_seeded_and_stable(self):
        gate = PredictiveSeedGate(min_observations=1, audit_rate=0.5)
        board = AnalogBoard(board_id=0)
        board.observations = 4
        board.rejection_ewma = 1.0
        first = [gate.decide(board, ProblemSpec.quadratic(), 7, f"r{i}", 0)[0] for i in range(20)]
        second = [gate.decide(board, ProblemSpec.quadratic(), 7, f"r{i}", 0)[0] for i in range(20)]
        assert first == second
        assert set(first) == {"veto", "audit"}

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictiveSeedGate(threshold=0.0)
        with pytest.raises(ValueError):
            PredictiveSeedGate(min_observations=0)
        with pytest.raises(ValueError):
            PredictiveSeedGate(audit_rate=1.5)


class TestBoardSeedStreams:
    def test_board_zero_epoch_zero_matches_pre_fleet_streams(self):
        """The bitwise-compatibility anchor: board 0 hands out exactly
        the die and degradation seeds the pre-fleet runtime derived."""
        board = AnalogBoard(board_id=0)
        assert board.die_seed(11, "req-0001", 2) == (
            stable_seed(11, "req-0001", 2, "die") % 2**31
        )
        assert board.degradation_seed(11, "req-0001", 2) == stable_seed(
            11, "req-0001", 2, "degradation"
        )

    def test_other_boards_are_independent_silicon(self):
        seeds = {
            AnalogBoard(board_id=b).die_seed(11, "req-0001", 0) for b in range(4)
        }
        assert len(seeds) == 4

    def test_recalibration_reseeds_drift_walk_not_die(self):
        board = AnalogBoard(board_id=0)
        die_before = board.die_seed(11, "r", 0)
        drift_before = board.degradation_seed(11, "r", 0)
        board.recalibrate()
        assert board.epoch == 1
        assert board.die_seed(11, "r", 0) == die_before
        assert board.degradation_seed(11, "r", 0) != drift_before


class TestQuarantineLifecycle:
    def _evidence(self, drift=0.0):
        return {"gain_drift": {"t0": drift}, "offset_drift": {}}

    class _Report:
        def __init__(self, rung, health):
            self.rung = rung
            self.rungs_tried = ("hybrid",)
            self.health = health

    def test_rejections_past_threshold_quarantine_after_hysteresis(self):
        fleet = AnalogFleet(
            FleetConfig(
                boards=2,
                min_observations=3,
                quarantine_rejections=0.6,
                recalibration_pressure=1.0,  # never recalibrate in this test
                gate=PredictiveSeedGate(enabled=False),
            ),
            seed=0,
        )
        target = BoardAssignment(board_id=0, die_seed=0, degradation_seed=0)
        for _ in range(3):
            # Hysteresis: never quarantined before min_observations.
            assert not fleet.boards[0].quarantined
            events = fleet.observe(
                target, self._Report("damped_newton", self._evidence())
            )
        assert events.get("boards_quarantined") == 1
        board = fleet.boards[0]
        assert board.quarantined
        assert "rejection EWMA" in board.quarantine_reason
        # Subsequent routes go to the healthy peer, never board 0.
        request = SolveRequest("q-0", ProblemSpec.quadratic())
        follow, _ = fleet.route(request, attempt=0)
        assert follow.board_id == 1

    def test_pressure_triggers_recalibration_and_lifts_quarantine(self):
        fleet = AnalogFleet(
            FleetConfig(
                boards=1,
                min_observations=1,
                quarantine_rejections=0.5,
                recalibration_pressure=0.5,
                gate=PredictiveSeedGate(enabled=False),
            ),
            seed=0,
        )
        request = SolveRequest("q-1", ProblemSpec.quadratic())
        assignment, _ = fleet.route(request, attempt=0)
        events = fleet.observe(
            assignment, self._Report("damped_newton", self._evidence())
        )
        # One board, quarantined => pressure 1.0 >= 0.5: recalibrated
        # in the same observe, quarantine lifted, epoch bumped.
        assert events.get("boards_quarantined") == 1
        assert events.get("board_recalibrations") == 1
        board = fleet.boards[0]
        assert not board.quarantined
        assert board.epoch == 1
        assert board.observations == 0

    def test_killed_board_voids_hybrid_answers_only(self):
        fleet = AnalogFleet(FleetConfig(boards=2), seed=0)
        request = SolveRequest("k-0", ProblemSpec.quadratic())
        assignment, _ = fleet.route(request, attempt=0)
        fleet.kill_board(assignment.board_id)
        hybrid = self._Report("hybrid", None)
        digital = self._Report("damped_newton", None)
        assert fleet.invalidate_if_killed(assignment, hybrid) is not None
        assert fleet.invalidate_if_killed(assignment, digital) is None
        assert fleet.stats()["counters"]["board_failovers"] == 1

    def test_scheduled_kill_fires_at_the_configured_route(self):
        fleet = AnalogFleet(
            FleetConfig(boards=2, kill_board_after=(0, 2)), seed=0
        )
        request = SolveRequest("s-0", ProblemSpec.quadratic())
        first, _ = fleet.route(request, attempt=0)
        assert first.board_id == 0 and not fleet.boards[0].killed
        second, _ = fleet.route(request, attempt=1)
        assert second.board_id == 0 and not fleet.boards[0].killed
        third, _ = fleet.route(request, attempt=2)
        assert fleet.boards[0].killed  # 2 routes were on the books
        assert third.board_id == 1


class TestFleetConfigRoundTrip:
    def test_to_from_record_round_trips(self):
        model = DegradationModel(
            offset_drift_sigma=0.4,
            gain_drift_bias=0.01,
            stuck_tiles=("chip0.tile1", "chip0.tile3"),
            dead_dacs=("chip0.dac2",),
            seed=9,
        )
        config = FleetConfig(
            boards=3,
            quarantine_rejections=0.6,
            min_observations=2,
            gate=PredictiveSeedGate(threshold=0.8, audit_rate=0.25),
            board_models={1: model},
            kill_board_after=(2, 5),
        )
        record = config.to_record()
        again = FleetConfig.from_record(json.loads(json.dumps(record)))
        assert again.boards == 3
        assert again.quarantine_rejections == pytest.approx(0.6)
        assert again.min_observations == 2
        assert again.gate == config.gate
        assert again.kill_board_after == (2, 5)
        assert again.board_models[1] == model
        # Journals and fleet configs share one encoding, keys in order.
        assert list(record["board_models"]["1"]) == [
            "gain_drift_sigma",
            "offset_drift_sigma",
            "gain_drift_bias",
            "stuck_tile_rate",
            "dead_dac_rate",
            "stuck_tiles",
            "dead_dacs",
            "seed",
        ]
        assert record["board_models"]["1"]["stuck_tiles"] == ["chip0.tile1", "chip0.tile3"]

    def test_retired_gate_keys_are_ignored(self):
        """Older journals record the EWMA smoothing and the gate weights,
        which are now constants; rebuilding from such a record ignores
        them."""
        record = FleetConfig(boards=2).to_record()
        assert "ewma_alpha" not in record
        assert "rejection_weight" not in record["gate"]
        record["ewma_alpha"] = 0.5
        record["gate"].update(rejection_weight=2.0, drift_weight=4.0)
        again = FleetConfig.from_record(record)
        assert again == FleetConfig(boards=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(boards=0)
        with pytest.raises(ValueError):
            FleetConfig(min_observations=0)
        with pytest.raises(ValueError):
            FleetConfig(recalibration_pressure=0.0)


class TestOneBoardFleetBitwise:
    def test_boards_one_equals_pre_fleet_batch(self):
        """The acceptance anchor: `fleet` with boards=1 and default
        thresholds is bitwise identical to the pre-fleet path — same
        statuses, rungs, residuals, solutions, same counters."""
        def run(fleet):
            runtime = Runtime(
                seed=11,
                retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0, jitter=0.0),
                degradation=DegradationModel(offset_drift_sigma=0.02, seed=7),
                fleet=fleet,
            )
            requests = [
                SolveRequest(
                    f"bw-{i:04d}",
                    ProblemSpec.quadratic(rhs0=1.0 + 0.1 * i),
                    analog_time_limit=1e-3,
                )
                for i in range(4)
            ]
            return runtime.run_batch(requests)

        reference = run(fleet=None)
        fleeted = run(fleet=FleetConfig(boards=1))
        for ref, new in zip(reference.outcomes, fleeted.outcomes):
            assert ref.status == new.status
            assert ref.rung == new.rung
            assert ref.rungs_tried == new.rungs_tried
            assert ref.residual_norm == new.residual_norm
            assert ref.attempts == new.attempts
            assert ref.health == new.health
            if ref.solution is None:
                assert new.solution is None
            else:
                assert ref.solution.tobytes() == new.solution.tobytes()
        # The fleet adds no counter noise on the healthy path: the only
        # difference is fleet bookkeeping, never solve accounting.
        assert reference.counters == {
            k: v for k, v in fleeted.counters.items() if not k.startswith("fleet_")
        } or reference.counters == fleeted.counters


class TestNoFleetStreams:
    """A Runtime without a fleet runs every attempt on board 0's
    assignment. These tests pin that assignment to streams derived
    without :class:`AnalogBoard`, so the no-fleet path stays anchored to
    the pre-fleet seeds even though it now shares the fleet's code."""

    def test_no_fleet_attempt_runs_on_pre_fleet_streams(self, monkeypatch):
        seen = []

        class Recording(runtime_module.AnalogAccelerator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.append((self.seed, self.degradation.seed))

        monkeypatch.setattr(runtime_module, "AnalogAccelerator", Recording)
        runtime = Runtime(
            seed=11,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0, jitter=0.0),
            degradation=DegradationModel(offset_drift_sigma=0.02, seed=7),
            # Request ns-1's first attempt dies before its accelerator
            # is built, so its retry (attempt 1) shows the attempt key.
            faults=FaultInjector(
                specs=(FaultSpec("worker_crash", request_id="ns-1", attempt=0),)
            ),
        )
        requests = [
            SolveRequest(f"ns-{i}", ProblemSpec.quadratic(), analog_time_limit=1e-3)
            for i in range(2)
        ]
        result = runtime.run_batch(requests)
        expected = [(request.request_id, attempt) for request, attempt in zip(requests, (0, 1))]
        assert seen == [
            (
                stable_seed(11, rid, attempt, "die") % 2**31,
                stable_seed(11, rid, attempt, "degradation"),
            )
            for rid, attempt in expected
        ]
        for outcome, (rid, attempt) in zip(result.outcomes, expected):
            assert outcome.health["seed"] == stable_seed(11, rid, attempt, "degradation")

    def test_no_fleet_runtime_never_routes(self, monkeypatch):
        def refuse(self, request, attempt):
            raise AssertionError("a runtime without a fleet must not route")

        monkeypatch.setattr(AnalogFleet, "route", refuse)
        tracer = Tracer()
        result = Runtime(seed=3).run_batch(
            [SolveRequest("nr-0", ProblemSpec.quadratic(), analog_time_limit=1e-3)],
            tracer=tracer,
        )
        assert result.outcomes[0].ok
        assert not [span for span in tracer.spans if span.name == "fleet_route"]
        assert not [name for name in result.counters if "fleet" in name]


class TestAssignmentFaultEdit:
    def test_degrade_fault_on_exhausted_attempt(self):
        """A ``degrade_analog`` fault edits even a fleet-exhausted
        assignment: the attempt runs digital rungs only, so the fault's
        drift walk never steps, but it is logged and reported."""
        runtime = Runtime(
            seed=5,
            retry=RetryPolicy(max_attempts=1),
            # The only board dies before the first route.
            fleet=FleetConfig(boards=1, kill_board_after=(0, 0)),
            faults=FaultInjector(
                specs=(FaultSpec("degrade_analog", request_id="ex-0", attempt=0),),
                seed=9,
            ),
        )
        result = runtime.run_batch(
            [SolveRequest("ex-0", ProblemSpec.quadratic(), analog_time_limit=1e-3)]
        )
        outcome = result.outcomes[0]
        assert outcome.ok and outcome.rung == "damped_newton"
        assert "hybrid" not in outcome.rungs_tried
        assert outcome.faults == ("degrade_analog",)
        assert outcome.health == {
            "seed": stable_seed(9, "ex-0", 0, "degrade_analog"),
            "step": 0,
            "gain_drift": {},
            "offset_drift": {},
            "stuck_tiles": [],
            "dead_dacs": [],
            "resets": 0,
        }
        assert result.counters["fleet_exhausted"] == 1


class TestCapacityExperiment:
    def test_tiny_sweep_reports_full_grid(self):
        result = run_capacity(
            boards_list=(1, 2),
            rates=(2,),
            drift_sigma=0.0,
            seed=0,
            analog_time_limit=1e-3,
            settle_max_steps=500,
        )
        assert {(row["boards"], row["rate"]) for row in result.rows} == {(1, 2), (2, 2)}
        assert all(row["completed"] == 2 for row in result.rows)
        rendered = result.render()
        assert "boards needed per rate" in rendered
        assert "fleet capacity" in rendered

    def test_boards_needed_picks_smallest_meeting_target(self):
        result = run_capacity(
            boards_list=(1, 2),
            rates=(2,),
            drift_sigma=0.0,
            slo=1e20,  # every completed request counts as analog-served
            target=0.0,
            analog_time_limit=1e-3,
            settle_max_steps=500,
        )
        assert result.boards_needed() == {2: 1}

    def test_rejects_empty_or_invalid_sweeps(self):
        with pytest.raises(ValueError):
            run_capacity(boards_list=())
        with pytest.raises(ValueError):
            run_capacity(rates=(0,))
