"""Unit and property tests for the analog device health layer.

Covers the four pieces of :mod:`repro.analog.health` in isolation and
wired into the accelerator:

* :class:`DegradationModel` / :class:`DegradationSchedule` — spec
  parsing and validation, seeded determinism of the drift walks,
  pickling (the runtime ships schedules to worker processes), and the
  recalibration contract (drift re-nulls, hardware faults persist);
* :func:`assess_seed` — the relative-residual score, and the NaN/Inf
  clamp that keeps a broken seed's verdict finite;
* :class:`HealthMonitor` / :class:`TileHealth` — flagging thresholds,
  min-observation hysteresis, settled-vs-unsettled accounting,
  quarantine bookkeeping and recalibration pressure;
* the engine wiring — a healthy board's seeds pass the gate and leave
  the monitor clean; a drifted board's seed is rejected with the full
  ``analog_health`` span story.

The Hypothesis properties pin the two safety invariants the chaos tier
relies on: allocation NEVER hands out a quarantined tile, and
recalibration always resets drift state while preserving hardware
faults.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analog.engine import AnalogAccelerator, solution_error
from repro.analog.fabric import TILES_PER_CHIP, Fabric, FabricCapacityError
from repro.analog.health import (
    NONFINITE_QUALITY,
    DegradationModel,
    DegradationSchedule,
    SEED_QUALITY_FLOOR,
    HealthMonitor,
    TileHealth,
    assess_seed,
)
from repro.pde.burgers import random_burgers_system
from repro.trace.tracer import Tracer


def _burgers_system(seed=0):
    return random_burgers_system(2, 1.0, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# DegradationModel
# ---------------------------------------------------------------------------


class TestDegradationModel:
    def test_default_model_is_inactive(self):
        assert not DegradationModel().active

    def test_any_fault_knob_makes_it_active(self):
        assert DegradationModel(offset_drift_sigma=0.1).active
        assert DegradationModel(gain_drift_bias=0.01).active
        assert DegradationModel(stuck_tiles=("chip0.tile1",)).active
        assert DegradationModel(dead_dac_rate=0.5).active

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DegradationModel(offset_drift_sigma=-0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            DegradationModel(gain_drift_sigma=-1.0)

    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError, match="stuck_tile_rate"):
            DegradationModel(stuck_tile_rate=1.5)
        with pytest.raises(ValueError, match="dead_dac_rate"):
            DegradationModel(dead_dac_rate=-0.01)

    def test_from_spec_parses_floats_ints_and_lists(self):
        model = DegradationModel.from_spec(
            "offset_drift_sigma=0.2,gain_drift_sigma=0.05,seed=7,"
            "stuck_tiles=chip0.tile1;chip0.tile3,dead_dacs=chip1.tile0.dac2"
        )
        assert model.offset_drift_sigma == 0.2
        assert model.gain_drift_sigma == 0.05
        assert model.seed == 7
        assert model.stuck_tiles == ("chip0.tile1", "chip0.tile3")
        assert model.dead_dacs == ("chip1.tile0.dac2",)

    def test_from_spec_tolerates_blank_parts(self):
        model = DegradationModel.from_spec("offset_drift_sigma=0.1,, ")
        assert model.offset_drift_sigma == 0.1

    def test_from_spec_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="key=value"):
            DegradationModel.from_spec("made_up_knob=1.0")

    def test_from_spec_rejects_bare_words(self):
        with pytest.raises(ValueError, match="key=value"):
            DegradationModel.from_spec("offset_drift_sigma")

    def test_model_is_picklable(self):
        model = DegradationModel(offset_drift_sigma=0.1, stuck_tiles=("a",))
        assert pickle.loads(pickle.dumps(model)) == model


# ---------------------------------------------------------------------------
# DegradationSchedule
# ---------------------------------------------------------------------------


def _calibrated_fabric(seed=0, schedule=None):
    fabric = Fabric(num_chips=2, seed=seed, degradation=schedule)
    fabric.calibrate()
    return fabric


class TestDegradationSchedule:
    def test_same_seed_walks_are_identical(self):
        """Two schedules built from the same model replay the same drift
        on two separately constructed fabrics — the draws are keyed by
        (seed, purpose, step, component name), never by object or
        process identity."""
        model = DegradationModel(gain_drift_sigma=0.02, offset_drift_sigma=0.05, seed=3)
        first, second = DegradationSchedule(model), DegradationSchedule(model)
        for schedule in (first, second):
            fabric = _calibrated_fabric(schedule=schedule)
            fabric.degradation = schedule
            for _ in range(3):
                schedule.advance(fabric)
        assert first.step == second.step == 3
        assert first.gain_drift == second.gain_drift
        assert first.offset_drift == second.offset_drift

    def test_pickled_schedule_continues_the_same_walk(self):
        """A schedule round-tripped through pickle (the worker-process
        boundary) continues the walk exactly where the original would."""
        model = DegradationModel(offset_drift_sigma=0.05, seed=11)
        original = DegradationSchedule(model)
        fabric = _calibrated_fabric(schedule=original)
        original.advance(fabric)
        clone = pickle.loads(pickle.dumps(original))
        fabric_a = _calibrated_fabric(schedule=original)
        fabric_b = _calibrated_fabric(schedule=clone)
        original.advance(fabric_a)
        clone.advance(fabric_b)
        assert original.offset_drift == clone.offset_drift
        assert original.step == clone.step == 2

    def test_apply_is_idempotent(self):
        """Applying twice never compounds: component error = calibrated
        baseline + accumulated drift, not drift-on-drift."""
        model = DegradationModel(gain_drift_sigma=0.02, offset_drift_sigma=0.05, seed=1)
        schedule = DegradationSchedule(model)
        fabric = _calibrated_fabric(schedule=schedule)
        schedule.advance(fabric)
        component = fabric.chips[0].tiles[0].components()[0]
        once = (component.gain_error, component.offset)
        schedule.apply(fabric)
        schedule.apply(fabric)
        assert (component.gain_error, component.offset) == once

    def test_explicit_stuck_tiles_pin_the_datapath(self):
        model = DegradationModel(stuck_tiles=("chip0.tile1",))
        schedule = DegradationSchedule(model)
        fabric = _calibrated_fabric(schedule=schedule)
        schedule.advance(fabric)
        stuck = fabric.chips[0].tiles[1]
        assert stuck.stuck
        full_scale = fabric.noise.full_scale
        assert all(m.offset == full_scale for m in stuck.multipliers)
        # Its datapath offset is rail-sized; a healthy tile's is tiny.
        assert abs(stuck.datapath_offset()) > 0.5 * full_scale
        assert abs(fabric.chips[0].tiles[0].datapath_offset()) < 0.1 * full_scale

    def test_dead_dac_appears_as_full_scale_offset(self):
        model = DegradationModel(dead_dacs=("chip0.tile0.dac1",))
        schedule = DegradationSchedule(model)
        fabric = _calibrated_fabric(schedule=schedule)
        schedule.advance(fabric)
        tile = fabric.chips[0].tiles[0]
        assert tile.dacs[1].dead
        assert tile.datapath_offset() >= 0.9 * fabric.noise.full_scale

    def test_reset_renulls_drift_but_keeps_hardware_faults(self):
        model = DegradationModel(
            offset_drift_sigma=0.1,
            stuck_tiles=("chip0.tile2",),
            dead_dacs=("chip1.tile3.dac0",),
            seed=5,
        )
        schedule = DegradationSchedule(model)
        fabric = _calibrated_fabric(schedule=schedule)
        schedule.advance(fabric)
        assert schedule.offset_drift and schedule.drift_magnitude() > 0.0
        schedule.reset()
        assert schedule.offset_drift == {} and schedule.gain_drift == {}
        assert schedule.drift_magnitude() == 0.0
        assert schedule.resets == 1
        assert "chip0.tile2" in schedule.stuck_tiles
        assert "chip1.tile3.dac0" in schedule.dead_dacs

    def test_recalibrate_returns_components_to_baseline(self):
        """Fabric.recalibrate re-trims: every non-stuck component lands
        back on its calibrated baseline, drift gone."""
        model = DegradationModel(gain_drift_sigma=0.05, offset_drift_sigma=0.1, seed=2)
        schedule = DegradationSchedule(model)
        fabric = Fabric(num_chips=2, seed=0, degradation=schedule)
        fabric.calibrate()
        schedule.advance(fabric)
        drifted = fabric.chips[0].tiles[0].components()[0]
        assert drifted.gain_error != drifted.calibrated_gain_error
        fabric.recalibrate()
        for chip in fabric.chips:
            for tile in chip.tiles:
                for component in tile.components():
                    assert component.gain_error == component.calibrated_gain_error
                    assert component.offset == component.calibrated_offset

    def test_inactive_model_advances_without_state(self):
        schedule = DegradationSchedule(DegradationModel())
        fabric = _calibrated_fabric(schedule=schedule)
        schedule.advance(fabric)
        assert schedule.step == 1
        assert not schedule.gain_drift and not schedule.offset_drift
        assert not schedule.stuck_tiles and not schedule.dead_dacs

    def test_exec_start_ages_the_board(self):
        """The fabric lifecycle is the clock: each exec_start advances
        the attached schedule by exactly one step."""
        model = DegradationModel(offset_drift_sigma=0.01, seed=9)
        schedule = DegradationSchedule(model)
        fabric = Fabric(num_chips=1, seed=0, degradation=schedule)
        fabric.calibrate()
        for expected in (1, 2):
            fabric.cfg_commit()
            fabric.exec_start()
            fabric.exec_stop()
            assert schedule.step == expected


# ---------------------------------------------------------------------------
# Seed-quality gate
# ---------------------------------------------------------------------------


class TestSeedQualityGate:
    def test_better_than_guess_is_accepted(self):
        verdict = assess_seed(np.zeros(3), residual_norm=0.5, reference_norm=10.0)
        assert verdict.accepted and verdict.finite
        assert verdict.quality == pytest.approx(0.05)

    def test_worse_than_guess_is_rejected(self):
        verdict = assess_seed(np.zeros(3), residual_norm=20.0, reference_norm=10.0)
        assert not verdict.accepted
        assert verdict.quality == pytest.approx(2.0)

    def test_exactly_at_threshold_is_accepted(self):
        verdict = assess_seed(np.zeros(2), 10.0, 10.0)
        assert verdict.accepted and verdict.quality == pytest.approx(1.0)

    def test_nan_solution_clamps_to_nonfinite_quality(self):
        verdict = assess_seed(
            np.array([1.0, np.nan]), residual_norm=0.1, reference_norm=10.0
        )
        assert not verdict.accepted and not verdict.finite
        assert verdict.quality == NONFINITE_QUALITY
        assert np.isfinite(verdict.quality)

    def test_inf_residual_clamps_to_nonfinite_quality(self):
        verdict = assess_seed(
            np.zeros(2), residual_norm=float("inf"), reference_norm=10.0
        )
        assert not verdict.accepted and verdict.quality == NONFINITE_QUALITY

    def test_nonfinite_reference_clamps_too(self):
        verdict = assess_seed(
            np.zeros(2), residual_norm=0.1, reference_norm=float("nan")
        )
        assert not verdict.accepted and not verdict.finite

    def test_zero_reference_uses_floor_not_division_blowup(self):
        verdict = assess_seed(np.zeros(2), 1.0, 0.0)
        assert np.isfinite(verdict.quality)
        assert verdict.quality == pytest.approx(1.0 / SEED_QUALITY_FLOOR)
        assert not verdict.accepted


class TestSolutionErrorGuards:
    def test_nan_seed_yields_finite_huge_error(self):
        error = solution_error(np.array([np.nan, 1.0]), np.zeros(2), scale=3.0)
        assert np.isfinite(error)
        assert error > 1e3

    def test_inf_seed_yields_finite_huge_error(self):
        error = solution_error(np.array([np.inf, -np.inf]), np.zeros(2))
        assert np.isfinite(error) and error > 1e3

    def test_finite_seeds_unaffected(self):
        assert solution_error(np.array([1.0, 1.0]), np.array([1.0, 1.0])) == 0.0


# ---------------------------------------------------------------------------
# TileHealth / HealthMonitor
# ---------------------------------------------------------------------------


class TestTileHealth:
    def test_first_observation_seeds_the_ewma(self):
        tile = TileHealth(name="t")
        tile.observe(residual=0.4, settle_time=3.0, saturated=False, alpha=0.5)
        assert tile.residual_ewma == 0.4 and tile.settle_ewma == 3.0

    def test_unsettled_observation_counts_saturation_only(self):
        tile = TileHealth(name="t")
        tile.observe(residual=99.0, settle_time=60.0, saturated=True, alpha=0.5, settled=False)
        assert tile.saturation_count == 1
        assert tile.observations == 0 and tile.residual_ewma == 0.0

    def test_nonfinite_residual_clamps(self):
        tile = TileHealth(name="t")
        tile.observe(residual=float("nan"), settle_time=1.0, saturated=False, alpha=0.5)
        assert tile.residual_ewma == NONFINITE_QUALITY


class TestHealthMonitor:
    def _observe(self, monitor, residuals, settled=True, saturated=None, settle=3.0):
        names = [f"chip0.tile{i}" for i in range(len(residuals))]
        if saturated is None:
            saturated = np.zeros(len(residuals), dtype=bool)
        return monitor.observe_solve(names, np.asarray(residuals), settle, saturated, settled=settled)

    def test_one_bad_solve_is_weather_two_is_climate(self):
        monitor = HealthMonitor(drift_tolerance=0.5, min_observations=2)
        assert self._observe(monitor, [2.0, 0.1]) == []
        assert self._observe(monitor, [2.0, 0.1]) == ["chip0.tile0"]
        assert monitor.flagged() == ("chip0.tile0",)
        assert "calibration tolerance" in monitor.tiles["chip0.tile0"].flag_reason

    def test_unsettled_solves_never_drift_flag(self):
        monitor = HealthMonitor(drift_tolerance=0.5, min_observations=2)
        for _ in range(5):
            assert self._observe(monitor, [50.0, 50.0], settled=False) == []
        assert monitor.flagged() == ()
        assert monitor.unsettled_solves == 5 and monitor.settled_solves == 0

    def test_saturation_limit_flags_even_unsettled(self):
        monitor = HealthMonitor()
        saturated = np.array([True, False])
        self._observe(monitor, [0.1, 0.1], settled=False, saturated=saturated)
        self._observe(monitor, [0.1, 0.1], settled=False, saturated=saturated)
        newly = self._observe(monitor, [0.1, 0.1], settled=False, saturated=saturated)
        assert newly == ["chip0.tile0"]
        assert "saturated" in monitor.tiles["chip0.tile0"].flag_reason

    def test_settle_anomaly_recorded_not_flagged(self):
        monitor = HealthMonitor()
        self._observe(monitor, [0.1], settle=2.0)
        self._observe(monitor, [0.1], settle=50.0)
        assert monitor.settle_anomalies == 1
        assert monitor.flagged() == ()

    def test_quarantine_pressure_schedules_recalibration(self):
        monitor = HealthMonitor(drift_tolerance=0.5, min_observations=1, recalibration_pressure=0.25)
        self._observe(monitor, [9.0, 0.1, 0.1, 0.1])
        newly = monitor.quarantine_flagged()
        assert newly == ["chip0.tile0"]
        assert monitor.tiles_quarantined == 1
        assert monitor.quarantine_pressure(8) == pytest.approx(0.125)
        assert not monitor.should_recalibrate(8)
        assert monitor.should_recalibrate(4)

    def test_quarantine_flagged_is_idempotent(self):
        monitor = HealthMonitor(drift_tolerance=0.5, min_observations=1)
        self._observe(monitor, [9.0])
        assert monitor.quarantine_flagged() == ["chip0.tile0"]
        assert monitor.quarantine_flagged() == []
        assert monitor.tiles_quarantined == 1

    def test_recalibration_resets_statistics_and_lifts_quarantine(self):
        monitor = HealthMonitor(drift_tolerance=0.5, min_observations=1)
        self._observe(monitor, [9.0, 0.1])
        monitor.quarantine_flagged()
        monitor.note_recalibration()
        assert monitor.recalibrations == 1
        assert monitor.tiles == {} and monitor.quarantined == ()
        assert monitor.solves_observed == 0 and monitor.settled_solves == 0
        # The monotone counters survive the reset — they reconcile
        # against trace spans, which are never un-emitted.
        assert monitor.tiles_quarantined == 1

    def test_counters_dict_names_match_runtime_reconciliation(self):
        monitor = HealthMonitor()
        assert set(monitor.counters()) == {
            "seeds_rejected",
            "tiles_quarantined",
            "recalibrations",
        }

    def test_render_report_mentions_everything(self):
        monitor = HealthMonitor(drift_tolerance=0.5, min_observations=1)
        self._observe(monitor, [9.0, 0.1])
        monitor.quarantine_flagged()
        report = monitor.render_report()
        assert "analog health report" in report
        assert "chip0.tile0" in report and "quarantined" in report
        assert "tiles_quarantined" in report

    def test_render_report_without_solves(self):
        assert "(no solves observed)" in HealthMonitor().render_report()

    def test_validation(self):
        with pytest.raises(ValueError):
            HealthMonitor(drift_tolerance=0.0)
        with pytest.raises(ValueError):
            HealthMonitor(min_observations=0)
        with pytest.raises(ValueError):
            HealthMonitor(recalibration_pressure=1.5)

    def test_inherits_tolerance_from_calibration_config(self):
        from repro.analog.calibration import CalibrationConfig

        config = CalibrationConfig(drift_tolerance=0.77)
        assert HealthMonitor(calibration=config).drift_tolerance == 0.77


# ---------------------------------------------------------------------------
# Safety properties (Hypothesis)
# ---------------------------------------------------------------------------


TILE_NAMES = [f"chip{c}.tile{t}" for c in range(2) for t in range(TILES_PER_CHIP)]


class TestQuarantineAllocationProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        quarantined=st.sets(st.sampled_from(TILE_NAMES), max_size=7),
        demand=st.integers(min_value=1, max_value=8),
    )
    def test_allocation_never_hands_out_a_quarantined_tile(self, quarantined, demand):
        """The core quarantine invariant: whatever subset of the board
        the monitor has pulled, allocation either serves the demand
        entirely from healthy tiles or refuses with the quarantine
        count in the error — it never silently allocates a pulled tile."""
        monitor = HealthMonitor(drift_tolerance=0.5, min_observations=1)
        for name in quarantined:
            health = monitor.tile(name)
            health.flagged = True
        monitor.quarantine_flagged()
        fabric = _calibrated_fabric()
        monitor.apply_quarantine(fabric)
        healthy = fabric.num_tiles - len(quarantined)
        if demand <= healthy:
            tiles = fabric.allocate_tiles(demand, owner="prop")
            assert len(tiles) == demand
            assert not {tile.name for tile in tiles} & quarantined
        else:
            with pytest.raises(FabricCapacityError) as excinfo:
                fabric.allocate_tiles(demand, owner="prop")
            if quarantined:
                assert "quarantined" in str(excinfo.value)

    @settings(max_examples=25, deadline=None)
    @given(quarantined=st.sets(st.sampled_from(TILE_NAMES), max_size=8))
    def test_apply_quarantine_marks_exactly_the_monitor_set(self, quarantined):
        monitor = HealthMonitor()
        for name in quarantined:
            monitor.tile(name).flagged = True
        monitor.quarantine_flagged()
        fabric = _calibrated_fabric()
        monitor.apply_quarantine(fabric)
        marked = {
            tile.name for chip in fabric.chips for tile in chip.tiles if tile.quarantined
        }
        assert marked == quarantined


class TestRecalibrationProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        gain_sigma=st.floats(min_value=0.0, max_value=0.1),
        offset_sigma=st.floats(min_value=0.001, max_value=0.3),
        steps=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_reset_always_clears_drift_and_keeps_hardware(self, gain_sigma, offset_sigma, steps, seed):
        """Recalibration re-nulls every drift walk regardless of how the
        model is parameterised or how long it has run, and never loses
        a hardware fault."""
        model = DegradationModel(
            gain_drift_sigma=gain_sigma,
            offset_drift_sigma=offset_sigma,
            stuck_tiles=("chip0.tile0",),
            seed=seed,
        )
        schedule = DegradationSchedule(model)
        fabric = _calibrated_fabric(schedule=schedule)
        for _ in range(steps):
            schedule.advance(fabric)
        assert schedule.drift_magnitude() > 0.0
        stuck_before = set(schedule.stuck_tiles)
        dead_before = set(schedule.dead_dacs)
        schedule.reset()
        assert schedule.gain_drift == {} and schedule.offset_drift == {}
        assert schedule.stuck_tiles == stuck_before
        assert schedule.dead_dacs == dead_before
        # And a fresh apply leaves non-stuck components at baseline.
        schedule.apply(fabric)
        component = fabric.chips[1].tiles[0].components()[0]
        assert component.gain_error == component.calibrated_gain_error


# ---------------------------------------------------------------------------
# Engine wiring
# ---------------------------------------------------------------------------


class TestAcceleratorHealthWiring:
    def test_healthy_board_seed_passes_the_gate(self):
        system, guess = _burgers_system()
        accelerator = AnalogAccelerator(seed=0)
        result = accelerator.solve(system, initial_guess=guess)
        assert result.converged
        assert result.seed_accepted
        assert result.seed_quality is not None and result.seed_quality.finite
        assert result.seed_quality.quality < 1.0
        assert accelerator.health.seeds_rejected == 0
        assert accelerator.health.flagged() == ()

    def test_drifted_board_seed_is_rejected_and_span_says_so(self):
        """One large-offset drift step: the settled solution is worse
        than the naive guess, the gate refuses it, and the
        ``analog_health`` span carries the verdict."""
        system, guess = _burgers_system()
        model = DegradationModel(offset_drift_sigma=0.3, seed=4)
        accelerator = AnalogAccelerator(seed=0, degradation=model)
        tracer = Tracer()
        result = accelerator.solve(system, initial_guess=guess, time_limit=20.0, tracer=tracer)
        assert result.converged  # the flow settled — on a bad board
        assert not result.seed_accepted
        assert result.seed_quality.quality > result.seed_quality.threshold
        assert accelerator.health.seeds_rejected == 1
        spans = tracer.spans_named("analog_health")
        assert len(spans) == 1
        assert spans[0].attrs["seed_rejected"] is True
        assert spans[0].attrs["degradation_step"] == 1
        assert tracer.counters["seeds_rejected"] == 1

    def test_unsettled_solve_does_not_pollute_drift_statistics(self):
        """A run that exhausts its time budget must not teach the
        monitor anything about calibration drift."""
        system, guess = _burgers_system()
        accelerator = AnalogAccelerator(seed=0)
        result = accelerator.solve(system, initial_guess=guess, time_limit=1e-3)
        assert not result.converged
        assert accelerator.health.unsettled_solves == 1
        assert all(h.observations == 0 for h in accelerator.health.tiles.values())
        assert accelerator.health.flagged() == ()

    def test_quarantined_tiles_force_a_bigger_board(self):
        """With tiles quarantined, the auto-sized fabric grows until the
        problem fits on healthy tiles only — degradation shrinks the
        margin, not the solvable problem size."""
        system, guess = _burgers_system()
        accelerator = AnalogAccelerator(seed=0)
        for name in ("chip0.tile0", "chip0.tile1"):
            accelerator.health.tile(name).flagged = True
        accelerator.health.quarantine_flagged()
        fabric = accelerator._fabric_for(system.dimension)
        assert fabric.num_tiles == 12  # grew from 2 chips to 3
        free = {tile.name for tile in fabric.free_tiles()}
        assert len(free) >= system.dimension
        assert not free & set(accelerator.health.quarantined)
        result = accelerator.solve(system, initial_guess=guess)
        assert result.converged
