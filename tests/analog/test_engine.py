"""Tests for the analog execution engine."""

import numpy as np
import pytest

from repro.analog.engine import AnalogAccelerator, DistortedSystem, solution_error
from repro.analog.noise import NoiseModel
from repro.nonlinear.newton import NewtonOptions, damped_newton_with_restarts
from repro.nonlinear.systems import CoupledQuadraticSystem, CubicRootSystem, check_jacobian
from repro.pde.burgers import random_burgers_system


class TestSolutionError:
    def test_zero_for_identical(self):
        a = np.array([1.0, 2.0])
        assert solution_error(a, a) == 0.0

    def test_matches_equation6(self):
        a = np.array([1.0, 2.0, 3.0])
        d = np.array([1.1, 1.9, 3.0])
        expected = np.sqrt((0.01 + 0.01 + 0.0) / 3.0)
        assert solution_error(a, d) == pytest.approx(expected)

    def test_scale_normalizes(self):
        a = np.array([3.0])
        d = np.array([0.0])
        assert solution_error(a, d, scale=3.0) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solution_error(np.zeros(2), np.zeros(3))


class TestDistortedSystem:
    def test_zero_distortion_is_identity(self):
        system = CoupledQuadraticSystem(1.0, 1.0)
        distorted = DistortedSystem(system, np.zeros(2), np.zeros(2), np.zeros(2))
        u = np.array([0.4, -0.2])
        np.testing.assert_allclose(distorted.residual(u), system.residual(u))

    def test_jacobian_consistent_with_residual(self):
        system = CoupledQuadraticSystem(0.5, 1.5)
        distorted = DistortedSystem(
            system,
            equation_gains=np.array([0.05, -0.03]),
            state_gains=np.array([0.02, 0.01]),
            offsets=np.array([0.01, -0.02]),
        )
        check_jacobian(distorted, np.array([0.3, 0.7]), rtol=1e-4, atol=1e-5)

    def test_root_shift_is_order_of_distortion(self):
        system = CubicRootSystem()
        distorted = DistortedSystem(
            system,
            equation_gains=np.zeros(2),
            state_gains=np.full(2, 0.01),
            offsets=np.zeros(2),
        )
        from repro.nonlinear.newton import newton_solve

        result = newton_solve(distorted, np.array([1.1, 0.0]))
        assert result.converged
        # Root of F((1+e)u) is u*/(1+e).
        np.testing.assert_allclose(result.u, [1.0 / 1.01, 0.0], atol=1e-6)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DistortedSystem(CubicRootSystem(), np.zeros(3), np.zeros(2), np.zeros(2))


class TestAnalogAccelerator:
    def test_solves_small_system(self):
        acc = AnalogAccelerator(seed=0)
        system = CoupledQuadraticSystem(1.0, 1.0)
        result = acc.solve(system, initial_guess=np.array([1.0, 1.0]), value_bound=3.0)
        assert result.converged
        # Approximate: within a few percent of a true root.
        roots = system.real_roots()
        distance = min(np.linalg.norm(result.solution - r) for r in roots)
        assert distance < 0.5

    def test_burgers_2x2_accuracy_within_paper_band(self):
        # One die, a handful of problems: error is percent-level, not
        # exact and not garbage (Figure 6's regime).
        errors = []
        for trial in range(5):
            acc = AnalogAccelerator(seed=trial)
            system, guess = random_burgers_system(2, 1.0, np.random.default_rng(trial))
            digital = damped_newton_with_restarts(
                system, guess, NewtonOptions(tolerance=1e-12, max_iterations=200)
            )
            assert digital.converged
            analog = acc.solve(system, initial_guess=guess)
            assert analog.converged
            errors.append(
                solution_error(analog.scaled_solution, digital.u / analog.scale)
            )
        rms = float(np.sqrt(np.mean(np.array(errors) ** 2)))
        assert 0.005 < rms < 0.15

    def test_ideal_hardware_is_nearly_exact(self):
        acc = AnalogAccelerator(noise=NoiseModel.ideal(), seed=0)
        system, guess = random_burgers_system(2, 1.0, np.random.default_rng(3))
        digital = damped_newton_with_restarts(
            system, guess, NewtonOptions(tolerance=1e-12, max_iterations=200)
        )
        analog = acc.solve(system, initial_guess=guess)
        assert analog.converged
        err = solution_error(analog.scaled_solution, digital.u / analog.scale)
        assert err < 1e-3

    def test_settle_time_reported(self):
        acc = AnalogAccelerator(seed=0)
        result = acc.solve(CoupledQuadraticSystem(1.0, 1.0), initial_guess=np.array([1.0, 1.0]))
        assert 0.0 < result.settle_time_units < 60.0

    def test_same_die_same_result(self):
        system, guess = random_burgers_system(2, 1.0, np.random.default_rng(4))
        a = AnalogAccelerator(seed=9).solve(system, initial_guess=guess)
        b = AnalogAccelerator(seed=9).solve(system, initial_guess=guess)
        np.testing.assert_allclose(a.solution, b.solution, atol=1e-6)

    def test_different_dies_differ(self):
        system, guess = random_burgers_system(2, 1.0, np.random.default_rng(5))
        a = AnalogAccelerator(seed=1).solve(system, initial_guess=guess)
        b = AnalogAccelerator(seed=2).solve(system, initial_guess=guess)
        assert not np.allclose(a.solution, b.solution, atol=1e-6)

    def test_fixed_board_capacity_enforced(self):
        from repro.analog.fabric import FabricCapacityError

        acc = AnalogAccelerator(seed=0, num_chips=2)
        system, guess = random_burgers_system(3, 1.0, np.random.default_rng(0))
        with pytest.raises(FabricCapacityError):
            acc.solve(system, initial_guess=guess)

    def test_adc_repeats_validated(self):
        with pytest.raises(ValueError):
            AnalogAccelerator(adc_repeats=0)


class TestTrajectoryRecording:
    def test_trajectory_attached_on_request(self):
        from repro.nonlinear.systems import CoupledQuadraticSystem

        acc = AnalogAccelerator(seed=0)
        result = acc.solve(
            CoupledQuadraticSystem(1.0, 1.0),
            initial_guess=np.array([1.0, 1.0]),
            record_trajectory=True,
        )
        assert result.trajectory is not None
        assert result.trajectory.ys.shape[1] == 2
        # The transient ends where the readout says it ends.
        np.testing.assert_allclose(
            result.trajectory.final_state, result.scaled_solution, atol=0.05
        )

    def test_traced_settle_counts_steps_without_replayed_spans(self):
        from repro.trace.tracer import Tracer

        tracer = Tracer()
        result = AnalogAccelerator(seed=0).solve(
            CoupledQuadraticSystem(1.0, 1.0),
            initial_guess=np.array([1.0, 1.0]),
            record_trajectory=True,
            tracer=tracer,
        )
        accepted = len(result.trajectory.ts) - 1
        assert accepted > 0
        assert tracer.counters["ode_steps"] == accepted
        assert len(tracer.spans_named("analog_settle")) == 1
        assert tracer.spans_named("ode_step") == []

    def test_trajectory_absent_by_default(self):
        from repro.nonlinear.systems import CoupledQuadraticSystem

        acc = AnalogAccelerator(seed=0)
        result = acc.solve(
            CoupledQuadraticSystem(1.0, 1.0), initial_guess=np.array([1.0, 1.0])
        )
        assert result.trajectory is None

    def test_transient_residual_decays_on_ideal_hardware(self):
        # On noisy hardware the transient settles at the DISTORTED
        # system's root (true residual bounded by the distortion), so
        # the clean exponential-decay invariant is checked on ideal
        # silicon.
        from repro.nonlinear.systems import CoupledQuadraticSystem

        system = CoupledQuadraticSystem(1.0, 1.0)
        acc = AnalogAccelerator(seed=1, noise=NoiseModel.ideal())
        result = acc.solve(
            system, initial_guess=np.array([1.0, 1.0]), record_trajectory=True
        )
        trajectory = result.trajectory
        start = system.residual_norm(result.scale * trajectory.ys[0])
        end = system.residual_norm(result.scale * trajectory.ys[-1])
        assert end < 1e-3 * start


def _creep_probe(seed, tracer=None):
    """Grid 8, Re 2.0: seeds 0 and 6 creep toward a singular Jacobian,
    the other seeds settle normally."""
    system, guess = random_burgers_system(8, 2.0, np.random.default_rng(seed))
    return AnalogAccelerator(seed=seed).solve(
        system,
        initial_guess=guess,
        record_trajectory=True,
        tracer=tracer,
        settle_max_steps=1000,
    )


class TestStall:
    @pytest.mark.parametrize("seed", [0, 6])
    def test_creeping_settle_stops_at_the_window(self, seed):
        from repro.trace.tracer import Tracer

        tracer = Tracer()
        result = _creep_probe(seed, tracer)
        assert len(result.trajectory.ts) - 1 <= 40
        assert not result.trajectory.settled
        assert result.trajectory.settle_time is None
        assert not result.converged
        (span,) = tracer.spans_named("analog_settle")
        assert span.attrs["settle_outcome"] == "stalled"

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_ordinary_settle_takes_the_same_steps(self, seed, monkeypatch):
        import repro.nonlinear.continuous_newton as continuous_newton
        from repro.trace.tracer import Tracer

        tracer = Tracer()
        windowed = _creep_probe(seed, tracer)
        (span,) = tracer.spans_named("analog_settle")
        assert span.attrs["settle_outcome"] == "settled"
        monkeypatch.setattr(continuous_newton, "_STALL_STEPS", 10**9)
        unbounded = _creep_probe(seed)
        assert len(windowed.trajectory.ts) == len(unbounded.trajectory.ts)
        assert windowed.trajectory.rejected_steps == unbounded.trajectory.rejected_steps
        np.testing.assert_array_equal(windowed.solution, unbounded.solution)

    def test_budget_spent_reads_unsettled(self):
        from repro.trace.tracer import Tracer

        tracer = Tracer()
        system, guess = random_burgers_system(8, 2.0, np.random.default_rng(1))
        result = AnalogAccelerator(seed=1).solve(
            system, initial_guess=guess, tracer=tracer, settle_max_steps=5
        )
        assert not result.converged
        (span,) = tracer.spans_named("analog_settle")
        assert span.attrs["settle_outcome"] == "unsettled"

    def test_stalled_seed_falls_to_the_hybrid_polish(self):
        from repro.runtime.ladder import DegradationLadder

        system, guess = random_burgers_system(8, 2.0, np.random.default_rng(0))
        ladder = DegradationLadder(accelerator=AnalogAccelerator(seed=0), settle_max_steps=1000)
        result = ladder.solve(system, guess)
        assert not result.analog.converged
        assert result.converged and result.rung == "hybrid"
        assert result.rungs_tried == ("hybrid",)
