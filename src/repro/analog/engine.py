"""Continuous-time execution of compiled problems (the accelerator run).

A run proceeds exactly as on the prototype board (Figure 4):

1. the problem is scaled into the dynamic range (Section 5.3),
2. DACs program constants and integrator initial conditions
   (quantized to DAC resolution),
3. the configuration is committed and the integrators released: the
   fabric's signals evolve as the continuous Newton ODE, *distorted* by
   the allocated tiles' post-calibration gain errors and offsets,
4. when the integrator inputs settle, ADCs measure the outputs
   (quantization + thermal noise, averaged over repeats),
5. the digital host unscales the measurement.

The distortion model: with per-equation datapath gains ``g`` and
offsets ``c``, and per-state integrator gains ``h``, the hardware
solves the *perturbed* system

    D(w) = diag(1 + g) * F(diag(1 + h) * w) + c = 0

whose root differs from the true scaled root by O(g, h, c) — this root
shift plus ADC quantization reproduces the error distribution the paper
measures in Figure 6 (total RMS 5.38 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.analog.calibration import CalibrationConfig
from repro.analog.compiler import CompiledProblem, compile_burgers, compile_system
from repro.analog.fabric import Fabric
from repro.analog.health import (
    NONFINITE_QUALITY,
    DegradationModel,
    DegradationSchedule,
    HealthMonitor,
    SeedQuality,
    SeedQualityGate,
)
from repro.analog.noise import NoiseModel
from repro.analog.scaling import ScaledSystem, required_scale
from repro.linalg.sparse import CsrMatrix
from repro.nonlinear.continuous_newton import continuous_newton_solve
from repro.nonlinear.homotopy import davidenko_solve
from repro.nonlinear.systems import NonlinearSystem
from repro.pde.burgers import BurgersStencilSystem
from repro.trace.tracer import TracerLike, as_tracer

__all__ = ["AnalogSolveResult", "AnalogAccelerator", "solution_error", "DistortedSystem"]


def solution_error(analog: np.ndarray, digital: np.ndarray, scale: float = 1.0) -> float:
    """The paper's Equation 6 error metric, in scaled (dynamic-range)
    units so the result reads directly as a fraction of full scale:

        sqrt( sum((u_a - u_d)^2) / N ) / scale
    """
    analog = np.asarray(analog, dtype=float)
    digital = np.asarray(digital, dtype=float)
    if analog.shape != digital.shape:
        raise ValueError("analog and digital solutions must have the same shape")
    diff = analog - digital
    if not np.all(np.isfinite(diff)):
        # A saturated or dead-tile seed can carry NaN/Inf; the error
        # metric must stay finite (and huge) so callers can compare and
        # reject it without non-finite values leaking into Newton.
        bound = 1e6 * float(scale)
        diff = np.nan_to_num(diff, nan=bound, posinf=bound, neginf=-bound)
    return float(np.sqrt(np.mean(diff**2)) / scale)


class DistortedSystem(NonlinearSystem):
    """A system as computed by imperfect analog hardware."""

    def __init__(
        self,
        inner: NonlinearSystem,
        equation_gains: np.ndarray,
        state_gains: np.ndarray,
        offsets: np.ndarray,
    ):
        self.inner = inner
        self.dimension = inner.dimension
        self._eq_gain = 1.0 + np.asarray(equation_gains, dtype=float)
        self._state_gain = 1.0 + np.asarray(state_gains, dtype=float)
        self._offsets = np.asarray(offsets, dtype=float)
        for name, arr in (
            ("equation_gains", self._eq_gain),
            ("state_gains", self._state_gain),
            ("offsets", self._offsets),
        ):
            if arr.shape != (self.dimension,):
                raise ValueError(f"{name} must have shape ({self.dimension},)")
        # (indptr, indices, row gains, column gains) of the last
        # read-only Jacobian pattern seen.
        self._pattern_gains: Optional[tuple] = None

    def residual(self, w: np.ndarray) -> np.ndarray:
        w = self._validate(w)
        return self._eq_gain * self.inner.residual(self._state_gain * w) + self._offsets

    def jacobian(self, w: np.ndarray):
        w = self._validate(w)
        jac = self.inner.jacobian(self._state_gain * w)
        if isinstance(jac, np.ndarray):
            return (self._eq_gain[:, None] * jac) * self._state_gain[None, :]
        # Preserve sparsity: scale rows by equation gains and columns by
        # state gains directly on the CSR data array.
        eq, state = self._gains_on(jac)
        data = jac.data * eq * state
        return CsrMatrix(shape=jac.shape, indptr=jac.indptr, indices=jac.indices, data=data)

    def _gains_on(self, jac: CsrMatrix) -> tuple:
        """Each stored entry's row gain and column gain. Computed once
        per pattern when the pattern's arrays are read-only (a cached
        stencil pattern), else on every call."""
        cached = self._pattern_gains
        if cached is not None and cached[0] is jac.indptr and cached[1] is jac.indices:
            return cached[2], cached[3]
        row_ids = np.repeat(np.arange(jac.num_rows), np.diff(jac.indptr))
        gains = (self._eq_gain[row_ids], self._state_gain[jac.indices])
        if not (jac.indptr.flags.writeable or jac.indices.flags.writeable):
            self._pattern_gains = (jac.indptr, jac.indices) + gains
        return gains


@dataclass
class AnalogSolveResult:
    """Outcome of one accelerator run.

    ``settle_time_units`` is in the continuous Newton flow's natural
    time; :class:`repro.perf.analog_model.AnalogTimingModel` converts it
    to seconds using the chip's time constant. ``dac_writes`` and
    ``adc_reads`` account the digital-analog data transmission of the
    run — per Section 5.1, "only new problem parameters and results
    need to be transmitted between analog accelerator runs", the same
    interface cost shape as a GPU offload.
    """

    solution: np.ndarray
    converged: bool
    settle_time_units: float
    scale: float
    scaled_solution: np.ndarray
    residual_norm: float
    dac_writes: int = 0
    adc_reads: int = 0
    reconfigured: bool = True
    """False when the run reused the previous configuration (same
    stencil connectivity, new constants) — the steady-state case of a
    solver issuing many instances of the same kind of problem."""
    trajectory: Optional[object] = None
    """When trajectory recording is requested: the
    :class:`repro.ode.solution.OdeSolution` of the scaled state during
    the run — the oscilloscope view of the settling transient."""
    seed_quality: Optional[SeedQuality] = None
    """Verdict of the accelerator's :class:`SeedQualityGate` on this
    run's solution as a Newton seed (``None`` when gating is off)."""
    seed_accepted: bool = True
    """Convenience mirror of ``seed_quality.accepted``. Downstream
    solvers treat a *converged but rejected* result as "do not hand
    this to undamped Newton" and skip straight to damped recovery."""
    saturated_fraction: float = 0.0
    """Fraction of variables measured at the ADC rails — the
    saturation evidence the health monitor accumulates per tile."""

    @property
    def dimension(self) -> int:
        return int(self.solution.shape[0])


class AnalogAccelerator:
    """A simulated accelerator board with a high-level solve API.

    Parameters
    ----------
    noise:
        Error-process magnitudes of this board's silicon.
    seed:
        Die seed: one seed = one physical board (its mismatch pattern
        is fixed across runs, as on real silicon).
    num_chips:
        Board size; ``None`` sizes the board to each problem (the
        paper's scaled-up modeled accelerators).
    fault_hook:
        Test/chaos seam: a callable applied to every
        :class:`AnalogSolveResult` before it is returned from a run.
        It may mutate the result in place (e.g. corrupt the measured
        solution while leaving ``converged`` set — the silently bad
        seed the degradation ladder must survive) and/or return a
        replacement result; returning ``None`` keeps the mutated
        original. ``None`` (the default) costs nothing. The hook runs
        *after* seed gating and health observation — a silent
        corruption is exactly the fault the gate cannot see.
    degradation:
        A :class:`repro.analog.health.DegradationModel` (wrapped in a
        fresh schedule) or :class:`DegradationSchedule` aging this
        board. The schedule persists across solves even though a
        ``num_chips=None`` accelerator builds a fresh fabric per solve
        — drift is keyed by component name, and the names are stable.
    health:
        The :class:`repro.analog.health.HealthMonitor` watching this
        board; a default monitor (tolerances from ``calibration``) is
        created when omitted.
    seed_gate:
        The :class:`repro.analog.health.SeedQualityGate` judging every
        converged solution as a Newton seed. The default gate only
        rejects seeds worse than the naive initial guess.
    """

    def __init__(
        self,
        noise: Optional[NoiseModel] = None,
        seed: int = 0,
        num_chips: Optional[int] = None,
        calibration: Optional[CalibrationConfig] = None,
        adc_repeats: int = 4,
        fault_hook: Optional[Callable[["AnalogSolveResult"], Optional["AnalogSolveResult"]]] = None,
        degradation: Optional[object] = None,
        health: Optional[HealthMonitor] = None,
        seed_gate: Optional[SeedQualityGate] = None,
    ):
        self.noise = noise or NoiseModel()
        self.seed = int(seed)
        self.num_chips = num_chips
        self.calibration = calibration or CalibrationConfig()
        if adc_repeats <= 0:
            raise ValueError("adc_repeats must be positive")
        self.adc_repeats = int(adc_repeats)
        self.fault_hook = fault_hook
        if isinstance(degradation, DegradationModel):
            degradation = DegradationSchedule(degradation)
        self.degradation: Optional[DegradationSchedule] = degradation
        self.health = health if health is not None else HealthMonitor(calibration=self.calibration)
        self.seed_gate = seed_gate if seed_gate is not None else SeedQualityGate()
        self._run_rng = np.random.default_rng(seed + 977)

    def _apply_fault_hook(self, result: "AnalogSolveResult") -> "AnalogSolveResult":
        if self.fault_hook is None:
            return result
        replaced = self.fault_hook(result)
        return result if replaced is None else replaced

    def _fabric_for(self, dimension: int) -> Fabric:
        if self.num_chips is not None:
            fabric = Fabric(
                num_chips=self.num_chips,
                noise=self.noise,
                seed=self.seed,
                degradation=self.degradation,
            )
            fabric.calibrate(self.calibration)
            self.health.apply_quarantine(fabric)
            return fabric
        # Auto-sized board: grow past quarantined tiles so degradation
        # shrinks the *margin*, not the solvable problem size (fixed
        # boards instead surface FabricCapacityError honestly).
        from repro.analog.fabric import TILES_PER_CHIP

        chips = (dimension + TILES_PER_CHIP - 1) // TILES_PER_CHIP
        max_chips = chips + (len(self.health.quarantined) + TILES_PER_CHIP - 1) // TILES_PER_CHIP
        while True:
            fabric = Fabric(
                num_chips=chips,
                noise=self.noise,
                seed=self.seed,
                degradation=self.degradation,
            )
            self.health.apply_quarantine(fabric)
            if len(fabric.free_tiles()) >= dimension or chips >= max_chips:
                break
            chips += 1
        fabric.calibrate(self.calibration)
        return fabric

    def _observe_health(
        self,
        compiled: CompiledProblem,
        solution: np.ndarray,
        residual_vector: np.ndarray,
        residual_norm: float,
        reference_norm: float,
        settle_time_units: float,
        converged: bool,
        measured_w: np.ndarray,
        scale: float,
        tracer: TracerLike,
    ) -> tuple:
        """Gate the seed, fold the run into the monitor, remediate.

        Returns ``(SeedQuality, saturated_fraction)``. Emits the
        ``analog_health`` span and the three reconciliation counters
        (``seeds_rejected``, ``tiles_quarantined``, ``recalibrations``).
        """
        quality = self.seed_gate.assess(solution, residual_norm, reference_norm)
        step = 2.0 * self.noise.full_scale / 2**self.noise.adc_bits
        saturated = np.abs(np.asarray(measured_w, dtype=float)) >= self.noise.full_scale - step
        scaled_residuals = np.abs(
            np.nan_to_num(
                np.asarray(residual_vector, dtype=float) / scale,
                nan=NONFINITE_QUALITY,
                posinf=NONFINITE_QUALITY,
                neginf=-NONFINITE_QUALITY,
            )
        )
        fabric = compiled.fabric
        rejected = converged and not quality.accepted
        with tracer.span("analog_health", dimension=len(residual_vector)) as span:
            if rejected:
                self.health.note_seed_rejected()
                tracer.counter("seeds_rejected")
            newly_flagged = self.health.observe_solve(
                [tile.name for tile in compiled.tiles],
                scaled_residuals,
                settle_time_units,
                saturated,
                settled=converged,
            )
            newly_quarantined = self.health.quarantine_flagged()
            if newly_quarantined:
                tracer.counter("tiles_quarantined", len(newly_quarantined))
            recalibrated = False
            if self.health.should_recalibrate(fabric.num_tiles):
                # Drift re-nulls; hardware faults (stuck tiles, dead
                # DACs) persist in the schedule and will re-flag.
                if self.degradation is not None:
                    self.degradation.reset()
                self.health.note_recalibration()
                tracer.counter("recalibrations")
                recalibrated = True
            span.update(
                seed_quality=float(quality.quality),
                seed_accepted=bool(quality.accepted),
                seed_rejected=rejected,
                newly_flagged=len(newly_flagged),
                newly_quarantined=len(newly_quarantined),
                quarantine_pressure=self.health.quarantine_pressure(fabric.num_tiles),
                recalibrated=recalibrated,
                degradation_step=0 if self.degradation is None else self.degradation.step,
            )
        return quality, float(np.mean(saturated))

    def solve(
        self,
        system: NonlinearSystem,
        initial_guess: Optional[np.ndarray] = None,
        value_bound: float = 3.0,
        time_limit: float = 60.0,
        derivative_tolerance: float = 1e-5,
        record_trajectory: bool = False,
        tracer: Optional[TracerLike] = None,
        settle_max_steps: int = 1_000_000,
    ) -> AnalogSolveResult:
        """Run the continuous Newton method on the hardware model.

        ``value_bound`` is the expected magnitude of problem values,
        used for dynamic-range scaling (the paper scales the +-3.0
        constants of its random problems into the analog range).
        ``tracer`` records one ``analog_settle`` span per run and counts
        the settled trajectory's accepted integrator steps in the
        ``ode_steps`` counter.
        """
        fabric = self._fabric_for(system.dimension)
        if isinstance(system, BurgersStencilSystem):
            compiled = compile_burgers(fabric, system)
        else:
            compiled = compile_system(fabric, system)
        try:
            return self._execute(
                compiled,
                initial_guess,
                value_bound,
                time_limit,
                derivative_tolerance,
                record_trajectory=record_trajectory,
                tracer=tracer,
                settle_max_steps=settle_max_steps,
            )
        finally:
            fabric.exec_stop()
            compiled.release()

    def solve_with_homotopy(
        self,
        simple: NonlinearSystem,
        hard: NonlinearSystem,
        start_root: np.ndarray,
        value_bound: float = 3.0,
        tracer: Optional[TracerLike] = None,
    ) -> AnalogSolveResult:
        """Run homotopy continuation on the hardware model (Section 3.2).

        "We can instead solve this ODE on our analog accelerator
        prototype chip" — the lambda ramp is a swept DAC input and the
        Davidenko + corrector dynamics run on the same distorted
        fabric as continuous Newton. Both the simple and hard systems
        are computed by the *same* allocated tiles, so they share one
        set of datapath errors, exactly as on silicon.
        """
        if simple.dimension != hard.dimension:
            raise ValueError("simple and hard systems must share a dimension")
        tracer = as_tracer(tracer)
        fabric = self._fabric_for(hard.dimension)
        compiled = compile_system(fabric, hard, owner="homotopy")
        try:
            scale = required_scale(value_bound, self.noise)
            start_root = np.asarray(start_root, dtype=float)
            w0 = self.noise.dac_write(start_root / scale)
            # As in _execute: age the board first, then read the errors
            # the run is actually distorted by.
            compiled.fabric.exec_start()
            eq_gains = compiled.equation_gain_errors()
            state_gains = compiled.state_gain_errors()
            offsets = compiled.equation_offsets()
            distorted_simple = DistortedSystem(
                ScaledSystem(simple, scale), eq_gains, state_gains, offsets
            )
            distorted_hard = DistortedSystem(
                ScaledSystem(hard, scale), eq_gains, state_gains, offsets
            )
            flow = davidenko_solve(
                distorted_simple,
                distorted_hard,
                w0,
                rtol=1e-6,
                atol=1e-9,
                polish=False,
                residual_tolerance=1e-1,
            )
            thermal = (
                self.noise.thermal_noise_sigma
                / np.sqrt(self.adc_repeats)
                * self._run_rng.standard_normal(flow.u.shape)
            )
            measured = self.noise.adc_read(flow.u + thermal)
            solution = scale * measured
            residual_vector = np.asarray(hard.residual(solution), dtype=float)
            residual_norm = float(np.linalg.norm(residual_vector))
            quality, saturated_fraction = self._observe_health(
                compiled,
                solution,
                residual_vector,
                residual_norm,
                reference_norm=hard.residual_norm(start_root),
                settle_time_units=1.0,
                converged=flow.converged,
                measured_w=measured,
                scale=scale,
                tracer=tracer,
            )
            return self._apply_fault_hook(AnalogSolveResult(
                solution=solution,
                converged=flow.converged,
                settle_time_units=1.0,  # the lambda ramp spans one unit
                scale=scale,
                scaled_solution=measured,
                residual_norm=residual_norm,
                seed_quality=quality,
                seed_accepted=quality.accepted,
                saturated_fraction=saturated_fraction,
            ))
        finally:
            fabric.exec_stop()
            compiled.release()

    def solve_batch(
        self,
        systems,
        initial_guesses=None,
        value_bound: float = 3.0,
        time_limit: float = 60.0,
        derivative_tolerance: float = 1e-5,
        tracer: Optional[TracerLike] = None,
        settle_max_steps: int = 1_000_000,
    ):
        """Solve a sequence of same-shaped problems on one configuration.

        "The configuration of the analog accelerator remains the same
        when solving for different instances of the same kind of PDE.
        ... Only new problem parameters and results need to be
        transmitted between analog accelerator runs." (Section 5.1)

        The fabric is compiled once; each subsequent run reprograms only
        DAC constants and initial conditions (``reconfigured = False``
        on the returned results after the first), and the per-run
        transfer accounting shows the steady-state interface cost.
        """
        systems = list(systems)
        if not systems:
            raise ValueError("systems must be nonempty")
        dimension = systems[0].dimension
        if any(s.dimension != dimension for s in systems):
            raise ValueError("all systems in a batch must share a dimension")
        if initial_guesses is None:
            initial_guesses = [None] * len(systems)
        if len(initial_guesses) != len(systems):
            raise ValueError("one initial guess per system (or None)")
        fabric = self._fabric_for(dimension)
        if isinstance(systems[0], BurgersStencilSystem):
            compiled = compile_burgers(fabric, systems[0])
        else:
            compiled = compile_system(fabric, systems[0])
        results = []
        try:
            for index, (system, guess) in enumerate(zip(systems, initial_guesses)):
                result = self._execute(
                    compiled,
                    guess,
                    value_bound,
                    time_limit,
                    derivative_tolerance,
                    system=system,
                    tracer=tracer,
                    settle_max_steps=settle_max_steps,
                )
                result.reconfigured = index == 0
                results.append(result)
                fabric.exec_stop()
        finally:
            fabric.exec_stop()
            compiled.release()
        return results

    def _execute(
        self,
        compiled: CompiledProblem,
        initial_guess: Optional[np.ndarray],
        value_bound: float,
        time_limit: float,
        derivative_tolerance: float,
        system: Optional[NonlinearSystem] = None,
        record_trajectory: bool = False,
        tracer: Optional[TracerLike] = None,
        settle_max_steps: int = 1_000_000,
    ) -> AnalogSolveResult:
        tracer = as_tracer(tracer)
        system = compiled.system if system is None else system
        scale = required_scale(value_bound, self.noise)
        scaled = ScaledSystem(system, scale)
        if initial_guess is None:
            guess_physical = np.zeros(system.dimension)
            w0 = np.zeros(system.dimension)
        else:
            guess_physical = np.asarray(initial_guess, dtype=float)
            w0 = scaled.to_scaled(guess_physical)
        # Initial conditions are programmed through DACs.
        w0 = self.noise.dac_write(w0)

        # exec_start *before* reading the datapath errors: each start
        # ages the board one degradation step, and the run must see the
        # errors as they stand when the integrators are released.
        compiled.fabric.exec_start()
        distorted = DistortedSystem(
            scaled,
            equation_gains=compiled.equation_gain_errors(),
            state_gains=compiled.state_gain_errors(),
            offsets=compiled.equation_offsets(),
        )
        # Bounded inner kernel: the flow's direction only needs to be
        # accurate to the integrator's tolerance, and runaway Krylov
        # fallbacks near singular Jacobians would dominate simulation
        # wall-clock without changing the settled state.
        from repro.nonlinear.newton import make_sparse_linear_solver

        flow_solver = make_sparse_linear_solver(tol=1e-8, max_iterations=300)
        # Convergence is judged relative to the starting residual: at
        # extreme Reynolds numbers the scaled operator's magnitude (the
        # 1/Re viscous coefficients) inflates absolute residuals without
        # the settled *solution* being any worse.
        initial_residual = float(np.linalg.norm(distorted.residual(w0)))
        with tracer.span("analog_settle", dimension=system.dimension) as settle_span:
            flow = continuous_newton_solve(
                distorted,
                w0,
                time_limit=time_limit,
                fidelity="behavioral",
                derivative_tolerance=derivative_tolerance,
                dwell=0.05,
                rtol=1e-6,
                atol=1e-9,
                linear_solver=flow_solver,
                residual_tolerance=max(1e-2, 1e-3 * initial_residual),
                max_steps=settle_max_steps,
            )
            settle_span.update(
                converged=flow.converged,
                settle_time_units=flow.settle_time,
                residual_norm=flow.residual_norm,
                rhs_evaluations=flow.solution.rhs_evaluations,
            )
            if tracer.active:
                # Accepted integrator steps are a count: a span per step,
                # emitted after the settle, would carry no real timing.
                tracer.counter("ode_steps", max(len(flow.solution.ts) - 1, 0))
        # ADC readout: thermal noise averaged over repeats, then
        # quantization (bias not removed by averaging).
        settled_w = flow.u
        thermal = (
            self.noise.thermal_noise_sigma
            / np.sqrt(self.adc_repeats)
            * self._run_rng.standard_normal(settled_w.shape)
        )
        measured_w = self.noise.adc_read(settled_w + thermal)
        solution = scaled.to_physical(measured_w)
        residual_vector = np.asarray(system.residual(solution), dtype=float)
        residual_norm = float(np.linalg.norm(residual_vector))
        quality, saturated_fraction = self._observe_health(
            compiled,
            solution,
            residual_vector,
            residual_norm,
            reference_norm=system.residual_norm(guess_physical),
            settle_time_units=flow.settle_time,
            converged=flow.converged,
            measured_w=measured_w,
            scale=scale,
            tracer=tracer,
        )
        n = system.dimension
        resources = compiled.resources
        return self._apply_fault_hook(AnalogSolveResult(
            solution=solution,
            converged=flow.converged,
            settle_time_units=flow.settle_time,
            scale=scale,
            scaled_solution=measured_w,
            residual_norm=residual_norm,
            # Transfers per run: initial conditions plus the Table 3
            # per-variable constant DACs in; one averaged ADC sample
            # stream per variable out.
            dac_writes=n + n * resources.per_variable_total("DAC"),
            adc_reads=n * self.adc_repeats,
            trajectory=flow.solution if record_trajectory else None,
            seed_quality=quality,
            seed_accepted=quality.accepted,
            saturated_fraction=saturated_fraction,
        ))
