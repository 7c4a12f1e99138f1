"""Figure 7: time to convergence, digital vs analog, at equal accuracy.

For grid sizes 2x2 through 16x16 and a sweep of Reynolds numbers, both
solvers are run on the same randomly generated Burgers problems and
stopped at the same (analog-grade) accuracy; time comes from the CPU
cost model driven by measured iteration counts on the digital side and
from the settle-time normalization on the analog side.

Expected shape (the paper's): digital time grows with every quadrupling
of the problem and with the Reynolds number; analog time is roughly
flat in both, crossing digital around the 4x4 grid and winning ~100x at
16x16. Data points thin out at high Reynolds numbers because fewer
random problems have a solution at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.analog.engine import AnalogAccelerator
from repro.analog.noise import NoiseModel
from repro.experiments.common import ANALOG_ERROR_TARGET, equal_accuracy_damped_newton
from repro.linalg.kernel import LinearKernel, LinearSolverStats
from repro.nonlinear.newton import NewtonOptions, damped_newton_with_restarts
from repro.perf.analog_model import AnalogTimingModel
from repro.perf.cpu_model import CpuModel
from repro.pde.burgers import random_burgers_system
from repro.reporting import ascii_table, render_kernel_stats
from repro.trace.tracer import TracerLike, as_tracer

__all__ = ["Figure7Result", "run_figure7"]


@dataclass
class Figure7Result:
    rows_data: List[dict]
    grid_sizes: Tuple[int, ...]
    reynolds_values: Tuple[float, ...]
    kernel_stats: Optional[LinearSolverStats] = None

    def rows(self) -> List[dict]:
        return self.rows_data

    def render(self) -> str:
        table = ascii_table(self.rows_data)
        stats = render_kernel_stats(self.kernel_stats, label="digital linear kernel")
        return f"{table}\n\n{stats}" if stats else table

    def cell(self, grid_n: int, reynolds: float) -> Optional[dict]:
        for row in self.rows_data:
            if row["grid"] == f"{grid_n}x{grid_n}" and row["Reynolds number"] == reynolds:
                return row
        return None


def run_figure7(
    grid_sizes: Tuple[int, ...] = (2, 4, 8, 16),
    reynolds_values: Tuple[float, ...] = (0.01, 0.1, 1.0, 2.0),
    trials: int = 2,
    seed: int = 0,
    cpu_model: Optional[CpuModel] = None,
    analog_model: Optional[AnalogTimingModel] = None,
    tracer: Optional[TracerLike] = None,
) -> Figure7Result:
    """Run the grid-size x Reynolds sweep at equal accuracy.

    Each random problem instance gets one
    :class:`~repro.linalg.kernel.LinearKernel` shared by its golden
    solve and its equal-accuracy run: the sparsity pattern is fixed per
    instance, so the preconditioner is factorized far fewer times than
    linear systems are solved. The aggregated accounting is returned in
    ``Figure7Result.kernel_stats``.

    ``tracer`` records one ``solve`` span per trial (grid, Reynolds and
    trial index as attributes) containing the golden and equal-accuracy
    digital legs' ``linear_solve`` spans and the accelerator's
    ``analog_settle`` span. Summing the ``linear_solve`` span counters
    reproduces ``kernel_stats`` exactly — the analog flow's internal
    solves are deliberately not charged to either.
    """
    cpu_model = cpu_model or CpuModel()
    analog_model = analog_model or AnalogTimingModel()
    tracer = as_tracer(tracer)
    sweep_stats = LinearSolverStats()
    rows = []
    for grid_n in grid_sizes:
        for reynolds in reynolds_values:
            digital_times = []
            analog_times = []
            solved = 0
            for trial in range(trials):
                rng = np.random.default_rng(seed + 1000 * grid_n + trial)
                system, guess = random_burgers_system(grid_n, reynolds, rng)
                # Per-instance kernel: golden + equal-accuracy solves
                # share the factorization; sweep_stats aggregates.
                kernel = LinearKernel(stats=sweep_stats)
                with tracer.span(
                    "solve",
                    solver="figure7-trial",
                    grid=f"{grid_n}x{grid_n}",
                    reynolds=float(reynolds),
                    trial=trial,
                ) as trial_span:
                    golden = damped_newton_with_restarts(
                        system,
                        guess,
                        NewtonOptions(tolerance=1e-11, max_iterations=100),
                        linear_solver=kernel,
                        # Bounded damping search: instances that need deeper
                        # damping are treated as unsolvable, matching the
                        # paper's sparse-data protocol at high Reynolds.
                        min_damping=1.0 / 64.0,
                        tracer=tracer,
                    )
                    if not golden.converged:
                        # As in the paper: some random high-Re problems have
                        # no reachable solution; those points are dropped.
                        trial_span.set("dropped", True)
                        continue
                    solved += 1
                    scale = 3.3  # dynamic-range scale of the +-3 constants
                    digital = equal_accuracy_damped_newton(
                        system,
                        guess,
                        golden.u,
                        scale=scale,
                        target_error=ANALOG_ERROR_TARGET,
                        max_iterations=100,
                        min_damping=1.0 / 64.0,
                        kernel=kernel,
                        tracer=tracer,
                    )
                    if digital.reached_target:
                        nnz = system.jacobian(guess).nnz
                        digital_times.append(
                            cpu_model.solve_seconds_from_counts(
                                digital.iterations, system.dimension, nnz
                            )
                        )
                    accelerator = AnalogAccelerator(noise=NoiseModel(), seed=seed + trial)
                    analog = accelerator.solve(
                        system, initial_guess=guess, value_bound=3.0, tracer=tracer
                    )
                    if analog.converged:
                        analog_times.append(analog_model.seconds(analog.settle_time_units))
                    trial_span.update(
                        digital_iterations=digital.iterations,
                        reached_target=digital.reached_target,
                        analog_converged=analog.converged,
                    )
            if not digital_times or not analog_times:
                continue
            rows.append(
                {
                    "grid": f"{grid_n}x{grid_n}",
                    "Reynolds number": reynolds,
                    "problems solved": solved,
                    "digital time (s)": float(np.mean(digital_times)),
                    "analog time (s)": float(np.mean(analog_times)),
                    "digital/analog": float(np.mean(digital_times) / np.mean(analog_times)),
                }
            )
    return Figure7Result(
        rows_data=rows,
        grid_sizes=tuple(grid_sizes),
        reynolds_values=tuple(reynolds_values),
        kernel_stats=sweep_stats,
    )
