"""Figure 8: baseline vs analog-seeded digital solver across Reynolds.

"Figure [8] shows the solution time of a baseline digital solver
compared to a seeded digital solver which benefits from the
low-precision solution of an analog accelerator. The average solution
time over 16 trials for both is plotted against various choices of
Reynolds number ... As the Reynolds number approaches 2.0, the baseline
digital solver running the damped Newton method is forced to take
smaller steps, causing the algorithm to run longer with greater
variance in the solution time. On the other hand the analog seed saves
the digital solver from having to use damped steps."

Both solvers run to double-precision-epsilon-scaled residuals; times
come from the CPU cost model driven by measured iteration counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.analog.engine import AnalogAccelerator
from repro.core.hybrid import HybridSolver
from repro.linalg.kernel import LinearKernel, LinearSolverStats
from repro.nonlinear.newton import NewtonOptions, damped_newton_with_restarts
from repro.perf.analog_model import AnalogTimingModel
from repro.perf.cpu_model import CpuModel
from repro.pde.burgers import random_burgers_system
from repro.reporting import ascii_table, render_kernel_stats
from repro.trace.tracer import TracerLike, as_tracer

__all__ = ["Figure8Result", "run_figure8", "PAPER_FIGURE8"]

# Paper Figure 8: Reynolds -> (baseline seconds, seeded seconds).
PAPER_FIGURE8 = {
    0.01: (0.08, 0.06),
    0.02: (0.07, 0.06),
    0.03: (0.08, 0.06),
    0.06: (0.07, 0.06),
    0.13: (0.08, 0.06),
    0.25: (0.15, 0.08),
    0.50: (0.09, 0.08),
    1.00: (0.10, 0.08),
    2.00: (0.81, 0.05),
}


@dataclass
class Figure8Result:
    rows_data: List[dict]
    kernel_stats: Optional[LinearSolverStats] = None

    def rows(self) -> List[dict]:
        return self.rows_data

    def render(self) -> str:
        table = ascii_table(self.rows_data)
        stats = render_kernel_stats(self.kernel_stats, label="digital linear kernel")
        return f"{table}\n\n{stats}" if stats else table

    def row_at(self, reynolds: float) -> Optional[dict]:
        for row in self.rows_data:
            if row["Reynolds number"] == reynolds:
                return row
        return None


def run_figure8(
    grid_n: int = 16,
    reynolds_values: Tuple[float, ...] = (0.01, 0.25, 1.0, 2.0),
    trials: int = 4,
    seed: int = 0,
    cpu_model: Optional[CpuModel] = None,
    analog_model: Optional[AnalogTimingModel] = None,
    tracer: Optional[TracerLike] = None,
) -> Figure8Result:
    """Sweep Reynolds numbers; report baseline vs seeded times.

    The paper's full figure uses a 16x16 grid, nine Reynolds values and
    16 trials; defaults are reduced for bench runtime — pass the full
    settings to reproduce the complete series.

    ``tracer`` records the baseline leg's ``newton_attempt`` spans and
    the hybrid leg's ``ladder``/``ladder_rung``/``analog_settle`` spans
    per trial.
    """
    cpu_model = cpu_model or CpuModel()
    analog_model = analog_model or AnalogTimingModel()
    tracer = as_tracer(tracer)
    options = NewtonOptions(tolerance=1e-11, max_iterations=60)
    sweep_stats = LinearSolverStats()
    rows = []
    for reynolds in reynolds_values:
        baseline_times = []
        seeded_times = []
        analog_seed_times = []
        for trial in range(trials):
            rng = np.random.default_rng(seed + 7919 * trial)
            system, _ = random_burgers_system(grid_n, reynolds, rng)
            # The naive initial guess: uniform across the solution's
            # dynamic range (no warm history to exploit).
            guess = rng.uniform(-2.0, 2.0, system.dimension)
            nnz = system.jacobian(guess).nnz
            # Per-trial kernels (baseline and seeded legs accounted
            # separately but into one sweep-level sink).
            solver = HybridSolver(
                AnalogAccelerator(seed=seed + trial),
                polish_options=options,
                linear_solver=LinearKernel(stats=sweep_stats),
            )
            baseline = damped_newton_with_restarts(
                system,
                guess,
                options,
                linear_solver=LinearKernel(stats=sweep_stats),
                min_damping=1.0 / 64.0,
                tracer=tracer,
            )
            if not baseline.converged:
                # Paper protocol: instances where no damping converges
                # are dropped from the averages (their Figure 8 error
                # bars come from the surviving trials).
                continue
            hybrid = solver.solve(system, initial_guess=guess, tracer=tracer)
            if not hybrid.converged:
                continue
            baseline_times.append(
                cpu_model.solve_seconds(baseline, system.dimension, nnz, count_restarts=True)
            )
            seeded_times.append(cpu_model.solve_seconds(hybrid.digital, system.dimension, nnz))
            analog_seed_times.append(analog_model.seconds(hybrid.analog.settle_time_units))
        if not baseline_times:
            continue
        rows.append(
            {
                "Reynolds number": reynolds,
                "trials converged": len(baseline_times),
                "baseline digital (s)": float(np.mean(baseline_times)),
                "baseline std (s)": float(np.std(baseline_times)),
                "analog seed (s)": float(np.mean(analog_seed_times)),
                "seeded digital (s)": float(np.mean(seeded_times)),
                "seeded std (s)": float(np.std(seeded_times)),
                "speedup": float(np.mean(baseline_times) / max(np.mean(seeded_times), 1e-12)),
            }
        )
    return Figure8Result(rows_data=rows, kernel_stats=sweep_stats)
