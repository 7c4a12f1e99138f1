"""Table 1: function profile of nonlinear PDE solvers.

Runs the four instrumented workload mini-apps and reports the fraction
of runtime spent in each one's dominant equation-solving kernel,
alongside the fractions the paper measured on the original codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.reporting import ascii_table
from repro.workloads import (
    CooksMembraneWorkload,
    HartmannWorkload,
    LidDrivenCavityWorkload,
    TransonicFlowWorkload,
)

__all__ = ["Table1Result", "run_table1"]

_ROWS = [
    ("Fluid dynamics", "3D transonic transient laminar viscous flow", "SPEC CPU2006 410.bwaves", TransonicFlowWorkload),
    ("Magnetohydrodynamics", "2D Hartmann problem", "OpenFOAM", HartmannWorkload),
    ("Fluid dynamics", "lid-driven cavity flow", "OpenFOAM", LidDrivenCavityWorkload),
    ("Engineering mechanics", "Cook's membrane", "deal.II", CooksMembraneWorkload),
]


@dataclass
class Table1Result:
    rows_data: List[dict]

    def rows(self) -> List[dict]:
        return self.rows_data

    def render(self) -> str:
        return ascii_table(self.rows_data)


def run_table1(repeats: int = 1) -> Table1Result:
    """Profile all four mini-apps; ``repeats`` averages the fractions."""
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    rows = []
    for discipline, description, solver, workload_cls in _ROWS:
        fractions = []
        for _ in range(repeats):
            workload = workload_cls()
            report = workload.run()
            fractions.append(report.fraction(workload.KERNEL_NAME))
        measured = sum(fractions) / len(fractions)
        rows.append(
            {
                "discipline": discipline,
                "problem description": description,
                "representative solver": solver,
                "dominant kernel": workload_cls.KERNEL_NAME,
                "paper kernel time": workload_cls.PAPER_FRACTION,
                "measured kernel time": measured,
            }
        )
    return Table1Result(rows_data=rows)
