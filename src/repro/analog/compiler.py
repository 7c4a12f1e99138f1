"""Compile nonlinear systems onto the analog fabric.

The digital host "prepares the analog accelerator for equation solving
by configuring the chip so the analog signals in the chip represent the
nonlinear system of equations F(u) and the Jacobian matrix J_F(u)"
(Section 5.1). The compiler's jobs:

* decide the tile allocation (one PDE variable per tile, Section 5.2),
* account the per-variable component usage by circuit role — nonlinear
  function, Jacobian, quotient feedback loop, Newton feedback loop —
  the numbers reported in Table 3,
* wire tiles together following the sparse neighbour pattern of the
  stencil, and
* hand the execution engine the per-variable datapath distortions of
  the allocated hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.analog.fabric import Fabric, FabricCapacityError, Tile
from repro.nonlinear.systems import NonlinearSystem
from repro.pde.burgers import BurgersStencilSystem

__all__ = ["ResourceCount", "CompiledProblem", "compile_system", "compile_burgers", "TABLE3_ROLES"]

# Circuit roles of Figure 1, the columns of Table 3.
TABLE3_ROLES = (
    "nonlinear function",
    "Jacobian matrix",
    "quotient feedback loop",
    "Newton method feedback loop",
)

# Per-PDE-variable component usage by role for a quadratic stencil like
# Burgers' (Table 3 of the paper). The derivation: the per-variable
# nonlinear function u*u_x + v*u_y - Lap(u)/Re needs 4 multipliers (two
# products, two coefficient gains) fed by 2 fanout copies of the state
# and 3 DAC constants; the Jacobian row re-uses fanned-out signals with
# 3 more multipliers and 1 DAC; the quotient (gradient-descent) loop
# needs its own integrator, 3 fanouts and 1 multiplier; the Newton loop
# closes with the state integrator and 3 fanouts.
_QUADRATIC_STENCIL_USAGE: Dict[str, Tuple[int, int, int, int]] = {
    "integrator": (0, 0, 1, 1),
    "fanout": (2, 0, 3, 3),
    "multiplier": (4, 3, 1, 0),
    "DAC": (3, 1, 0, 0),
    "tile input": (4, 4, 0, 0),
    "tile output": (4, 0, 4, 3),
}


@dataclass(frozen=True)
class ResourceCount:
    """Component usage per PDE variable, by circuit role (Table 3)."""

    usage: Dict[str, Tuple[int, int, int, int]] = field(
        default_factory=lambda: dict(_QUADRATIC_STENCIL_USAGE)
    )

    def per_variable_total(self, component: str) -> int:
        return int(sum(self.usage[component]))

    def components(self) -> List[str]:
        return list(self.usage.keys())

    def role_counts(self, component: str) -> Tuple[int, int, int, int]:
        return self.usage[component]


@dataclass
class CompiledProblem:
    """A nonlinear system mapped onto allocated fabric tiles."""

    system: NonlinearSystem
    fabric: Fabric
    tiles: List[Tile]
    resources: ResourceCount
    board_level_connections: int

    @property
    def num_variables(self) -> int:
        return self.system.dimension

    def equation_gain_errors(self) -> np.ndarray:
        """Per-equation relative gain error from each variable's tile."""
        return np.array([tile.datapath_gain_error() for tile in self.tiles])

    def equation_offsets(self) -> np.ndarray:
        """Per-equation offsets from each variable's tile datapath."""
        return np.array([tile.datapath_offset() for tile in self.tiles])

    def state_gain_errors(self) -> np.ndarray:
        """Per-variable gain error of the state integrator."""
        return np.array([tile.integrators[0].gain_error for tile in self.tiles])

    def release(self) -> None:
        for tile in self.tiles:
            tile.release()


def compile_system(fabric: Fabric, system: NonlinearSystem) -> CompiledProblem:
    """Map a generic nonlinear system: one variable per tile.

    Raises :class:`~repro.analog.fabric.FabricCapacityError` when the
    system needs more tiles than the board has — the hard area limit
    that motivates the red-black decomposition of Section 6.3.
    """
    if not fabric.calibrated:
        fabric.calibrate()
    tiles = fabric.allocate_tiles(system.dimension, "problem")
    resources = ResourceCount()
    for tile in tiles:
        tile.claim_ports(
            resources.per_variable_total("tile input"),
            resources.per_variable_total("tile output"),
        )
    # Dense wiring assumption for generic systems: every pair of
    # variables may interact, so route tile outputs pessimistically.
    connections = 0
    for i, tile in enumerate(tiles):
        for j in range(i + 1, len(tiles)):
            fabric.connect(f"{tile.name}.out", f"{tiles[j].name}.in")
            connections += 1
    fabric.cfg_commit()
    return CompiledProblem(
        system=system,
        fabric=fabric,
        tiles=tiles,
        resources=resources,
        board_level_connections=connections,
    )


def compile_burgers(fabric: Fabric, system: BurgersStencilSystem) -> CompiledProblem:
    """Map a Burgers stencil: u-field tiles on one chip group, v-field
    tiles on another, with sparse neighbour-to-neighbour routing.

    "One analog accelerator chip stores and computes on u ... and the
    other does the same for v. The interaction between these two fields
    is sparse, so they can be connected via circuit board-level
    connections." (Section 5.2)
    """
    if not fabric.calibrated:
        fabric.calibrate()
    grid = system.grid
    n = grid.num_nodes
    tiles = fabric.allocate_tiles(system.dimension, "burgers")
    resources = ResourceCount()
    for tile in tiles:
        tile.claim_ports(
            resources.per_variable_total("tile input"),
            resources.per_variable_total("tile output"),
        )
    u_tiles, v_tiles = tiles[:n], tiles[n:]

    board_links = 0
    for j in range(grid.ny):
        for i in range(grid.nx):
            k = grid.flat_index(i, j)
            # Five-point neighbour routing within each field.
            for field_tiles in (u_tiles, v_tiles):
                if i + 1 < grid.nx:
                    fabric.connect(
                        f"{field_tiles[k].name}.out",
                        f"{field_tiles[grid.flat_index(i + 1, j)].name}.in",
                    )
                if j + 1 < grid.ny:
                    fabric.connect(
                        f"{field_tiles[k].name}.out",
                        f"{field_tiles[grid.flat_index(i, j + 1)].name}.in",
                    )
            # Cross-field coupling u <-> v at the same node crosses the
            # chip boundary: a board-level connection.
            fabric.connect(f"{u_tiles[k].name}.out", f"{v_tiles[k].name}.in", board_level=True)
            fabric.connect(f"{v_tiles[k].name}.out", f"{u_tiles[k].name}.in", board_level=True)
            board_links += 2
    fabric.cfg_commit()
    return CompiledProblem(
        system=system,
        fabric=fabric,
        tiles=tiles,
        resources=resources,
        board_level_connections=board_links,
    )
