"""The Fabric / Chip / Tile hardware hierarchy and programming API.

Mirrors the object-oriented programming model of Figure 4: a
:class:`Fabric` is a board of chips; each :class:`Chip` carries four
:class:`Tile` instances (Figure 5); each tile owns four integrators,
eight multipliers, eight fanouts, DACs and ADCs, connected by an
intra-tile crossbar. Problems allocate tiles (one PDE variable per
tile, Section 5.2), wire exposed interfaces with :class:`Connection`,
then ``cfg_commit()`` and ``exec_start()`` freeze the configuration and
release the integrators.

The simulator enforces the same discipline the real chip does: no
reconfiguration while executing, no allocation of busy components, and
hard capacity limits ("Area constraints on the analog accelerator limit
us to solving grid sizes as large as 16x16", Section 6.1).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.analog.calibration import CalibrationConfig, ProcessVariation
from repro.analog.components import Adc, AnalogComponent, Dac, Fanout, Integrator, Multiplier
from repro.analog.noise import NoiseModel

__all__ = ["Fabric", "Chip", "Tile", "Connection", "FabricCapacityError"]


class FabricCapacityError(RuntimeError):
    """Raised when a problem does not fit on the fabric."""


# Per-tile unit counts from the Figure 5 microarchitecture diagram.
INTEGRATORS_PER_TILE = 4
MULTIPLIERS_PER_TILE = 8
FANOUTS_PER_TILE = 8
DACS_PER_TILE = 4
ADCS_PER_TILE = 2
TILES_PER_CHIP = 4
# Crossbar port budget per tile (the "16 Analog INs/Outputs" of Fig. 5).
TILE_INPUT_PORTS = 16
TILE_OUTPUT_PORTS = 16


class Tile:
    """One tile: the unit of allocation (one PDE variable per tile)."""

    def __init__(self, name: str, noise: NoiseModel):
        self.name = name
        self.noise = noise
        self.integrators = [Integrator(f"{name}.int{i}", noise) for i in range(INTEGRATORS_PER_TILE)]
        self.multipliers = [Multiplier(f"{name}.mul{i}", noise) for i in range(MULTIPLIERS_PER_TILE)]
        self.fanouts = [Fanout(f"{name}.fan{i}", noise) for i in range(FANOUTS_PER_TILE)]
        self.dacs = [Dac(f"{name}.dac{i}", noise) for i in range(DACS_PER_TILE)]
        self.adcs = [Adc(f"{name}.adc{i}", noise) for i in range(ADCS_PER_TILE)]
        self.owner: Optional[str] = None
        self.input_ports_used = 0
        self.output_ports_used = 0
        # Health state: a quarantined tile is skipped by allocation
        # (the health monitor pulled it from service); a stuck tile's
        # datapath is pinned at the rail by a degradation schedule.
        self.quarantined = False
        self.stuck = False

    def components(self) -> List[AnalogComponent]:
        return [*self.integrators, *self.multipliers, *self.fanouts, *self.dacs, *self.adcs]

    @property
    def is_free(self) -> bool:
        return self.owner is None and not self.quarantined

    def allocate(self, owner: str) -> None:
        if self.owner is not None:
            raise FabricCapacityError(f"{self.name} already owned by {self.owner}")
        self.owner = owner
        for component in self.components():
            component.allocate(owner)

    def release(self) -> None:
        self.owner = None
        self.input_ports_used = 0
        self.output_ports_used = 0
        for component in self.components():
            component.release()

    def claim_ports(self, inputs: int, outputs: int) -> None:
        """Reserve crossbar ports; the Figure 5 budget is a hard limit.

        Wider stencils need more neighbour signals per variable
        (Section 7's higher-order trade), and this is where that cost
        becomes a feasibility constraint.
        """
        if inputs < 0 or outputs < 0:
            raise ValueError("port counts must be nonnegative")
        if self.input_ports_used + inputs > TILE_INPUT_PORTS:
            raise FabricCapacityError(
                f"{self.name}: {self.input_ports_used} + {inputs} input ports "
                f"exceeds the {TILE_INPUT_PORTS}-port crossbar"
            )
        if self.output_ports_used + outputs > TILE_OUTPUT_PORTS:
            raise FabricCapacityError(
                f"{self.name}: {self.output_ports_used} + {outputs} output ports "
                f"exceeds the {TILE_OUTPUT_PORTS}-port crossbar"
            )
        self.input_ports_used += inputs
        self.output_ports_used += outputs

    def datapath_gain_error(self) -> float:
        """Aggregate relative gain error of this tile's datapath.

        The signal producing one equation's residual traverses a chain
        of roughly four multiplier stages (Table 3's nonlinear-function
        column); to first order the chain's gain error is the sum of
        the stage errors.
        """
        chain = self.multipliers[:4]
        return float(np.sum([c.gain_error for c in chain]))

    def datapath_offset(self) -> float:
        """Aggregate input-referred offset of the tile's datapath.

        Offsets of the current-mode stages add along the chain: the
        four function multipliers plus the fanout copies feeding the
        summing junction. A dead DAC channel removes one programmed
        constant from the summing junction entirely — to first order a
        full-scale offset on this equation, the dominant term when a
        channel fails.
        """
        chain = [*self.multipliers[:4], *self.fanouts[:4]]
        offset = float(np.sum([c.offset for c in chain]))
        dead = sum(1 for dac in self.dacs if getattr(dac, "dead", False))
        return offset + dead * self.noise.full_scale


class Chip:
    """One accelerator die with four tiles (Figure 5, center)."""

    def __init__(self, name: str, noise: NoiseModel):
        self.name = name
        self.tiles = [Tile(f"{name}.tile{i}", noise) for i in range(TILES_PER_CHIP)]

    def free_tiles(self) -> List[Tile]:
        return [tile for tile in self.tiles if tile.is_free]


class Connection:
    """A committed analog route between two named component ports.

    The simulator records connections for resource accounting (board-
    level links are the sparse neighbour-to-neighbour pattern of PDEs,
    Section 5.2) rather than simulating per-wire electrical behaviour.
    """

    def __init__(self, source: str, destination: str, board_level: bool = False):
        self.source = source
        self.destination = destination
        self.board_level = board_level
        self.committed = False

    def set_conn(self) -> None:
        self.committed = True


class Fabric:
    """A board of accelerator chips with the Figure-4 lifecycle.

    Lifecycle: ``calibrate()`` once after construction; allocate tiles
    for a problem; ``cfg_commit()``; ``exec_start()``; read ADCs;
    ``exec_stop()``; release. The prototype board has 2 chips
    (8 tiles -> a 2x2 Burgers grid); pass ``num_chips`` to model the
    scaled-up designs of Table 4.
    """

    def __init__(
        self,
        num_chips: int = 2,
        noise: Optional[NoiseModel] = None,
        seed: int = 0,
        degradation=None,
    ):
        if num_chips <= 0:
            raise ValueError("num_chips must be positive")
        self.noise = noise or NoiseModel()
        self.seed = int(seed)
        self.chips = [Chip(f"chip{i}", self.noise) for i in range(num_chips)]
        self.connections: List[Connection] = []
        self.calibrated = False
        self.committed = False
        self.executing = False
        # Optional DegradationSchedule (repro.analog.health): advanced
        # one step per exec_start, so the board ages with use. The
        # schedule outlives this fabric — the same instance can be
        # attached to successive boards of one accelerator.
        self.degradation = degradation

    # -- capacity ------------------------------------------------------

    @property
    def num_tiles(self) -> int:
        return len(self.chips) * TILES_PER_CHIP

    def free_tiles(self) -> List[Tile]:
        return [tile for chip in self.chips for tile in chip.free_tiles()]

    @classmethod
    def for_variables(cls, num_variables: int, noise: Optional[NoiseModel] = None, seed: int = 0) -> "Fabric":
        """Smallest board holding ``num_variables`` (one per tile)."""
        if num_variables <= 0:
            raise ValueError("num_variables must be positive")
        chips = (num_variables + TILES_PER_CHIP - 1) // TILES_PER_CHIP
        return cls(num_chips=chips, noise=noise, seed=seed)

    # -- lifecycle -------------------------------------------------------

    def calibrate(self, config: Optional[CalibrationConfig] = None) -> None:
        """Draw per-die process variation and calibrate every component.

        The residual errors left behind are what the execution engine
        applies as datapath distortion (Section 5.4's error sources).
        """
        config = config or CalibrationConfig()
        variation = ProcessVariation(self.noise, seed=self.seed)
        components = [c for chip in self.chips for tile in chip.tiles for c in tile.components()]
        raw_gains = variation.draw_gain_errors(len(components))
        residuals = variation.calibrate(raw_gains, config)
        if config.enabled:
            offsets = variation.residual_offsets(len(components))
        else:
            offsets = variation.draw_offsets(len(components))
        for component, gain_error, offset in zip(components, residuals, offsets):
            component.gain_error = float(gain_error)
            component.offset = float(offset)
            # The post-trim values are the baseline degradation drifts
            # away from (and recalibration returns to).
            component.calibrated_gain_error = float(gain_error)
            component.calibrated_offset = float(offset)
        self.calibrated = True
        if self.degradation is not None:
            # Re-impose any degradation already accumulated: stuck
            # tiles and dead DACs survive a (re)calibration pass.
            self.degradation.apply(self)

    def recalibrate(self, config: Optional[CalibrationConfig] = None) -> None:
        """Re-trim the board mid-life: re-null accumulated drift.

        The trim DACs re-measure and re-correct each component, so the
        drift random walk restarts from the calibrated baseline;
        hardware faults (stuck tiles, dead DAC channels) are beyond
        what trim codes can fix and persist.
        """
        if self.executing:
            raise RuntimeError("exec_stop() before recalibrating")
        if self.degradation is not None:
            self.degradation.reset()
        self.calibrate(config)

    def allocate_tiles(self, count: int, owner: str) -> List[Tile]:
        """Claim ``count`` free tiles for a problem.

        Quarantined tiles are never handed out; when quarantine has
        eaten the capacity a problem needs, the error says so — the
        caller-facing accounting distinguishes "board too small" from
        "board too degraded".
        """
        if self.executing:
            raise RuntimeError("cannot allocate while executing")
        free = self.free_tiles()
        if len(free) < count:
            quarantined = sum(
                tile.quarantined for chip in self.chips for tile in chip.tiles
            )
            detail = f" ({quarantined} quarantined)" if quarantined else ""
            raise FabricCapacityError(
                f"problem needs {count} tiles but only {len(free)} of "
                f"{self.num_tiles} are free{detail}"
            )
        chosen = free[:count]
        for tile in chosen:
            tile.allocate(owner)
        self.committed = False
        return chosen

    def connect(self, source: str, destination: str, board_level: bool = False) -> Connection:
        if self.executing:
            raise RuntimeError("cannot reconnect while executing")
        connection = Connection(source, destination, board_level)
        connection.set_conn()
        self.connections.append(connection)
        self.committed = False
        return connection

    def cfg_commit(self) -> None:
        """Freeze the configuration (DAC codes, crossbar routes)."""
        if not self.calibrated:
            raise RuntimeError("calibrate() before committing a configuration")
        self.committed = True

    def exec_start(self) -> None:
        """Release the integrators: continuous dynamics begin.

        Each start ages the board by one degradation step (when a
        schedule is attached): drift accumulates with *use*, exactly
        between the calibration and the run it distorts.
        """
        if not self.committed:
            raise RuntimeError("cfg_commit() before exec_start()")
        if self.degradation is not None:
            self.degradation.advance(self)
        self.executing = True

    def exec_stop(self) -> None:
        """Halt integrators, restoring them for the next parameter set."""
        self.executing = False
