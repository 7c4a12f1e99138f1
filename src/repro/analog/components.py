"""Analog function units (the microarchitecture of Figure 5, right).

Each tile of the prototype chip contains four analog integrators, eight
multipliers/gain blocks, eight current copiers (fanouts), continuous-
time DACs and ADCs, and a crossbar. Numbers are represented as analog
currents and voltages; joining wires sums numbers by summing currents
(Figure 1's caption).

The classes here model each unit's *transfer function with its
imperfections* — gain error, offset, saturation — plus an allocation
flag so the :mod:`repro.analog.fabric` hierarchy can hand units out to
compiled problems and report exhaustion honestly.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.analog.noise import NoiseModel

__all__ = [
    "ComponentKind",
    "AnalogComponent",
    "Integrator",
    "Multiplier",
    "Fanout",
    "Dac",
    "Adc",
]


class ComponentKind(enum.Enum):
    """The unit types counted in Table 3 of the paper."""

    INTEGRATOR = "integrator"
    FANOUT = "fanout"
    MULTIPLIER = "multiplier"
    DAC = "DAC"
    ADC = "ADC"
    TILE_INPUT = "tile input"
    TILE_OUTPUT = "tile output"


class AnalogComponent:
    """Base class: identity, imperfections, and allocation state."""

    kind: ComponentKind

    def __init__(self, name: str, noise: NoiseModel, gain_error: float = 0.0, offset: float = 0.0):
        self.name = name
        self.noise = noise
        self.gain_error = float(gain_error)
        self.offset = float(offset)
        # Post-calibration baselines: what calibrate() left behind.
        # Degradation schedules apply drift as baseline + walk, so
        # repeated application never compounds (idempotence).
        self.calibrated_gain_error = float(gain_error)
        self.calibrated_offset = float(offset)
        self.allocated_to: Optional[str] = None

    @property
    def gain(self) -> float:
        """Effective gain, nominal 1 plus the (residual) error."""
        return 1.0 + self.gain_error

    def allocate(self, owner: str) -> None:
        if self.allocated_to is not None:
            raise RuntimeError(f"{self.name} already allocated to {self.allocated_to}")
        self.allocated_to = owner

    def release(self) -> None:
        self.allocated_to = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class Integrator(AnalogComponent):
    """A capacitor-based integrator: ``dout/dt = gain * in + leak``.

    Integrators hold the present guess ``u(t)`` in the continuous
    Newton circuit (Figure 1). ``set_initial`` stores the DAC-quantized
    initial condition; the execution engine owns the actual time
    evolution and uses :attr:`gain` as the per-state time-constant
    error.
    """

    kind = ComponentKind.INTEGRATOR

    def __init__(self, name: str, noise: NoiseModel, gain_error: float = 0.0, offset: float = 0.0):
        super().__init__(name, noise, gain_error, offset)
        self.initial_condition = 0.0

    def set_initial(self, value: float) -> None:
        """Program the initial condition through a DAC (quantized)."""
        self.initial_condition = float(self.noise.dac_write(np.array([value]))[0])


class Multiplier(AnalogComponent):
    """Four-quadrant multiplier / programmable gain block.

    ``out = gain * (a * b) + offset`` with saturation to the rails.
    With ``set_gain`` it acts as a coefficient multiplier (the paper's
    "coefficients realized by multipliers", Figure 4).
    """

    kind = ComponentKind.MULTIPLIER

    def __init__(self, name: str, noise: NoiseModel, gain_error: float = 0.0, offset: float = 0.0):
        super().__init__(name, noise, gain_error, offset)
        self.coefficient = 1.0

    def set_gain(self, coefficient: float) -> None:
        self.coefficient = float(coefficient)

    def evaluate(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        product = self.gain * self.coefficient * np.asarray(a) * np.asarray(b) + self.offset
        return self.noise.saturate(product)


class Fanout(AnalogComponent):
    """Current copier distributing one signal to several consumers.

    Each copy picks up its own small gain error — copying currents is
    where much of the mismatch enters the datapath.
    """

    kind = ComponentKind.FANOUT

    def evaluate(self, value: np.ndarray, copies: int = 2) -> np.ndarray:
        if copies <= 0:
            raise ValueError("copies must be positive")
        value = np.asarray(value, dtype=float)
        out = np.repeat(value[None, ...], copies, axis=0) * self.gain + self.offset
        return self.noise.saturate(out)


class Dac(AnalogComponent):
    """Digital-to-analog converter generating constant values.

    ``dead`` models a failed channel (an aged current source or a
    broken trim cell): the programmed code no longer reaches the
    datapath and the output reads zero. Degradation schedules set it;
    :meth:`repro.analog.fabric.Tile.datapath_offset` accounts the
    missing constant as a full-scale equation offset to first order.
    """

    kind = ComponentKind.DAC

    def __init__(self, name: str, noise: NoiseModel, gain_error: float = 0.0, offset: float = 0.0):
        super().__init__(name, noise, gain_error, offset)
        self.code_value = 0.0
        self.dead = False

    def output(self) -> float:
        if self.dead:
            return 0.0
        quantized = float(self.noise.dac_write(np.array([self.code_value]))[0])
        return float(self.noise.saturate(np.array([self.gain * quantized + self.offset]))[0])


class Adc(AnalogComponent):
    """Analog-to-digital converter measuring settled values.

    ``analog_avg`` models the paper's repeated-measurement readout
    (``chipOutput->analogAvg(REPS)`` in Figure 4): averaging reduces
    thermal noise but not quantization bias.
    """

    kind = ComponentKind.ADC

    def measure(self, value: float, rng: np.random.Generator) -> float:
        noisy = self.gain * value + self.offset + self.noise.thermal_noise_sigma * rng.standard_normal()
        return float(self.noise.adc_read(np.array([noisy]))[0])

    def analog_avg(self, value: float, repeats: int, rng: np.random.Generator) -> float:
        if repeats <= 0:
            raise ValueError("repeats must be positive")
        samples = [self.measure(value, rng) for _ in range(repeats)]
        return float(np.mean(samples))
