"""Component-level simulator of the prototyped analog accelerator.

The paper's accelerator (Section 5, Figure 5) is a board of two 65 nm
chips, each with four tiles; a tile carries four integrators, eight
multipliers/gain blocks, eight current-mirror fanouts, DACs, ADCs, and
a crossbar giving all-to-all connectivity within the tile. Since we
have no silicon, this package simulates the accelerator at component
fidelity, following the paper's own methodology for scaled-up designs
("The simulated scaled-up analog accelerator models the variables in
the analog accelerator as it solves the nonlinear problem ... built on
the Odeint ODE solver library", Section 6.1):

* :mod:`repro.analog.components` — function units with gain error,
  offset, saturation, and calibration state;
* :mod:`repro.analog.noise` — ADC/DAC quantization and noise processes;
* :mod:`repro.analog.calibration` — process variation and the
  DAC-precision-limited calibration the paper describes;
* :mod:`repro.analog.fabric` — the Fabric/Chip/Tile hierarchy with the
  Figure-4-style programming interface;
* :mod:`repro.analog.compiler` — maps nonlinear systems onto tiles and
  accounts component usage (Table 3);
* :mod:`repro.analog.scaling` — dynamic-range scaling (Section 5.3);
* :mod:`repro.analog.health` — degradation fault models, seed-quality
  gating, and the online tile health monitor with quarantine and
  recalibration scheduling;
* :mod:`repro.analog.engine` — continuous-time execution: continuous
  Newton with hardware imperfections, settle detection, ADC readout;
* :mod:`repro.analog.area_power` — area/power models (Tables 3-4).
"""

from repro.analog.noise import NoiseModel, quantize_midrise
from repro.analog.calibration import CalibrationConfig, ProcessVariation
from repro.analog.components import (
    AnalogComponent,
    Integrator,
    Multiplier,
    Fanout,
    Dac,
    Adc,
    ComponentKind,
)
from repro.analog.fabric import Fabric, Chip, Tile, Connection, FabricCapacityError
from repro.analog.health import (
    NONFINITE_QUALITY,
    DegradationModel,
    DegradationSchedule,
    HealthMonitor,
    SeedQuality,
    assess_seed,
    TileHealth,
)
from repro.analog.compiler import CompiledProblem, ResourceCount, compile_burgers, compile_system
from repro.analog.scaling import ScaledSystem, required_scale
from repro.analog.engine import AnalogSolveResult, AnalogAccelerator, solution_error
from repro.analog.area_power import AreaPowerModel, scaled_accelerator_table
from repro.analog.function_generator import LookupTableFunction, make_exp_pair
from repro.analog.visualize import sparkline, render_scope

__all__ = [
    "NoiseModel",
    "quantize_midrise",
    "CalibrationConfig",
    "ProcessVariation",
    "AnalogComponent",
    "Integrator",
    "Multiplier",
    "Fanout",
    "Dac",
    "Adc",
    "ComponentKind",
    "Fabric",
    "Chip",
    "Tile",
    "Connection",
    "FabricCapacityError",
    "NONFINITE_QUALITY",
    "DegradationModel",
    "DegradationSchedule",
    "HealthMonitor",
    "SeedQuality",
    "assess_seed",
    "TileHealth",
    "CompiledProblem",
    "ResourceCount",
    "compile_burgers",
    "compile_system",
    "ScaledSystem",
    "required_scale",
    "AnalogSolveResult",
    "AnalogAccelerator",
    "solution_error",
    "AreaPowerModel",
    "scaled_accelerator_table",
    "LookupTableFunction",
    "make_exp_pair",
    "sparkline",
    "render_scope",
]
