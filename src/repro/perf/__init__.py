"""Time and energy models for the three compute substrates.

The paper's evaluation compares wall-clock time and energy across a
16-thread Xeon CPU baseline, a GTX 1070 GPU baseline (cuSolver sparse
QR inside each Newton step), and the analog accelerator. We have none
of that hardware, so — as in any architecture study — seconds and
joules come from *cost models driven by real operation counts*:

* iteration counts, inner-solve counts and sparse operation counts are
  measured from this library's actual solver runs;
* :class:`~repro.perf.cpu_model.CpuModel` and
  :class:`~repro.perf.gpu_model.GpuModel` convert them to modeled time
  and energy with constants calibrated against the paper's Figures 8-9;
* :class:`~repro.perf.analog_model.AnalogTimingModel` converts the
  continuous Newton settle time (in flow units) to seconds, normalized
  to the measured 2x2 prototype exactly as the paper normalizes its
  simulated scaled-up accelerators (Section 6.1);
* :class:`~repro.perf.profiles.KernelProfiler` instruments the Table 1
  workload mini-apps.
"""

from repro.perf.analog_model import AnalogTimingModel
from repro.perf.cpu_model import CpuModel
from repro.perf.gpu_model import GpuModel
from repro.perf.profiles import KernelProfiler, ProfileReport

__all__ = [
    "AnalogTimingModel",
    "CpuModel",
    "GpuModel",
    "KernelProfiler",
    "ProfileReport",
]
