"""repro.bench: the deterministic work gate.

Machine-readable benchmark reports plus the regression gate CI runs on
the work every layer does (iterations, solves, settles, caught
corruptions). Speed claims are measured by ``perfbench/`` instead:
seeded medians with their spread, not one wall-clock sample.

* :mod:`repro.bench.schema` — schema-versioned ``BENCH_<n>.json``
  reports (wall-clock, :mod:`repro.trace` span sums, counter totals,
  deterministic work metrics, peak RSS) and the numbered-trajectory
  file conventions;
* :mod:`repro.bench.suite` — the fixed seven-benchmark suite
  ``repro bench`` runs: a figure7-scale Burgers trajectory, the figure8
  seeding comparison, a ``serve-batch`` soak through
  :mod:`repro.runtime`, a ``LinearKernel`` microbench, and the service,
  fleet and certification soaks;
* :mod:`repro.bench.compare` — the work comparator behind
  ``repro bench --compare`` and ``scripts/check_bench_regression.py``.
"""

from repro.bench.compare import (
    DEFAULT_WORK_TOLERANCE,
    HOT_PATHS,
    ComparisonResult,
    HotPath,
    MetricComparison,
    ScaleMismatch,
    compare_reports,
)
from repro.bench.schema import (
    BENCH_SCHEMA_VERSION,
    BenchReport,
    BenchmarkResult,
    bench_index,
    latest_bench_path,
    list_bench_files,
    next_bench_path,
    validate_report,
)
from repro.bench.suite import (
    BENCHMARK_NAMES,
    DEFAULT_SCALE,
    SCALES,
    run_bench_suite,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BENCHMARK_NAMES",
    "DEFAULT_SCALE",
    "DEFAULT_WORK_TOLERANCE",
    "HOT_PATHS",
    "SCALES",
    "BenchReport",
    "BenchmarkResult",
    "ComparisonResult",
    "HotPath",
    "MetricComparison",
    "ScaleMismatch",
    "bench_index",
    "compare_reports",
    "latest_bench_path",
    "list_bench_files",
    "next_bench_path",
    "run_bench_suite",
    "validate_report",
]
