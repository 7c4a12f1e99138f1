"""Kernel-level runtime instrumentation for the Table 1 workloads.

Table 1 of the paper profiles four engineering PDE solvers and reports
the fraction of runtime spent in their dominant equation-solving
kernel. :class:`KernelProfiler` provides the same measurement for the
mini-apps in :mod:`repro.workloads`: wrap regions in
``with profiler.region("kernel-name")`` and ask for the report.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["KernelProfiler", "ProfileReport"]


@dataclass
class ProfileReport:
    """Fractions of total runtime per instrumented region."""

    total_seconds: float
    region_seconds: Dict[str, float]

    def fraction(self, region: str) -> float:
        """Fraction of total runtime spent in ``region`` (0 when the
        region was never entered)."""
        if self.total_seconds <= 0.0:
            return 0.0
        return self.region_seconds.get(region, 0.0) / self.total_seconds


class KernelProfiler:
    """Wall-clock profiler with named, re-entrant regions.

    Regions may nest; nested time is attributed to the innermost region
    only, so fractions are disjoint and sum to at most 1.
    """

    def __init__(self):
        self._region_seconds: Dict[str, float] = {}
        self._stack: List[Tuple[str, float]] = []
        self._total_start: Optional[float] = None
        self._total_seconds = 0.0

    @contextmanager
    def run(self) -> Iterator["KernelProfiler"]:
        """Time the whole workload execution."""
        self._total_start = time.perf_counter()
        try:
            yield self
        finally:
            self._total_seconds += time.perf_counter() - self._total_start
            self._total_start = None

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """Attribute the enclosed wall time to ``name``."""
        now = time.perf_counter()
        if self._stack:
            # Pause the enclosing region.
            parent_name, parent_start = self._stack[-1]
            self._region_seconds[parent_name] = (
                self._region_seconds.get(parent_name, 0.0) + now - parent_start
            )
        self._stack.append((name, now))
        try:
            yield
        finally:
            end = time.perf_counter()
            entered_name, start = self._stack.pop()
            self._region_seconds[entered_name] = (
                self._region_seconds.get(entered_name, 0.0) + end - start
            )
            if self._stack:
                # Resume the enclosing region's clock.
                parent_name, _ = self._stack[-1]
                self._stack[-1] = (parent_name, end)

    def report(self) -> ProfileReport:
        if self._total_start is not None:
            raise RuntimeError("cannot report while the run() context is still open")
        return ProfileReport(
            total_seconds=self._total_seconds,
            region_seconds=dict(self._region_seconds),
        )
