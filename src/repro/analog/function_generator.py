"""Analog nonlinear function generators (lookup-table approach).

The accelerator's multipliers and summers realize polynomial
nonlinearities natively; transcendental functions (``e^u``, ``sin u``)
"would require analog nonlinear function generators" (Section 7). The
related work [18, 19] summarized in Table 5 realized them as a
*continuous-time digital lookup*: the analog input is digitized, a
lookup table (SRAM) supplies the function value, and a DAC returns it
to the analog domain — continuously, without clocking the computation.

:class:`LookupTableFunction` models that path: input quantization to
the table's address resolution, tabulated values with optional output
DAC quantization, and saturation at the table's input range. The
``derivative_table`` companion makes the pair usable wherever the
library expects ``(f, df)`` — e.g. the Bratu problem's pluggable
exponential (:mod:`repro.pde.bratu`).

The model exposes exactly the failure mode the paper warns about:
inputs outside the table's range saturate, and there is no scaling
identity like Section 5.3's quadratic rule to prevent that.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

__all__ = ["LookupTableFunction", "make_exp_pair"]


class LookupTableFunction:
    """A tabulated scalar function applied elementwise.

    Parameters
    ----------
    function:
        The mathematical function being tabulated.
    input_range:
        Addressable input interval ``(lo, hi)``; inputs outside clamp
        to the ends (the generator's saturation).
    table_bits:
        Address resolution: the table holds ``2^table_bits`` entries.
    output_bits:
        Optional DAC quantization of the table's output values; ``None``
        stores exact values (a wide SRAM word).
    interpolate:
        Linear interpolation between adjacent entries (the smoother
        continuous-time behaviour of [18, 19]) versus raw staircase
        lookup.
    """

    def __init__(
        self,
        function: Callable[[np.ndarray], np.ndarray],
        input_range: Tuple[float, float],
        table_bits: int = 10,
        output_bits: int = None,
        interpolate: bool = True,
    ):
        lo, hi = input_range
        if not lo < hi:
            raise ValueError(f"input_range must be increasing, got {input_range}")
        if table_bits <= 0:
            raise ValueError("table_bits must be positive")
        self.lo = float(lo)
        self.hi = float(hi)
        self.table_bits = int(table_bits)
        self.interpolate = bool(interpolate)
        size = 2**table_bits
        self._inputs = np.linspace(lo, hi, size)
        values = np.asarray(function(self._inputs), dtype=float)
        if output_bits is not None:
            if output_bits <= 0:
                raise ValueError("output_bits must be positive")
            span = float(np.max(np.abs(values))) or 1.0
            step = 2.0 * span / 2**output_bits
            values = np.round(values / step) * step
        self._values = values

    @property
    def table_size(self) -> int:
        return self._inputs.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        clamped = np.clip(x, self.lo, self.hi)
        if self.interpolate:
            return np.interp(clamped, self._inputs, self._values)
        # Staircase: nearest-entry lookup.
        step = (self.hi - self.lo) / (self.table_size - 1)
        idx = np.clip(np.round((clamped - self.lo) / step).astype(int), 0, self.table_size - 1)
        return self._values[idx]

    def max_error(self, reference: Callable[[np.ndarray], np.ndarray], probes: int = 4096) -> float:
        """Worst-case deviation from ``reference`` over the input range."""
        xs = np.linspace(self.lo, self.hi, probes)
        return float(np.max(np.abs(self(xs) - np.asarray(reference(xs), dtype=float))))


def make_exp_pair(
    input_range: Tuple[float, float] = (-1.0, 6.0),
    table_bits: int = 10,
    output_bits: int = None,
    interpolate: bool = True,
) -> Tuple[LookupTableFunction, LookupTableFunction]:
    """``(exp, exp)`` lookup pair for the Bratu problem.

    The derivative of ``e^u`` is itself, so one table shape serves both;
    two instances are returned because the physical design would burn
    two generator slots (function and Jacobian datapaths, Figure 1).
    """
    return (
        LookupTableFunction(np.exp, input_range, table_bits, output_bits, interpolate),
        LookupTableFunction(np.exp, input_range, table_bits, output_bits, interpolate),
    )
