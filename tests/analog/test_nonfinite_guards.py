"""Direct unit tier for the two non-finite guards the certification
layer leans on: the Equation 6 error metric's clamp and the seed
quality gate's NaN/Inf handling. Both must stay finite no matter what
a saturated or dead-tile seed feeds them — a NaN that leaks past
either one poisons Newton, the health EWMAs, and every JSON record
downstream."""

import numpy as np
import pytest

from repro.analog.engine import solution_error
from repro.analog.health import NONFINITE_QUALITY, assess_seed


class TestSolutionErrorNonfiniteClamp:
    def test_nan_entries_clamp_to_the_bound(self):
        # Every diff entry replaced by the 1e6*scale bound: the scaled
        # RMS collapses to exactly 1e6.
        error = solution_error(np.array([np.nan, np.nan]), np.zeros(2), scale=2.0)
        assert np.isfinite(error)
        assert error == pytest.approx(1e6)

    def test_posinf_and_neginf_clamp_symmetrically(self):
        pos = solution_error(np.array([np.inf]), np.zeros(1), scale=3.0)
        neg = solution_error(np.array([-np.inf]), np.zeros(1), scale=3.0)
        assert np.isfinite(pos) and np.isfinite(neg)
        assert pos == neg == pytest.approx(1e6)

    def test_clamp_scales_with_the_dynamic_range(self):
        # The bound is 1e6 * scale, so the *scaled* error is 1e6 for
        # any scale — a non-finite seed reads as equally catastrophic
        # at every dynamic range.
        for scale in (0.5, 1.0, 3.0, 10.0):
            error = solution_error(np.array([np.nan]), np.zeros(1), scale=scale)
            assert error == pytest.approx(1e6), scale

    def test_mixed_finite_and_nonfinite_stays_finite_and_huge(self):
        analog = np.array([1.0, np.nan, -np.inf, 2.0])
        digital = np.array([1.0, 0.0, 0.0, 2.0])
        error = solution_error(analog, digital, scale=1.0)
        assert np.isfinite(error)
        # Two of four entries at the 1e6 bound: RMS = 1e6 / sqrt(2).
        assert error == pytest.approx(1e6 / np.sqrt(2))

    def test_clamped_error_dominates_any_finite_error(self):
        bad = solution_error(np.array([np.nan]), np.zeros(1), scale=1.0)
        worst_physical = solution_error(np.array([100.0]), np.zeros(1), scale=1.0)
        assert bad > worst_physical

    def test_finite_path_is_untouched(self):
        error = solution_error(np.array([1.0, 2.0]), np.array([0.0, 0.0]), scale=2.0)
        assert error == pytest.approx(np.sqrt(2.5) / 2.0)

    def test_shape_mismatch_still_raises(self):
        with pytest.raises(ValueError):
            solution_error(np.zeros(2), np.zeros(3))


class TestSeedQualityGateNonfinite:
    def test_nan_solution_is_rejected_with_clamped_quality(self):
        quality = assess_seed(
            np.array([np.nan, 1.0]), residual_norm=0.1, reference_norm=1.0
        )
        assert quality.quality == NONFINITE_QUALITY
        assert not quality.finite
        assert not quality.accepted

    def test_inf_residual_norm_is_rejected(self):
        quality = assess_seed(
            np.ones(2), residual_norm=np.inf, reference_norm=1.0
        )
        assert quality.quality == NONFINITE_QUALITY
        assert not quality.finite
        assert not quality.accepted

    def test_nan_reference_norm_is_rejected(self):
        quality = assess_seed(
            np.ones(2), residual_norm=0.1, reference_norm=np.nan
        )
        assert quality.quality == NONFINITE_QUALITY
        assert not quality.finite
        assert not quality.accepted

    def test_quality_never_exceeds_the_sentinel(self):
        # Even a finite but astronomically bad residual clamps at the
        # sentinel, so downstream EWMAs stay in a bounded range.
        quality = assess_seed(
            np.ones(2), residual_norm=1e300, reference_norm=1e-12
        )
        assert quality.quality == NONFINITE_QUALITY
        assert quality.finite  # inputs were finite; only the ratio clamped
        assert not quality.accepted

    def test_healthy_seed_passes_finite(self):
        quality = assess_seed(
            np.ones(2), residual_norm=0.1, reference_norm=1.0
        )
        assert quality.finite
        assert quality.accepted
        assert quality.quality == pytest.approx(0.1)
