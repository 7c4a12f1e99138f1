"""Unit tier for the solve certificate: a pure observer that passes
honest answers, fails corrupted ones, and binds its verdict to the
exact solution bytes it judged."""

import numpy as np
import pytest

from repro.certify import (
    CertifyPolicy,
    SolveCertificate,
    certify_solution,
    solution_digest,
)
from repro.certify.certificate import NONFINITE_VALUE
from repro.nonlinear.newton import NewtonOptions, newton_solve
from repro.runtime import ProblemSpec

QUAD = ProblemSpec.quadratic(1.0, 1.0)


def quad_root():
    system, guess = QUAD.build()
    roots = np.asarray(system.real_roots(), dtype=float)
    # The root nearest the canonical initial guess — the one every
    # solver path in the suite converges to.
    return roots[int(np.argmin(np.linalg.norm(roots - guess, axis=1)))]


def burgers_solution(spec):
    system, guess = spec.build()
    result = newton_solve(system, guess, NewtonOptions(tolerance=1e-12))
    assert result.converged
    return result.u


class TestCertifyQuadratic:
    def test_true_root_passes_every_check(self):
        cert = certify_solution(QUAD, quad_root())
        assert cert.passed
        assert cert.verdict == "pass"
        assert cert.failed_checks() == ()
        assert {check.name for check in cert.checks} == {
            "finite",
            "bounds",
            "residual",
            "boundary",
            "conservation",
        }
        assert cert.relative_residual <= 1e-6

    def test_small_corruption_fails_residual(self):
        # The smallest injection the chaos seam uses (1e-3 relative)
        # must overshoot the certificate tolerance decisively.
        corrupted = quad_root() * (1.0 + 1e-3)
        cert = certify_solution(QUAD, corrupted)
        assert not cert.passed
        assert "residual" in {check.name for check in cert.failed_checks()}

    def test_nonfinite_solution_fails_finite_check(self):
        bad = quad_root()
        bad[0] = np.nan
        cert = certify_solution(QUAD, bad)
        assert not cert.passed
        failed = {check.name for check in cert.failed_checks()}
        assert "finite" in failed
        # Non-finite inputs never leak NaN/Inf into the (JSON-bound)
        # certificate record.
        for check in cert.checks:
            assert np.isfinite(check.value), check.name
        assert cert.relative_residual <= NONFINITE_VALUE

    def test_wild_excursion_fails_bounds(self):
        cert = certify_solution(QUAD, np.array([1e9, 1e9]))
        assert not cert.passed
        assert "bounds" in {check.name for check in cert.failed_checks()}

    def test_certificate_is_deterministic(self):
        a = certify_solution(QUAD, quad_root())
        b = certify_solution(QUAD, quad_root())
        assert a == b
        assert a.digest == b.digest


class TestCertifyBurgers:
    def test_converged_burgers_passes_including_conservation(self):
        spec = ProblemSpec.burgers(2, 2.0, seed=0)
        cert = certify_solution(spec, burgers_solution(spec))
        assert cert.passed, [c.name for c in cert.failed_checks()]
        by_name = {check.name: check for check in cert.checks}
        assert "mass defect" in by_name["conservation"].detail
        assert "boundary" in by_name["boundary"].detail

    def test_correlated_bias_fails(self):
        # A uniform additive bias is exactly the corruption an RMS norm
        # can dilute but the conservation sum cannot.
        spec = ProblemSpec.burgers(2, 2.0, seed=0)
        cert = certify_solution(spec, burgers_solution(spec) + 1e-3)
        assert not cert.passed


class TestDigestBinding:
    def test_solution_digest_tracks_bytes(self):
        root = quad_root()
        assert solution_digest(root) == solution_digest(root.copy())
        tweaked = root.copy()
        tweaked[0] = np.nextafter(tweaked[0], np.inf)
        assert solution_digest(tweaked) != solution_digest(root)

    def test_certificate_digest_changes_with_solution(self):
        a = certify_solution(QUAD, quad_root())
        b = certify_solution(QUAD, quad_root() * (1.0 + 1e-3))
        assert a.digest != b.digest
        assert a.solution_digest != b.solution_digest

    def test_record_round_trip_preserves_digest(self):
        cert = certify_solution(QUAD, quad_root())
        back = SolveCertificate.from_record(cert.to_record())
        assert back == cert
        assert back.digest == cert.digest


    def test_digests_are_pinned(self):
        """Certificate digests hash every check value and detail string,
        so these pins catch any change to what certification computes.
        The solution digests are pinned too: if they move, the solver
        changed, not the certificate."""
        spec = ProblemSpec.burgers(2, 2.0, seed=0)
        solution = burgers_solution(spec)
        assert solution_digest(solution) == (
            "9aaa85783caf4e0245d60cf96137d888c616151862e3d8b5e203ee70e1a5c177"
        )
        assert certify_solution(spec, solution).digest == (
            "54d780811e6554c8b910625956039d57861438098d8a67c01bf9129d25baa066"
        )
        assert certify_solution(spec, solution + 1e-3).digest == (
            "037ed8f17e099d70a5984a9c048e8d9f407c45443145ef38a5db6ec236a685fa"
        )
        root = quad_root()
        assert solution_digest(root) == (
            "8a6b00ea1a3e98173848ba1097a0f1976b55a7ad326dca4c5b07b9af09861941"
        )
        assert certify_solution(QUAD, root).digest == (
            "97481e074f2d03116c98b01029cae2bcfdce49609f3f8be84b8c21cd2ee3b7d7"
        )

class TestCertifyPolicy:
    def test_coerce_contract(self):
        assert CertifyPolicy.coerce(None) is None
        assert CertifyPolicy.coerce(False) is None
        assert CertifyPolicy.coerce(True) == CertifyPolicy()
        policy = CertifyPolicy(max_relative_residual=1e-4)
        assert CertifyPolicy.coerce(policy) is policy
        assert CertifyPolicy.coerce(CertifyPolicy(enabled=False)) is None
        with pytest.raises(TypeError):
            CertifyPolicy.coerce("yes")

    def test_record_round_trip(self):
        policy = CertifyPolicy(max_relative_residual=1e-4, bounds_slack=5.0)
        assert CertifyPolicy.from_record(policy.to_record()) == policy

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_relative_residual": 0.0},
            {"bounds_slack": -1.0},
            {"canary_threshold": 0.0},
            {"reference_floor": 0.0},
        ],
    )
    def test_rejects_nonpositive_tolerances(self, kwargs):
        with pytest.raises(ValueError):
            CertifyPolicy(**kwargs)

    def test_loose_policy_accepts_what_default_rejects(self):
        corrupted = quad_root() * (1.0 + 1e-3)
        assert not certify_solution(QUAD, corrupted).passed
        loose = CertifyPolicy(max_relative_residual=10.0)
        assert certify_solution(QUAD, corrupted, policy=loose).passed
