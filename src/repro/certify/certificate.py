"""Machine-checkable certificates for terminal solve outcomes.

A :class:`SolveCertificate` is the a-posteriori contract a converged
answer must satisfy before the runtime commits it: every check is a
pure function of ``(problem spec, solution)`` — the spec rebuild is
deterministic and the evaluation consumes **no random streams** — so
certification is a read-only observer and a certified single-board run
stays bitwise identical to an uncertified one.

Checks, in order:

``finite``
    Every solution entry is a finite float.
``bounds``
    ``max |u|`` within ``value_bound * bounds_slack`` — the paper's
    dynamic-range scaling means a legitimate answer lives near the
    programmed range; a wild excursion is corruption, not physics.
``residual``
    Independently recomputed relative residual
    ``|F(u)| / max(|F(guess)|, floor)`` through
    :mod:`repro.certify.residuals` (not the solver's bookkeeping)
    within ``max_relative_residual``, or absolutely converged below
    ``absolute_floor``.
``boundary``
    The residual restricted to boundary-adjacent nodes — where the
    Dirichlet data enters the stencil — passes the same relative bound
    (trivially satisfied for boundary-free problems).
``conservation``
    The per-field residual *sums* (the discrete mass defect of the
    forced Burgers system: at a root each field's equations sum to
    zero) within ``max_relative_residual * sqrt(N)`` of the reference —
    a correlated bias can hide in an RMS norm but not in the sum.

The certificate's ``digest`` is the canonical content hash of the
verdict plus a hash of the solution's raw bytes, so the batch journal
can prove on ``--resume`` (and ``repro verify-journal`` offline) that
the certificate it stored belongs to the solution it stored.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.certify.residuals import independent_residual

__all__ = [
    "CertificateCheck",
    "CertifyPolicy",
    "SolveCertificate",
    "certify_solution",
]

# Finite sentinel for check values that overflow (NaN/Inf residuals);
# mirrors repro.analog.health.NONFINITE_QUALITY so the journal never
# carries non-finite JSON numbers.
NONFINITE_VALUE = 1e30


def _finite(value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        return NONFINITE_VALUE
    return value


@dataclass(frozen=True)
class CertifyPolicy:
    """Tolerances of the certification layer.

    ``max_relative_residual`` is deliberately far below the seed gate's
    acceptance bound (1.0) and far above a converged Newton polish
    (~1e-12 relative): a healthy committed answer clears it by three
    orders of magnitude, while the smallest corruption worth injecting
    (1e-3 elementwise) overshoots it by a similar margin.
    """

    enabled: bool = True
    max_relative_residual: float = 1e-6
    absolute_floor: float = 1e-9
    bounds_slack: float = 10.0
    canary_threshold: float = 0.25
    reference_floor: float = 1e-12

    def __post_init__(self) -> None:
        if self.max_relative_residual <= 0.0:
            raise ValueError("max_relative_residual must be positive")
        if self.bounds_slack <= 0.0:
            raise ValueError("bounds_slack must be positive")
        if self.canary_threshold <= 0.0:
            raise ValueError("canary_threshold must be positive")
        if self.reference_floor <= 0.0:
            raise ValueError("reference_floor must be positive")

    @classmethod
    def coerce(cls, value: Union[None, bool, "CertifyPolicy"]) -> Optional["CertifyPolicy"]:
        """Normalize the ``certify=`` argument every layer accepts:
        ``None``/``False`` -> off, ``True`` -> default policy, a policy
        passes through (disabled policies count as off)."""
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value if value.enabled else None
        raise TypeError(f"certify must be None, bool, or CertifyPolicy, got {type(value).__name__}")

    def to_record(self) -> Dict[str, Any]:
        return {
            "enabled": self.enabled,
            "max_relative_residual": self.max_relative_residual,
            "absolute_floor": self.absolute_floor,
            "bounds_slack": self.bounds_slack,
            "canary_threshold": self.canary_threshold,
            "reference_floor": self.reference_floor,
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "CertifyPolicy":
        return cls(
            enabled=bool(record.get("enabled", True)),
            max_relative_residual=float(record.get("max_relative_residual", 1e-6)),
            absolute_floor=float(record.get("absolute_floor", 1e-9)),
            bounds_slack=float(record.get("bounds_slack", 10.0)),
            canary_threshold=float(record.get("canary_threshold", 0.25)),
            reference_floor=float(record.get("reference_floor", 1e-12)),
        )


@dataclass(frozen=True)
class CertificateCheck:
    """One named check: the measured value against its threshold."""

    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""

    def to_record(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "passed": self.passed,
            "value": self.value,
            "threshold": self.threshold,
            "detail": self.detail,
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "CertificateCheck":
        return cls(
            name=str(record["name"]),
            passed=bool(record["passed"]),
            value=float(record["value"]),
            threshold=float(record["threshold"]),
            detail=str(record.get("detail", "")),
        )


@dataclass(frozen=True)
class SolveCertificate:
    """The full verdict on one committed solution."""

    verdict: str
    """``"pass"`` or ``"fail"``."""
    relative_residual: float
    tolerance: float
    checks: Tuple[CertificateCheck, ...]
    solution_digest: str
    """SHA-256 of the solution's raw little-endian bytes — binds the
    certificate to the exact array it judged."""
    digest: str = ""
    """Canonical content hash of everything above; journal replay and
    ``verify-journal`` recompute and compare it."""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def failed_checks(self) -> Tuple[CertificateCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)

    def to_record(self) -> Dict[str, Any]:
        return {
            "verdict": self.verdict,
            "relative_residual": self.relative_residual,
            "tolerance": self.tolerance,
            "checks": [check.to_record() for check in self.checks],
            "solution_digest": self.solution_digest,
            "digest": self.digest,
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "SolveCertificate":
        return cls(
            verdict=str(record["verdict"]),
            relative_residual=float(record["relative_residual"]),
            tolerance=float(record["tolerance"]),
            checks=tuple(CertificateCheck.from_record(c) for c in record.get("checks", [])),
            solution_digest=str(record["solution_digest"]),
            digest=str(record.get("digest", "")),
        )


def solution_digest(solution: np.ndarray) -> str:
    """SHA-256 of the array's C-order little-endian raw bytes."""
    array = np.ascontiguousarray(np.asarray(solution, dtype=float))
    little = array.astype(array.dtype.newbyteorder("<"), copy=False)
    return hashlib.sha256(little.tobytes()).hexdigest()


def _seal(
    verdict: str,
    relative_residual: float,
    tolerance: float,
    checks: Tuple[CertificateCheck, ...],
    digest_of_solution: str,
) -> SolveCertificate:
    from repro.checkpoint.atomic import payload_digest

    body = {
        "verdict": verdict,
        "relative_residual": relative_residual,
        "tolerance": tolerance,
        "checks": [check.to_record() for check in checks],
        "solution_digest": digest_of_solution,
    }
    return SolveCertificate(
        verdict=verdict,
        relative_residual=relative_residual,
        tolerance=tolerance,
        checks=checks,
        solution_digest=digest_of_solution,
        digest=payload_digest(body),
    )


def certify_solution(
    problem,
    solution: np.ndarray,
    value_bound: float = 3.0,
    policy: Optional[CertifyPolicy] = None,
) -> SolveCertificate:
    """Certify one solution of ``problem`` (a ``ProblemSpec``).

    Pure: rebuilds the problem once, deterministically, evaluates the
    independent residual at the solution once, and consumes no global
    random streams. What each check means for the problem is read from
    its family entry (:data:`repro.families.FAMILIES`).
    """
    policy = policy or CertifyPolicy()
    solution = np.asarray(solution, dtype=float)
    checks = []

    finite = bool(np.all(np.isfinite(solution)))
    checks.append(
        CertificateCheck(
            name="finite",
            passed=finite,
            value=0.0 if finite else float(np.count_nonzero(~np.isfinite(solution))),
            threshold=0.0,
            detail="count of non-finite entries",
        )
    )

    bounds_limit = float(value_bound) * policy.bounds_slack
    peak = float(np.max(np.abs(solution))) if finite and solution.size else NONFINITE_VALUE
    checks.append(
        CertificateCheck(
            name="bounds",
            passed=finite and peak <= bounds_limit,
            value=_finite(peak),
            threshold=bounds_limit,
            detail="max |u| vs value_bound * slack",
        )
    )

    entry = problem.family
    system, guess = problem.build()
    reference = float(np.linalg.norm(independent_residual(problem, system, guess)))
    residual = independent_residual(problem, system, solution) if finite else None
    achieved = float(np.linalg.norm(residual)) if finite else float("inf")
    reference = max(reference, policy.reference_floor)
    relative = achieved / reference
    residual_ok = achieved <= policy.absolute_floor or relative <= policy.max_relative_residual
    checks.append(
        CertificateCheck(
            name="residual",
            passed=bool(residual_ok),
            value=_finite(relative),
            threshold=policy.max_relative_residual,
            detail="independent |F(u)| / |F(guess)|",
        )
    )

    if entry.boundary_ring is None:
        ring = 0.0
    elif finite:
        ring = float(np.linalg.norm(residual[entry.boundary_ring(system)]))
    else:
        ring = float("inf")
    ring_relative = ring / reference
    boundary_ok = ring <= policy.absolute_floor or ring_relative <= policy.max_relative_residual
    checks.append(
        CertificateCheck(
            name="boundary",
            passed=bool(boundary_ok),
            value=_finite(ring_relative),
            threshold=policy.max_relative_residual,
            detail=(
                "boundary-adjacent residual rows"
                if entry.boundary_ring is not None
                else "no spatial boundary (trivially satisfied)"
            ),
        )
    )

    if entry.conservation_defect is not None and finite:
        defect = entry.conservation_defect(system, residual)
        conservation_threshold = policy.max_relative_residual * math.sqrt(system.dimension)
        conservation_rel = defect / reference
        conservation_ok = (
            defect <= policy.absolute_floor or conservation_rel <= conservation_threshold
        )
        conservation_detail = "discrete mass defect |sum F_u| + |sum F_v|"
    else:
        conservation_rel = 0.0 if finite else NONFINITE_VALUE
        conservation_threshold = policy.max_relative_residual
        conservation_ok = finite
        conservation_detail = "no conserved quantity (trivially satisfied)"
    checks.append(
        CertificateCheck(
            name="conservation",
            passed=bool(conservation_ok),
            value=_finite(conservation_rel),
            threshold=conservation_threshold,
            detail=conservation_detail,
        )
    )

    checks_tuple = tuple(checks)
    verdict = "pass" if all(check.passed for check in checks_tuple) else "fail"
    return _seal(
        verdict=verdict,
        relative_residual=_finite(relative),
        tolerance=policy.max_relative_residual,
        checks=checks_tuple,
        digest_of_solution=solution_digest(solution),
    )
