"""Offline re-verification of batch journals (``repro verify-journal``).

A journal is the durable record of what a batch claims it computed.
``verify_journal`` audits that claim without trusting it: every
committed converged outcome's solution is re-certified from scratch
through the independent residual path, and any certificate the journal
stored is checked for digest integrity (does it belong to the stored
solution, was it tampered with, does its verdict still reproduce).

Three failure classes, all reported per outcome:

* ``certificate-mismatch`` — the stored certificate's digest does not
  equal the digest recomputed from the stored solution: the journal
  was modified after commit, or solution and certificate were torn
  apart;
* ``certified-bad`` — re-certification *fails* on the stored solution
  (a corrupted answer was committed, certified or not);
* ``stored-failure`` — the journal committed an outcome whose stored
  certificate already said ``fail`` (the runtime should have escalated
  instead).

Uncertified journals (no ``certify`` config, no per-outcome
certificates) are still fully auditable — recompute-only mode.
:func:`audit_certificate` is the one audit of a committed answer; the
runtime's ``--resume`` replay runs it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.certify.certificate import CertifyPolicy, SolveCertificate, certify_solution
from repro.checkpoint.journal import outcome_from_record, read_journal

__all__ = ["JournalVerification", "audit_certificate", "verify_journal"]

PathLike = Union[str, Path]


@dataclass
class JournalVerification:
    """The audit result for one journal file."""

    path: Path
    checked: int = 0
    skipped: int = 0
    certificates_failed: int = 0
    problems: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def render(self) -> str:
        lines = [
            f"journal: {self.path}",
            f"outcomes checked: {self.checked} (skipped: {self.skipped})",
            f"certificates failed: {self.certificates_failed}",
        ]
        for problem in self.problems:
            lines.append(
                f"  FAIL [{problem['kind']}] {problem['request_id']}: {problem['detail']}"
            )
        lines.append("verdict: " + ("ok" if self.ok else "FAILED"))
        return "\n".join(lines)


def audit_certificate(
    request: Any,
    solution: Any,
    stored: Optional[SolveCertificate],
    policy: CertifyPolicy,
    check_digest: bool = True,
) -> Optional[Tuple[str, str]]:
    """Audit one committed answer; returns ``(kind, detail)`` or ``None``.

    Re-certifies ``solution`` against ``request.problem`` from scratch,
    then checks, in order: the ``stored`` certificate's digest against
    the recomputed one (skipped when ``check_digest`` is false),
    the stored verdict, and the recomputed verdict. ``kind`` is
    ``certificate-mismatch``, ``stored-failure`` or ``certified-bad``.
    """
    recomputed = certify_solution(
        request.problem, solution, value_bound=request.value_bound, policy=policy
    )
    if stored is not None:
        if check_digest and stored.digest != recomputed.digest:
            return "certificate-mismatch", (
                f"stored digest {stored.digest[:12]}... != "
                f"recomputed {recomputed.digest[:12]}..."
            )
        if not stored.passed:
            return "stored-failure", "journal committed an outcome whose certificate says fail"
    if not recomputed.passed:
        failed = ", ".join(check.name for check in recomputed.failed_checks())
        return "certified-bad", (
            f"re-certification failed ({failed}); relative residual "
            f"{recomputed.relative_residual:.3e} vs tolerance "
            f"{recomputed.tolerance:.3e}"
        )
    return None


def verify_journal(
    path: PathLike,
    policy: Optional[CertifyPolicy] = None,
    tolerance: Optional[float] = None,
) -> JournalVerification:
    """Audit every committed outcome in ``path``.

    ``policy`` defaults to the policy recorded in the journal's
    ``batch_started`` config (the tolerances the run was certified
    under), falling back to :class:`CertifyPolicy` defaults;
    ``tolerance`` overrides just ``max_relative_residual``.
    """
    replay = read_journal(path)
    if policy is None:
        stored = (replay.config or {}).get("certify")
        policy = CertifyPolicy.from_record(stored) if stored else CertifyPolicy()
    if tolerance is not None:
        policy = replace(policy, enabled=True, max_relative_residual=float(tolerance))
    requests = {request.request_id: request for request in replay.requests}
    result = JournalVerification(path=Path(path))

    for request_id, record in replay.outcomes.items():
        outcome = outcome_from_record(record["outcome"])
        request = requests.get(request_id)
        if outcome.status != "converged" or outcome.solution is None or request is None:
            # Failures/timeouts carry no answer to certify; a missing
            # request_accepted record leaves nothing to rebuild against.
            result.skipped += 1
            continue
        result.checked += 1
        problem = audit_certificate(
            request,
            outcome.solution,
            outcome.certificate,
            policy,
            check_digest=tolerance is None,
        )
        if problem is not None:
            kind, detail = problem
            result.certificates_failed += 1
            result.problems.append(
                {"kind": kind, "request_id": request_id, "detail": detail}
            )
    return result
