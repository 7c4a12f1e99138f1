"""A-posteriori certification of solve results (the trust-but-verify layer).

Every layer below this one — the hybrid solver, the degradation
ladder, the runtime, the fleet — ultimately trusts the solver's own
``converged`` / ``seed_accepted`` flags. That trust is exactly what a
*silent* corruption exploits: an answer that is wrong but passes its
own acceptance test propagates to the user, the write-ahead journal,
and the bench scoreboard unchallenged. ``repro.certify`` closes the
loop after the solve:

* :mod:`repro.certify.certificate` — :class:`SolveCertificate`, a
  machine-checkable verdict built from an *independently recomputed*
  relative residual (a separate minimal residual path, not the
  solver's bookkeeping), a non-finite/bounds scan, boundary-condition
  satisfaction, and per-PDE conservation invariants;
* :mod:`repro.certify.residuals` — the independent residual paths
  (direct ghost-cell assembly for Burgers, closed form for the coupled
  quadratic);
* :mod:`repro.certify.verify` — offline re-verification of any batch
  journal (``repro verify-journal``);
* :mod:`repro.certify.canary` — seeded known-answer probes routed
  through each fleet board, a leading health signal that quarantines
  drifting silicon before user traffic sees it.

Certificates are **read-only observers**: they consume no random
streams and never touch the solution, so a certified run is bitwise
identical to an uncertified one unless a certificate actually fails —
only then does the runtime's escalation path (independent damped-Newton
re-solve on a different board) activate.
"""

from repro.certify.canary import CanaryResult, canary_reference, probe_board, run_canary_sweep
from repro.certify.certificate import (
    CertificateCheck,
    CertifyPolicy,
    SolveCertificate,
    certify_solution,
    solution_digest,
)
from repro.certify.residuals import independent_residual, independent_residual_norms
from repro.certify.verify import JournalVerification, audit_certificate, verify_journal

__all__ = [
    "CanaryResult",
    "CertificateCheck",
    "CertifyPolicy",
    "JournalVerification",
    "SolveCertificate",
    "audit_certificate",
    "canary_reference",
    "certify_solution",
    "independent_residual",
    "independent_residual_norms",
    "probe_board",
    "run_canary_sweep",
    "solution_digest",
    "verify_journal",
]
