"""Request/record contract of the sharded solve service.

The service layer speaks in three shapes. A submission is a
:class:`~repro.runtime.api.SolveRequest` plus *service* metadata
(tenant, priority) that the solver layers never see. Every admitted
request ends in exactly one :class:`ServiceRecord` — the terminal
:class:`~repro.runtime.api.SolveOutcome` annotated with how the
service got it there (which shard, how many fail-overs, whether it
was replayed from a dead shard's journal). Every rejected request
ends in exactly one :class:`Rejection` carrying a machine-readable
reason — the admission contract is reject-with-reason, never silent
drop. A drained service hands back one :class:`ServiceResult` holding
all of it plus the merged counters and throughput/latency figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.reporting import ascii_table
from repro.runtime.api import SolveOutcome

__all__ = [
    "REJECTION_REASONS",
    "ServiceRejected",
    "ShardDied",
    "Rejection",
    "ServiceRecord",
    "ShardSummary",
    "ServiceResult",
]

# The only reasons an admission rejection may carry.
REJECTION_REASONS = (
    "queue_full",
    "tenant_quota",
    "duplicate_request",
    "service_stopped",
)


class ServiceRejected(RuntimeError):
    """Admission control refused a request; ``reason`` says why."""

    def __init__(self, reason: str, detail: str = ""):
        if reason not in REJECTION_REASONS:
            raise ValueError(f"unknown rejection reason {reason!r}")
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class ShardDied(RuntimeError):
    """A shard's runtime crashed mid-window (its pool broke).

    Raised by :meth:`repro.service.shard.Shard.run_window`; the service
    catches it, recovers committed outcomes from the shard's journal,
    and fails the rest of the window over to surviving shards.
    """


@dataclass(frozen=True)
class Rejection:
    """One refused submission: who asked, and the reason given."""

    request_id: str
    tenant: str
    reason: str


@dataclass
class ServiceRecord:
    """The terminal record of one admitted request.

    Wraps the runtime's :class:`~repro.runtime.api.SolveOutcome` with
    the service-level story: the shard that produced the outcome,
    how many times the request failed over off a dead shard, and
    whether the outcome was replayed from a journal rather than
    re-solved.
    """

    outcome: SolveOutcome
    tenant: str = "default"
    priority: int = 0
    shard: str = "?"
    failovers: int = 0
    replayed_from_journal: bool = False
    latency_seconds: float = 0.0

    @property
    def request_id(self) -> str:
        return self.outcome.request_id

    @property
    def ok(self) -> bool:
        return self.outcome.ok


@dataclass
class ShardSummary:
    """One shard's lifetime, as the drained service reports it."""

    name: str
    status: str  # "healthy" | "dead" | "lifeboat"
    windows: int = 0
    dispatched: int = 0
    converged: int = 0
    failed: int = 0


@dataclass
class ServiceResult:
    """Everything a drained service produced, submission order preserved."""

    records: List[ServiceRecord] = field(default_factory=list)
    rejections: List[Rejection] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    shards: List[ShardSummary] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    requests_per_second: float = 0.0
    latency_p50: float = 0.0
    latency_p99: float = 0.0
    trace_path: Optional[Path] = None
    fleet: Optional[Dict[str, Any]] = None

    @property
    def completed(self) -> int:
        return sum(1 for record in self.records if record.ok)

    @property
    def failed(self) -> int:
        return sum(1 for record in self.records if not record.ok)

    def render(self) -> str:
        """Multi-table summary; all wall-clock figures stay on the one
        ``timing:`` line so regression tooling can mask it."""
        headline = (
            f"solve service: {len(self.records)} request(s) across "
            f"{len(self.shards)} shard(s), {self.completed} converged / "
            f"{self.failed} not, {len(self.rejections)} rejected"
        )
        request_rows = [
            {
                "request": record.request_id,
                "tenant": record.tenant,
                "prio": record.priority,
                "shard": record.shard,
                "status": record.outcome.status,
                "rung": record.outcome.rung or "-",
                "attempts": record.outcome.attempts,
                "failovers": record.failovers,
                "replayed": "yes" if record.replayed_from_journal else "-",
            }
            for record in self.records
        ]
        shard_rows = [
            {
                "shard": shard.name,
                "status": shard.status,
                "windows": shard.windows,
                "dispatched": shard.dispatched,
                "converged": shard.converged,
                "failed": shard.failed,
            }
            for shard in self.shards
        ]
        parts = [headline, ascii_table(request_rows), ascii_table(shard_rows)]
        if self.rejections:
            parts.append(
                ascii_table(
                    [
                        {
                            "rejected": rejection.request_id,
                            "tenant": rejection.tenant,
                            "reason": rejection.reason,
                        }
                        for rejection in self.rejections
                    ]
                )
            )
        if self.fleet is not None:
            parts.append(
                ascii_table(
                    [
                        {
                            "board": row["board"],
                            "epoch": row["epoch"],
                            "routed": row["routed"],
                            "vetoes": row["vetoes"],
                            "quarantined": "yes" if row["quarantined"] else "-",
                            "killed": "yes" if row["killed"] else "-",
                        }
                        for row in self.fleet.get("boards", [])
                    ]
                )
            )
        if self.counters:
            parts.append(
                ascii_table(
                    [
                        {"counter": name, "value": self.counters[name]}
                        for name in sorted(self.counters)
                    ]
                )
            )
        parts.append(
            "timing: "
            f"elapsed={self.elapsed_seconds:.2f}s "
            f"throughput={self.requests_per_second:.1f}req/s "
            f"p50={self.latency_p50:.3f}s p99={self.latency_p99:.3f}s"
        )
        return "\n\n".join(parts)
