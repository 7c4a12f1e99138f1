"""Admission control: a bounded priority queue that rejects with reasons.

The queue is the service's front door and its backpressure mechanism.
It is deliberately a plain synchronous data structure — the service
runs it from a single event-loop thread, and keeping it loop-free
makes it directly checkable by the Hypothesis property suite
(``tests/service/test_admission_properties.py``): the bound is never
exceeded, every rejection names one of
:data:`~repro.service.api.REJECTION_REASONS`, and among admitted
entries the pop order is exactly ``(-priority, arrival)`` — higher
priority first, FIFO within a priority level, regardless of tenant
interleaving.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["AdmissionQueue", "QueueEntry"]


@dataclass(order=True)
class QueueEntry:
    """One admitted-but-not-yet-dispatched request.

    Ordering is by the explicit sort key only; ``payload`` carries
    whatever the service attached (never compared).
    """

    sort_key: tuple = field(init=False, repr=False)
    key: str = field(compare=False)
    tenant: str = field(compare=False, default="default")
    priority: int = field(compare=False, default=0)
    seq: int = field(compare=False, default=0)
    payload: Any = field(compare=False, default=None)

    def __post_init__(self) -> None:
        # Max-heap on priority via negation; seq breaks ties FIFO.
        self.sort_key = (-self.priority, self.seq)


class AdmissionQueue:
    """Bounded, tenant-aware priority queue; rejects with a reason.

    Parameters
    ----------
    capacity:
        Hard bound on queued entries. ``offer`` beyond it returns
        ``"queue_full"`` — the caller converts that into backpressure
        (wait and retry) or a refusal, but never a silent drop.
    tenant_quota:
        Optional per-tenant cap on *queued* entries, so one noisy
        tenant cannot occupy the whole queue and starve the rest.
    """

    def __init__(self, capacity: int, tenant_quota: Optional[int] = None):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if tenant_quota is not None and tenant_quota < 1:
            raise ValueError("tenant_quota must be at least 1 when set")
        self.capacity = int(capacity)
        self.tenant_quota = tenant_quota
        self._heap: List[QueueEntry] = []
        self._queued_keys: set = set()
        self._tenant_counts: Dict[str, int] = {}
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def has_space(self) -> bool:
        return len(self._heap) < self.capacity

    def offer(
        self,
        key: str,
        tenant: str = "default",
        priority: int = 0,
        payload: Any = None,
    ) -> Optional[str]:
        """Try to admit one entry; returns a rejection reason or ``None``.

        Checks run most-specific first: a duplicate key is a caller
        bug worth naming even when the queue is also full.
        """
        if key in self._queued_keys:
            return "duplicate_request"
        if (
            self.tenant_quota is not None
            and self._tenant_counts.get(tenant, 0) >= self.tenant_quota
        ):
            return "tenant_quota"
        if len(self._heap) >= self.capacity:
            return "queue_full"
        entry = QueueEntry(
            key=key, tenant=tenant, priority=priority, seq=self._seq, payload=payload
        )
        self._seq += 1
        heapq.heappush(self._heap, entry)
        self._queued_keys.add(key)
        self._tenant_counts[tenant] = self._tenant_counts.get(tenant, 0) + 1
        return None

    def pop(self) -> QueueEntry:
        """Remove and return the highest-priority (then oldest) entry."""
        entry = heapq.heappop(self._heap)
        self._queued_keys.discard(entry.key)
        remaining = self._tenant_counts.get(entry.tenant, 0) - 1
        if remaining > 0:
            self._tenant_counts[entry.tenant] = remaining
        else:
            self._tenant_counts.pop(entry.tenant, None)
        return entry
