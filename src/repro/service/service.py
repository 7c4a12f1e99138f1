"""The sharded async solve service: admission, routing, fail-over.

:class:`SolveService` is a single-event-loop supervisor over N
:class:`~repro.service.shard.Shard` runtimes. The design keeps all
mutable state on the loop thread — shards execute their windows in
executor threads (each window is a synchronous
:meth:`~repro.runtime.runtime.Runtime.run_batch` call), but every
queue mutation, future resolution, and health transition happens in
loop callbacks, so there are no locks to get wrong.

Lifecycle of a request:

1. **admission** — :meth:`SolveService.submit` consults the bounded
   :class:`~repro.service.admission.AdmissionQueue`; a refusal raises
   :class:`~repro.service.api.ServiceRejected` with a reason
   (``queue_full``/``tenant_quota``/``duplicate_request``/
   ``service_stopped``) and is recorded — never silently dropped.
   Callers that prefer backpressure to refusal await
   :meth:`wait_for_capacity` first.
2. **routing** — the dispatcher pops admitted entries in
   ``(-priority, arrival)`` order and packs them into windows of at
   most ``batch_window`` requests on the lowest-indexed idle healthy
   shard. Requests re-queued by fail-over jump ahead of fresh
   admissions (they were admitted first and have already waited).
3. **fail-over** — a shard whose pool breaks raises
   :class:`~repro.service.api.ShardDied`; the service marks it dead,
   reads its write-ahead journal, resolves every *committed* outcome
   as replayed (no re-solve, counters already absorbed live), and
   re-queues the accepted-but-uncommitted remainder onto surviving
   shards. When every shard is dead a single serial **lifeboat**
   shard is launched so accepted work still reaches terminal
   outcomes; with the lifeboat gone too, remaining requests resolve
   as structured failures (``no healthy shards``) — exactly one
   terminal record per admitted request, no matter what.
4. **drain** — :meth:`drain` stops admission, waits for the queues to
   empty, merges per-shard traces with
   :func:`repro.trace.merge_traces`, and returns a
   :class:`~repro.service.api.ServiceResult`.

Because every shard shares the service seed and all solver streams
are keyed by ``stable_seed(seed, request_id, attempt, ...)``, the
number of shards never changes any request's outcome — only its
placement.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Sequence

from repro.fleet import AnalogFleet
from repro.runtime.api import RetryPolicy, SolveOutcome, SolveRequest
from repro.service.admission import AdmissionQueue
from repro.service.api import (
    Rejection,
    ServiceRecord,
    ServiceRejected,
    ServiceResult,
    ShardDied,
    ShardSummary,
)
from repro.service.shard import Shard
from repro.trace.exporter import merge_traces, write_trace
from repro.trace.tracer import Tracer

__all__ = ["SolveService", "serve_requests"]

# A request bounced off this many dead shards resolves as a structured
# failure instead of bouncing forever.
MAX_FAILOVERS = 3


@dataclass
class _Item:
    """One admitted request riding through the service."""

    request: SolveRequest
    tenant: str
    priority: int
    future: "asyncio.Future[ServiceRecord]"
    submitted_at: float
    failovers: int = 0


def _quantile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


class SolveService:
    """Async front-end routing a stream of solve requests over shards.

    Parameters
    ----------
    shards:
        Number of :class:`~repro.service.shard.Shard` runtimes.
    workers_per_shard:
        Pool width inside each shard (1 = serial, no real pool).
    queue_limit:
        Admission-queue bound; the backpressure knob.
    batch_window:
        Maximum requests dispatched to a shard per window.
    seed:
        The service seed, shared by every shard (determinism).
    shard_faults:
        Per-shard :class:`~repro.runtime.faults.FaultInjector`
        overrides keyed by shard index (chaos tests target one shard
        without the fault chasing failed-over requests across the
        fleet); ``faults`` is the shared default.
    journal_dir:
        Directory for per-shard write-ahead journals
        (``shard-<i>.journal``); ``None`` disables journaling, which
        turns fail-over into full re-execution of the dead window.
    tenant_quota:
        Optional per-tenant cap on queued requests.
    fleet:
        A :class:`~repro.fleet.FleetConfig` (or an already-built
        :class:`~repro.fleet.AnalogFleet`) shared by *every* shard —
        the shards are compute placement, the boards are analog
        capacity, and the two fail independently: a killed shard
        replays its window from the journal, a killed board voids only
        the in-flight hybrid answers that came off it. All fleet
        state lives in this (parent) process behind the fleet's own
        lock; shard windows running in executor threads route through
        it concurrently.
    certify:
        A :class:`~repro.certify.CertifyPolicy` (or ``True`` for the
        defaults) shared by every shard: each shard's runtime then
        re-verifies every converged answer through the independent
        certificate before committing it, with escalation re-solves on
        failure (see :class:`~repro.runtime.runtime.Runtime`).
    canary_interval:
        Run a canary sweep (:func:`repro.certify.run_canary_sweep`)
        over the fleet after every N completed service windows: a
        known-answer solve through each eligible board's own silicon
        model, condemning boards whose answers drift before user
        traffic sees them. Requires ``fleet``. Probes use probe-keyed
        seed streams disjoint from traffic, so sweeps never perturb
        request outcomes.
    """

    def __init__(
        self,
        shards: int = 2,
        workers_per_shard: int = 1,
        queue_limit: int = 64,
        batch_window: int = 4,
        seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[Any] = None,
        shard_faults: Optional[Dict[int, Any]] = None,
        degradation: Optional[Any] = None,
        ladder_kwargs: Optional[Dict[str, Any]] = None,
        journal_dir: Optional[Path] = None,
        tenant_quota: Optional[int] = None,
        fleet: Optional[Any] = None,
        certify: Optional[Any] = None,
        canary_interval: Optional[int] = None,
    ):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if batch_window < 1:
            raise ValueError("batch_window must be at least 1")
        if canary_interval is not None and canary_interval < 1:
            raise ValueError("canary_interval must be at least 1 when set")
        if canary_interval is not None and fleet is None:
            raise ValueError("canary_interval requires a fleet to probe")
        self.seed = int(seed)
        self.batch_window = int(batch_window)
        self.workers_per_shard = max(1, int(workers_per_shard))
        self.retry = retry
        self.faults = faults
        self.degradation = degradation
        self.ladder_kwargs = ladder_kwargs
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        if fleet is None:
            self.fleet = None
        elif isinstance(fleet, AnalogFleet):
            self.fleet = fleet
        else:
            self.fleet = AnalogFleet(fleet, degradation=degradation, seed=self.seed)
        self.certify = certify
        self.canary_interval = canary_interval
        self._windows_completed = 0
        self._canary_sweeps = 0
        self._admission = AdmissionQueue(queue_limit, tenant_quota=tenant_quota)
        self._failover: Deque[_Item] = deque()
        self._items: Dict[str, _Item] = {}
        self._order: List[str] = []
        self._records: Dict[str, ServiceRecord] = {}
        self._rejections: List[Rejection] = []
        self._counters: Dict[str, float] = {}
        self._stopping = False
        self._t0 = 0.0
        self._dispatch_task: Optional["asyncio.Task"] = None
        self._window_tasks: set = set()
        self._wake: Optional[asyncio.Event] = None
        self._space: Optional[asyncio.Event] = None
        shard_faults = shard_faults or {}
        self.shards: List[Shard] = [
            Shard(
                name=f"shard-{index}",
                seed=self.seed,
                workers=self.workers_per_shard,
                retry=retry,
                faults=shard_faults.get(index, faults),
                degradation=degradation,
                ladder_kwargs=ladder_kwargs,
                journal_path=(
                    self.journal_dir / f"shard-{index}.journal"
                    if self.journal_dir is not None
                    else None
                ),
                fleet=self.fleet,
                certify=certify,
            )
            for index in range(int(shards))
        ]

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "SolveService":
        """Bind to the running loop and start the dispatcher."""
        self._t0 = time.perf_counter()
        self._wake = asyncio.Event()
        self._space = asyncio.Event()
        self._space.set()
        self._dispatch_task = asyncio.get_event_loop().create_task(self._dispatch())
        return self

    async def drain(self, trace_path: Optional[Path] = None) -> ServiceResult:
        """Stop admission, run everything to terminal, report."""
        self._stopping = True
        self._wake.set()
        await self._dispatch_task
        if self._window_tasks:
            await asyncio.gather(*self._window_tasks, return_exceptions=True)
        elapsed = time.perf_counter() - self._t0
        for shard in self.shards:
            shard.close()
        records = [self._records[rid] for rid in self._order if rid in self._records]
        counters = dict(self._counters)
        for shard in self.shards:
            for name, value in shard.tracer.counters.items():
                counters[name] = counters.get(name, 0) + value
        latencies = sorted(record.latency_seconds for record in records)
        result = ServiceResult(
            records=records,
            rejections=list(self._rejections),
            counters=counters,
            shards=[
                ShardSummary(
                    name=shard.name,
                    status=shard.status,
                    windows=shard.windows,
                    dispatched=shard.dispatched,
                    converged=shard.converged,
                    failed=shard.failed,
                )
                for shard in self.shards
            ],
            elapsed_seconds=elapsed,
            requests_per_second=(len(records) / elapsed) if elapsed > 0 else 0.0,
            latency_p50=_quantile(latencies, 0.50),
            latency_p99=_quantile(latencies, 0.99),
            fleet=self.fleet.stats() if self.fleet is not None else None,
        )
        if trace_path is not None:
            result.trace_path = self._export_traces(Path(trace_path))
        return result

    def _export_traces(self, trace_path: Path) -> Path:
        """Write one trace per shard (plus the service's own counters)
        as siblings, then merge them into ``trace_path``."""
        service_tracer = Tracer(
            manifest={
                "experiment": "service",
                "seed": self.seed,
                "shards": len(self.shards),
            }
        )
        for name, value in self._counters.items():
            service_tracer.counter(name, value)
        shard_paths: List[Path] = []
        for shard in self.shards:
            shard_path = trace_path.with_name(f"{trace_path.name}.{shard.name}")
            write_trace(shard.tracer, shard_path)
            shard_paths.append(shard_path)
        service_path = trace_path.with_name(f"{trace_path.name}.service")
        write_trace(service_tracer, service_path)
        merge_traces([*shard_paths, service_path], trace_path)
        return trace_path

    # -- admission ------------------------------------------------------

    def submit(
        self, request: SolveRequest, tenant: str = "default", priority: int = 0
    ) -> "asyncio.Future[ServiceRecord]":
        """Admit one request; returns the future of its terminal record.

        Raises :class:`ServiceRejected` (and records the rejection)
        when admission control refuses — the caller picks between
        retrying after :meth:`wait_for_capacity` and giving up.
        """
        if self._wake is None:
            raise RuntimeError("service not started; call start() first")
        reason: Optional[str] = None
        if self._stopping:
            reason = "service_stopped"
        elif request.request_id in self._items or request.request_id in self._records:
            reason = "duplicate_request"
        if reason is None:
            item = _Item(
                request=request,
                tenant=tenant,
                priority=priority,
                future=asyncio.get_event_loop().create_future(),
                submitted_at=time.perf_counter(),
            )
            reason = self._admission.offer(
                request.request_id, tenant=tenant, priority=priority, payload=item
            )
        if reason is not None:
            self._rejections.append(
                Rejection(request_id=request.request_id, tenant=tenant, reason=reason)
            )
            self._bump("service_requests_rejected")
            raise ServiceRejected(reason, request.request_id)
        self._items[request.request_id] = item
        self._order.append(request.request_id)
        self._bump("service_requests_admitted")
        if not self._admission.has_space:
            self._space.clear()
        self._wake.set()
        return item.future

    async def wait_for_capacity(self) -> None:
        """Backpressure seam: block until the admission queue has room."""
        while not (self._admission.has_space or self._stopping):
            self._space.clear()
            await self._space.wait()

    # -- dispatch -------------------------------------------------------

    def _bump(self, name: str, value: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def _has_work(self) -> bool:
        return bool(self._failover) or len(self._admission) > 0

    def _idle(self) -> bool:
        return not self._has_work() and not any(shard.busy for shard in self.shards)

    async def _dispatch(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            self._launch_ready_windows()
            if self._stopping and self._idle():
                return

    def _next_window(self) -> List[_Item]:
        """Failed-over requests first, then admissions by priority."""
        window: List[_Item] = []
        while self._failover and len(window) < self.batch_window:
            window.append(self._failover.popleft())
        while len(self._admission) and len(window) < self.batch_window:
            window.append(self._admission.pop().payload)
            self._space.set()
        return window

    def _launch_ready_windows(self) -> None:
        while self._has_work():
            routable = [shard for shard in self.shards if shard.healthy]
            if not routable:
                if self._lifeboat() is not None:
                    continue
                self._fail_unroutable()
                return
            idle = [shard for shard in routable if not shard.busy]
            if not idle:
                return
            window = self._next_window()
            if not window:
                return
            shard = idle[0]
            shard.busy = True
            self._bump("service_windows")
            task = asyncio.ensure_future(self._run_window(shard, window))
            self._window_tasks.add(task)
            task.add_done_callback(self._window_tasks.discard)

    def _lifeboat(self) -> Optional[Shard]:
        """Every shard is dead: launch one serial rescue shard (once)."""
        if any(shard.status == "lifeboat" for shard in self.shards):
            return None  # the lifeboat itself died; no second boat
        self._bump("service_lifeboats_launched")
        lifeboat = Shard(
            name="lifeboat",
            seed=self.seed,
            workers=1,
            retry=self.retry,
            faults=self.faults,
            degradation=self.degradation,
            ladder_kwargs=self.ladder_kwargs,
            journal_path=(
                self.journal_dir / "lifeboat.journal"
                if self.journal_dir is not None
                else None
            ),
            status="lifeboat",
            fleet=self.fleet,
            certify=self.certify,
        )
        self.shards.append(lifeboat)
        return lifeboat

    def _fail_unroutable(self) -> None:
        """No shard left at all: terminal structured failures, not limbo."""
        while self._has_work():
            for item in self._next_window():
                self._resolve(
                    item,
                    SolveOutcome(
                        request_id=item.request.request_id,
                        status="failed",
                        error="no healthy shards",
                        attempt_history=["failed"],
                    ),
                    shard_name="-",
                )

    async def _run_window(self, shard: Shard, window: List[_Item]) -> None:
        loop = asyncio.get_event_loop()
        requests = [item.request for item in window]
        try:
            result = await loop.run_in_executor(None, shard.run_window, requests)
        except ShardDied:
            self._shard_died(shard, window)
        else:
            for item in window:
                outcome = result.outcome_for(item.request.request_id)
                if outcome is None:  # runtime contract says impossible; stay terminal
                    outcome = SolveOutcome(
                        request_id=item.request.request_id,
                        status="failed",
                        error="shard returned no outcome",
                    )
                self._resolve(item, outcome, shard_name=shard.name)
        finally:
            shard.busy = False
            self._maybe_canary_sweep()
            self._wake.set()

    def _maybe_canary_sweep(self) -> None:
        """After every ``canary_interval`` windows, probe the fleet.

        Runs on the loop thread (the fleet takes its own lock, so
        concurrent shard windows keep routing). Probe request ids are
        keyed by the sweep ordinal, so a rerun of the same workload
        probes with the same seed streams — sweeps are as deterministic
        as the traffic around them.
        """
        self._windows_completed += 1
        if self.canary_interval is None or self.fleet is None:
            return
        if self._windows_completed % self.canary_interval != 0:
            return
        from repro.certify.canary import run_canary_sweep
        from repro.certify.certificate import CertifyPolicy

        policy = CertifyPolicy.coerce(self.certify) or CertifyPolicy()
        events = run_canary_sweep(
            self.fleet, self.seed, self._canary_sweeps, policy=policy
        )
        self._canary_sweeps += 1
        self._bump("canary_sweeps")
        for name, value in events.items():
            self._bump(name, value)

    # -- terminal paths -------------------------------------------------

    def _resolve(
        self,
        item: _Item,
        outcome: SolveOutcome,
        shard_name: str,
        replayed: bool = False,
    ) -> None:
        record = ServiceRecord(
            outcome=outcome,
            tenant=item.tenant,
            priority=item.priority,
            shard=shard_name,
            failovers=item.failovers,
            replayed_from_journal=replayed,
            latency_seconds=time.perf_counter() - item.submitted_at,
        )
        self._records[item.request.request_id] = record
        self._items.pop(item.request.request_id, None)
        self._bump(
            "service_requests_completed" if outcome.ok else "service_requests_failed"
        )
        if not item.future.done():
            item.future.set_result(record)

    def _shard_died(self, shard: Shard, window: List[_Item]) -> None:
        """Journal-based fail-over for one dead shard's window.

        Outcomes the journal committed before the crash are resolved
        as replayed — their counters were already absorbed into the
        shard's tracer live, so nothing is re-applied or double
        counted. The accepted-but-uncommitted remainder goes back to
        the front of the dispatch queue with its fail-over count
        bumped.
        """
        self._bump("service_shards_lost")
        try:
            replay = shard.recover()
        except Exception:
            replay = None  # unreadable journal: replay the whole window
        for item in window:
            entry = (
                replay.replayed_outcome(item.request.request_id)
                if replay is not None
                else None
            )
            if entry is not None:
                self._bump("service_replayed_outcomes")
                self._resolve(item, entry[0], shard_name=shard.name, replayed=True)
                continue
            item.failovers += 1
            if item.failovers > MAX_FAILOVERS:
                self._resolve(
                    item,
                    SolveOutcome(
                        request_id=item.request.request_id,
                        status="failed",
                        error=f"exceeded {MAX_FAILOVERS} shard fail-overs",
                        attempt_history=["failed"],
                    ),
                    shard_name=shard.name,
                )
                continue
            self._bump("service_failovers")
            self._failover.append(item)


def serve_requests(
    requests: Sequence[SolveRequest],
    tenants: Optional[Sequence[str]] = None,
    priorities: Optional[Sequence[int]] = None,
    trace_path: Optional[Path] = None,
    **service_kwargs: Any,
) -> ServiceResult:
    """Run a fixed request list through a fresh service, synchronously.

    The blocking convenience wrapper the CLI, the bench suite, and
    most tests use: submissions apply backpressure (wait for queue
    space) instead of failing on ``queue_full``; rejections for any
    other reason are recorded in the result rather than raised.
    ``tenants`` / ``priorities`` align positionally with ``requests``.
    """
    if tenants is not None and len(tenants) != len(requests):
        raise ValueError("tenants must align with requests")
    if priorities is not None and len(priorities) != len(requests):
        raise ValueError("priorities must align with requests")

    async def _run() -> ServiceResult:
        service = SolveService(**service_kwargs)
        await service.start()
        for index, request in enumerate(requests):
            await service.wait_for_capacity()
            try:
                service.submit(
                    request,
                    tenant=tenants[index] if tenants is not None else "default",
                    priority=priorities[index] if priorities is not None else 0,
                )
            except ServiceRejected:
                pass  # recorded in result.rejections
        return await service.drain(trace_path=trace_path)

    return asyncio.run(_run())
