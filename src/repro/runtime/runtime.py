"""Batched, fault-tolerant solve orchestration (the serving layer).

:class:`Runtime` turns the library's solvers into something that can
face traffic: requests enter a bounded work queue, fan out over a
process pool (sharing the degrade-to-serial posture of
:mod:`repro.experiments.parallel`), and every one of them ends in a
:class:`~repro.runtime.api.SolveOutcome` — converged, failed, or
timed out — no matter what the attempt did: returned garbage, ran
past its deadline, or took the whole worker process down with it.

Supervision model:

* **deadlines** — enforced cooperatively inside the worker (a
  :class:`~repro.runtime.api.Deadline` checked every Newton iteration)
  and, in pooled mode, by a parent-side watchdog with a grace margin:
  a truly wedged attempt is abandoned (its eventual result discarded)
  and accounted as a ``timeout``;
* **retries** — bounded per request
  (:class:`~repro.runtime.api.RetryPolicy`), exponential backoff with
  jitter drawn from a seeded stream keyed by (seed, request, attempt),
  so the schedule is identical at any worker count. Each retry runs
  with a fresh accelerator die (new analog mismatch pattern) — the
  hybrid-restart pattern of Burns et al. (arXiv:2410.06397);
* **worker crashes** — a broken pool charges every in-flight attempt
  one crashed attempt and degrades the rest of the window to
  in-process execution (a fresh fork after an abrupt process death is
  not a bet worth making); the crash is recorded in counters, outcome
  fault lists, and the trace manifest;
* **degradation** — inside each attempt the
  :class:`~repro.runtime.ladder.DegradationLadder` descends
  analog-seeded hybrid -> damped Newton -> homotopy before reporting
  structured failure.

Tracing: the parent records ``runtime_batch`` > ``solve_attempt`` >
``retry`` spans and absorbs each worker's span stream (ladder rungs,
Newton iterations, analog settles) under the corresponding
``solve_attempt`` via :meth:`repro.trace.Tracer.absorb`, so one trace
file tells the whole batch's story. Worker span timestamps are
re-based onto the parent's ``perf_counter`` clock at absorb time —
each process has its own clock origin, so raw worker timestamps would
not be comparable to parent spans (durations are unaffected); counters
(``runtime_retries``, ``runtime_timeouts``, ``runtime_faults``,
``worker_crashes``, ``requests_*``) reconcile exactly with the
returned outcomes.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analog.engine import AnalogAccelerator
from repro.analog.health import DegradationModel, DegradationSchedule
from repro.certify.certificate import CertifyPolicy, certify_solution
from repro.checkpoint.signals import GracefulShutdown, RunInterrupted
from repro.fleet.board import BoardAssignment
from repro.fleet.scheduler import AnalogFleet, FleetConfig
from repro.reporting import ascii_table
from repro.runtime.api import (
    Deadline,
    DeadlineExceeded,
    PoolBroken,
    QueueFull,
    RetryPolicy,
    SolveOutcome,
    SolveRequest,
    stable_seed,
)
from repro.runtime.faults import FaultInjector, InjectedWorkerCrash
from repro.runtime.ladder import DegradationLadder
from repro.trace.tracer import Tracer, TracerLike, as_tracer

__all__ = ["AttemptReport", "BatchResult", "Runtime"]

# Parent-side watchdog fires this far past the cooperative deadline:
# the in-worker check should always win unless the attempt is wedged.
_DEADLINE_GRACE_FACTOR = 1.5
_DEADLINE_GRACE_FLOOR = 0.5
# How long the pooled supervisor waits on in-flight attempts before it
# re-checks shutdown, admission and the watchdog.
_POLL_INTERVAL_S = 0.02


@dataclass
class AttemptReport:
    """What one attempt (one worker execution) reported back.

    ``status`` here may additionally be ``"crashed"`` — synthesized by
    the parent when the worker died — which the terminal
    :class:`~repro.runtime.api.SolveOutcome` maps to ``"failed"`` if
    no retry remains.
    """

    request_id: str
    attempt: int
    status: str
    rung: Optional[str] = None
    residual_norm: float = float("inf")
    iterations: int = 0
    solution: Optional[Any] = None
    error: Optional[str] = None
    rungs_tried: Tuple[str, ...] = ()
    faults: Tuple[str, ...] = ()
    spans: List[dict] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    elapsed: float = 0.0
    health: Optional[Dict[str, Any]] = None
    certificate: Optional[Any] = None
    """Attached parent-side by :meth:`Runtime._process_report` when the
    attempt's converged answer passed certification; never crosses the
    process boundary."""


def _execute_attempt(
    request: SolveRequest,
    attempt: int,
    runtime_seed: int,
    faults: Optional[FaultInjector],
    traced: bool,
    allow_process_exit: bool,
    ladder_kwargs: Optional[Dict[str, Any]] = None,
    degradation: Optional[DegradationModel] = None,
    board: Optional[BoardAssignment] = None,
) -> AttemptReport:
    """Run one solve attempt; top-level so the pool can pickle it.

    Builds the problem, the per-attempt accelerator (die seeded from
    (runtime seed, request, attempt) — every retry gets fresh silicon),
    and the degradation ladder, then descends it under the cooperative
    deadline. Injected worker crashes escape (that is their job);
    everything else becomes a structured report.

    ``degradation`` is the runtime-level aging model applied to each
    attempt's board (its schedule seeded per attempt so any worker
    reproduces it bitwise); a ``degrade_analog`` fault for this attempt
    takes precedence.

    ``board`` is the fleet's routing decision for this attempt. It
    supersedes the single-board streams: the die and drift-walk seeds
    come from the assigned board (board 0 of a one-board fleet gives
    exactly the single-board streams, the bitwise-equality anchor),
    its per-board degradation model replaces ``degradation``, and a
    vetoed or fleet-exhausted assignment strips the hybrid rung — the
    attempt degrades straight to the digital rungs without paying for
    a settle.
    """
    t0 = time.perf_counter()
    fault_log: List[str] = []
    if faults is not None:
        faults.maybe_crash_worker(request.request_id, attempt, allow_process_exit)
    worker_tracer: Optional[Tracer] = Tracer() if traced else None
    status = "failed"
    rung: Optional[str] = None
    norm = float("inf")
    iterations = 0
    solution = None
    error: Optional[str] = None
    rungs_tried: Tuple[str, ...] = ()
    health: Optional[Dict[str, Any]] = None
    try:
        system, guess = request.problem.build()
        schedule = (
            faults.degradation_schedule(request.request_id, attempt, fault_log)
            if faults is not None
            else None
        )
        if schedule is None:
            if board is not None:
                if board.degradation is not None and not board.fleet_exhausted:
                    schedule = DegradationSchedule(
                        board.degradation, seed=board.degradation_seed
                    )
            elif degradation is not None:
                schedule = DegradationSchedule(
                    degradation,
                    seed=stable_seed(
                        runtime_seed, request.request_id, attempt, "degradation"
                    ),
                )
        die_seed = (
            board.die_seed
            if board is not None
            else stable_seed(runtime_seed, request.request_id, attempt, "die") % (2**31)
        )
        accelerator = AnalogAccelerator(
            seed=die_seed,
            fault_hook=(
                faults.analog_hook(request.request_id, attempt, fault_log)
                if faults is not None
                else None
            ),
            degradation=schedule,
        )
        ladder = DegradationLadder(accelerator=accelerator, **(ladder_kwargs or {}))
        deadline = (
            Deadline(request.deadline_seconds)
            if request.deadline_seconds is not None
            else None
        )
        hook = (
            faults.iteration_hook(request.request_id, attempt, fault_log)
            if faults is not None
            else None
        )
        rungs = request.rungs
        if board is not None and board.skip_analog:
            # Predictive veto or fleet exhaustion: the settle is not
            # paid for; the ladder starts at the digital rungs.
            base = rungs if rungs is not None else ladder.rungs
            rungs = tuple(r for r in base if r != "hybrid") or ("damped_newton",)
        result = ladder.solve(
            system,
            initial_guess=guess,
            value_bound=request.value_bound,
            analog_time_limit=request.analog_time_limit,
            deadline=deadline,
            tracer=worker_tracer,
            iteration_hook=hook,
            rungs=rungs,
        )
        rungs_tried = result.rungs_tried
        norm = float(result.residual_norm)
        solution = result.u
        if result.converged and solution is not None and faults is not None:
            # The silent-corruption seam: fires AFTER the ladder has
            # accepted the answer, and deliberately leaves the reported
            # residual_norm at its converged value — the solver's own
            # bookkeeping cannot see this fault, only the independent
            # certificate can.
            corrupt = faults.corruption_hook(request.request_id, attempt, fault_log)
            if corrupt is not None:
                solution = corrupt(solution)
        if schedule is not None:
            health = schedule.state_dict()
        if result.converged:
            status, rung = "converged", result.rung
            iterations = sum(a.iterations for a in result.attempts)
        elif result.timed_out:
            status, error = "timeout", "deadline exceeded"
        else:
            failures = "; ".join(
                f"{a.rung}: {a.error or 'did not converge'}" for a in result.attempts
            )
            status, error = "failed", f"ladder exhausted ({failures})"
    except InjectedWorkerCrash:
        raise
    except DeadlineExceeded:
        status, error = "timeout", "deadline exceeded"
    except Exception as exc:  # total: the runtime's contract is no escapes
        status, error = "failed", f"{type(exc).__name__}: {exc}"
    return AttemptReport(
        request_id=request.request_id,
        attempt=attempt,
        status=status,
        rung=rung,
        residual_norm=norm,
        iterations=iterations,
        solution=solution,
        error=error,
        rungs_tried=rungs_tried,
        faults=tuple(fault_log),
        spans=[record.to_record() for record in worker_tracer.spans] if worker_tracer else [],
        counters=dict(worker_tracer.counters) if worker_tracer else {},
        gauges=dict(worker_tracer.gauges) if worker_tracer else {},
        elapsed=time.perf_counter() - t0,
        health=health,
    )


class _RequestState:
    """Parent-side bookkeeping for one request across its attempts.

    ``batch_counters`` / ``trace_counters`` / ``trace_gauges`` attribute
    every counter bump and absorbed worker metric to the request that
    caused it — the write-ahead journal commits them with the outcome,
    so a resumed batch replays each completed request's exact
    contribution and its totals stay bitwise-identical to an
    uninterrupted run's.
    """

    __slots__ = (
        "request",
        "attempts_started",
        "history",
        "faults",
        "last_report",
        "batch_counters",
        "trace_counters",
        "trace_gauges",
        "assignments",
        "pending_fleet_events",
        "escalations",
    )

    def __init__(self, request: SolveRequest):
        self.request = request
        self.attempts_started = 0
        self.history: List[str] = []
        self.faults: List[str] = []
        self.last_report: Optional[AttemptReport] = None
        self.batch_counters: Dict[str, float] = {}
        self.trace_counters: Dict[str, float] = {}
        self.trace_gauges: Dict[str, float] = {}
        self.assignments: Dict[int, BoardAssignment] = {}
        self.pending_fleet_events: Dict[str, float] = {}
        self.escalations = 0


@dataclass
class BatchResult:
    """All outcomes of one batch plus how it was executed.

    ``replayed`` counts outcomes restored from a write-ahead journal
    rather than re-solved; ``interrupted`` marks a batch cut short by
    SIGTERM/Ctrl-C — its ``outcomes`` then hold only the requests that
    reached a terminal state before the shutdown point.
    """

    outcomes: List[SolveOutcome]
    mode: str  # "parallel" or "serial"
    workers: int
    elapsed_seconds: float
    counters: Dict[str, float] = field(default_factory=dict)
    replayed: int = 0
    interrupted: bool = False
    total_requests: Optional[int] = None

    def outcome_for(self, request_id: str) -> Optional[SolveOutcome]:
        for outcome in self.outcomes:
            if outcome.request_id == request_id:
                return outcome
        return None

    @property
    def completed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    def summary_rows(self) -> List[dict]:
        return [
            {
                "request": outcome.request_id,
                "status": outcome.status,
                "rung": outcome.rung or "-",
                "attempts": outcome.attempts,
                "retries": outcome.retries,
                "residual": outcome.residual_norm,
                "faults": ",".join(outcome.faults) or "-",
            }
            for outcome in self.outcomes
        ]

    def render(self) -> str:
        headline = (
            f"batch of {len(self.outcomes)} request(s), {self.mode} execution "
            f"({self.workers} worker(s)), {self.completed} converged / "
            f"{self.failed} not, {self.elapsed_seconds:.2f}s"
        )
        if self.replayed:
            headline += f" [{self.replayed} replayed from journal]"
        if self.interrupted:
            total = self.total_requests if self.total_requests is not None else "?"
            headline += f" [INTERRUPTED: {len(self.outcomes)}/{total} requests terminal]"
        parts = [
            headline,
            ascii_table(self.summary_rows()),
        ]
        if self.counters:
            counter_rows = [
                {"counter": name, "value": self.counters[name]}
                for name in sorted(self.counters)
            ]
            parts.append(ascii_table(counter_rows))
        return "\n\n".join(parts)


class Runtime:
    """The fault-tolerant batch solve runtime.

    Parameters
    ----------
    workers:
        Process-pool width; 1 runs in-process (still fully supervised,
        but worker-crash faults are simulated by exception and true
        hangs can only be caught cooperatively).
    queue_limit:
        Bound on the admission queue. :meth:`submit` raises
        :class:`~repro.runtime.api.QueueFull` beyond it;
        :meth:`run_batch` admits oversized batches window by window.
    retry:
        Bounded-retry/backoff policy (default: 3 attempts).
    seed:
        Root of every derived stream: backoff jitter, fault draws,
        per-attempt accelerator dies.
    faults:
        Optional :class:`~repro.runtime.faults.FaultInjector` (chaos
        testing seam).
    ladder_kwargs:
        Forwarded to each attempt's
        :class:`~repro.runtime.ladder.DegradationLadder` (options,
        schedule, rung order). Must be picklable.
    degradation:
        Optional :class:`~repro.analog.health.DegradationModel` aging
        every attempt's analog board (schedules are seeded per
        ``(seed, request, attempt)`` so worker count never changes the
        drift). A ``degrade_analog`` fault takes precedence for the
        attempts it fires on.
    fleet:
        Optional fleet of analog boards: a
        :class:`~repro.fleet.scheduler.FleetConfig` (the runtime builds
        and owns the fleet, boards inheriting ``degradation`` unless
        the config overrides per board) or an already-built
        :class:`~repro.fleet.scheduler.AnalogFleet` (the service's
        shared-fleet mode: every shard draws boards from one fleet).
        Each attempt is routed to the healthiest eligible board
        (``fleet_route``/``predictive_gate`` spans); a predictive veto
        or an exhausted fleet skips the hybrid rung entirely. A
        one-board fleet with default thresholds reproduces the
        single-board path bitwise.
    journal:
        Optional write-ahead journal (duck-typed;
        :class:`repro.checkpoint.BatchJournal`). When set, the runtime
        appends ``batch_started`` / ``request_accepted`` /
        ``attempt_started`` / ``outcome_committed`` records around the
        work it does, so a killed batch resumes via
        :func:`repro.checkpoint.read_journal` without re-solving
        completed requests.
    crash_after_outcomes:
        Chaos seam: ``os._exit(9)`` immediately after this many
        outcomes have been journal-committed, simulating a SIGKILL at
        a deterministic point (kill-and-resume tests only).
    on_pool_break:
        What a broken process pool means. ``"degrade"`` (default, the
        single-host posture): charge in-flight attempts one crash each
        and finish the window in-process. ``"fail"`` (the service-shard
        posture): journal ``batch_interrupted`` and raise
        :class:`~repro.runtime.api.PoolBroken` so a supervisor can fail
        the shard over instead of letting it limp along serially.
    certify:
        A-posteriori result verification. ``True`` or a
        :class:`~repro.certify.CertifyPolicy`: every converged attempt
        is re-checked through the independent certificate before the
        outcome commits. A passing certificate rides on the outcome
        (and into the journal); a failing one voids the answer,
        condemns the producing board into fleet quarantine, and
        triggers one escalation re-solve through the ladder's
        damped-Newton rung on freshly-routed silicon. Certification
        consumes no random streams — with no failures a certified run's
        solutions are bitwise identical to an uncertified run's.
    """

    def __init__(
        self,
        workers: int = 1,
        queue_limit: int = 256,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
        faults: Optional[FaultInjector] = None,
        ladder_kwargs: Optional[Dict[str, Any]] = None,
        degradation: Optional[DegradationModel] = None,
        journal: Optional[Any] = None,
        crash_after_outcomes: Optional[int] = None,
        on_pool_break: str = "degrade",
        fleet: Optional[Any] = None,
        certify: Optional[Any] = None,
    ):
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if on_pool_break not in ("degrade", "fail"):
            raise ValueError('on_pool_break must be "degrade" or "fail"')
        self.workers = max(1, int(workers))
        self.queue_limit = int(queue_limit)
        self.retry = retry or RetryPolicy()
        self.seed = int(seed)
        self.faults = faults
        self.ladder_kwargs = ladder_kwargs
        self.degradation = degradation
        self.journal = journal
        self.crash_after_outcomes = crash_after_outcomes
        self.on_pool_break = on_pool_break
        self.certify: Optional[CertifyPolicy] = CertifyPolicy.coerce(certify)
        if fleet is None:
            self.fleet: Optional[AnalogFleet] = None
            self.fleet_config: Optional[FleetConfig] = None
        elif isinstance(fleet, AnalogFleet):
            self.fleet = fleet
            self.fleet_config = fleet.config
        else:
            self.fleet_config = fleet
            self.fleet = AnalogFleet(fleet, degradation=degradation, seed=self.seed)
        self._outcomes_committed = 0
        self._queue: deque = deque()

    # -- admission ------------------------------------------------------

    def submit(self, request: SolveRequest) -> None:
        """Admit one request; raises :class:`QueueFull` at the bound."""
        if len(self._queue) >= self.queue_limit:
            raise QueueFull(
                f"work queue at its bound ({self.queue_limit}); drain before submitting"
            )
        if any(queued.request_id == request.request_id for queued in self._queue):
            raise ValueError(f"duplicate request_id {request.request_id!r} in queue")
        self._queue.append(request)

    def run_batch(
        self,
        requests: Optional[Sequence[SolveRequest]] = None,
        tracer: Optional[TracerLike] = None,
        resume: Optional[Any] = None,
        shutdown: Optional[GracefulShutdown] = None,
    ) -> BatchResult:
        """Run requests (given, plus any previously submitted) to completion.

        Every request yields exactly one
        :class:`~repro.runtime.api.SolveOutcome`, in submission order.
        Oversized batches are admitted in queue-bound-sized windows.

        ``resume`` is a :class:`repro.checkpoint.JournalReplay` from a
        prior run's journal: requests with a committed outcome are
        *replayed* (outcome, counter deltas and health state restored
        from the journal, no re-solve); the rest run normally — and
        because every random stream is keyed by
        ``stable_seed(seed, request, attempt, ...)``, the combined
        result is bitwise-identical to the uninterrupted batch.

        ``shutdown`` is a :class:`repro.checkpoint.GracefulShutdown`
        latch polled between attempts; when it trips, the batch stops
        at the next safe point, journals ``batch_interrupted``, and
        returns a partial result with ``interrupted=True`` (Ctrl-C
        lands on the same path).
        """
        tracer = as_tracer(tracer)
        all_requests = list(self._queue) + list(requests or [])
        self._queue.clear()
        ids = [request.request_id for request in all_requests]
        if len(set(ids)) != len(ids):
            raise ValueError("request_ids within a batch must be unique")
        counts: Dict[str, float] = {}

        def bump(name: str, value: float = 1, tracer_too: bool = True) -> None:
            counts[name] = counts.get(name, 0) + value
            if tracer_too:
                tracer.counter(name, value)

        t0 = time.perf_counter()
        mode = "serial"
        outcomes: Dict[str, SolveOutcome] = {}
        replayed = 0
        interrupted = False
        interrupt_reason: Optional[str] = None

        # Write-ahead: accept everything into the journal before acting.
        if self.journal is not None:
            if resume is None:
                self.journal.batch_started(
                    self, f"seed{self.seed}-n{len(all_requests)}", len(all_requests)
                )
                accepted_ids: set = set()
            else:
                accepted_ids = {request.request_id for request in resume.requests}
            for request in all_requests:
                if request.request_id not in accepted_ids:
                    self.journal.request_accepted(request)

        # Replay committed outcomes from the journal: no re-solve, and
        # their counter deltas restore both BatchResult.counters and the
        # tracer's totals to what the uninterrupted run would report.
        if resume is not None:
            for request in all_requests:
                entry = resume.replayed_outcome(request.request_id)
                if entry is None:
                    continue
                outcome, batch_counters, trace_counters, trace_gauges = entry
                if self.certify is not None:
                    # Replay does not trust the journal: every committed
                    # certificate is re-verified against its solution
                    # before the outcome is accepted back. No counters
                    # are bumped here — a resumed run's totals must stay
                    # bitwise-equal to an uninterrupted run's.
                    self._verify_replayed(request, outcome)
                outcomes[request.request_id] = outcome
                for name, value in batch_counters.items():
                    counts[name] = counts.get(name, 0) + value
                tracer.absorb([], counters=trace_counters, gauges=trace_gauges)
                replayed += 1
            if self.journal is not None:
                self.journal.batch_resumed(replayed, len(all_requests) - replayed)

        with tracer.span(
            "runtime_batch",
            requests=len(all_requests),
            workers=self.workers,
            queue_limit=self.queue_limit,
        ) as batch_span:
            remaining = [
                request
                for request in all_requests
                if request.request_id not in outcomes
            ]
            try:
                while remaining:
                    window = remaining[: self.queue_limit]
                    remaining = remaining[self.queue_limit :]
                    if self.workers > 1:
                        window_mode = self._run_pooled_window(
                            window, tracer, bump, outcomes, shutdown
                        )
                    else:
                        self._run_serial_window(
                            window, tracer, bump, outcomes, shutdown
                        )
                        window_mode = "serial"
                    if window_mode == "parallel":
                        mode = "parallel"
            except (KeyboardInterrupt, RunInterrupted) as exc:
                interrupted = True
                interrupt_reason = str(exc) or type(exc).__name__
            except PoolBroken as exc:
                # The "fail" posture: record the interruption durably so
                # the journal tells the fail-over story, then let the
                # supervisor (repro.service) see the crash.
                if self.journal is not None:
                    self.journal.batch_interrupted(f"pool broken: {exc}")
                raise
            batch_span.update(
                completed=sum(1 for o in outcomes.values() if o.ok),
                failed=sum(1 for o in outcomes.values() if not o.ok),
                mode=mode,
            )
            if interrupted:
                batch_span.update(interrupted=True)
            if replayed:
                batch_span.update(replayed=replayed)
        elapsed = time.perf_counter() - t0
        ordered = [outcomes[request_id] for request_id in ids if request_id in outcomes]
        if self.journal is not None:
            if interrupted:
                self.journal.batch_interrupted(interrupt_reason or "interrupted")
            else:
                self.journal.batch_completed(
                    sum(1 for o in ordered if o.ok),
                    sum(1 for o in ordered if not o.ok),
                )
        # The failure story survives into the trace manifest: fault and
        # crash totals are what a post-mortem reads first.
        if isinstance(tracer, Tracer):
            manifest_entry = {
                "mode": mode,
                "workers": self.workers,
                "requests": len(ordered),
                "status": "interrupted" if interrupted else "completed",
                **{name: counts[name] for name in sorted(counts)},
            }
            if replayed:
                manifest_entry["replayed"] = replayed
            tracer.manifest.setdefault("runtime", {}).update(manifest_entry)
        return BatchResult(
            outcomes=ordered,
            mode=mode,
            workers=self.workers if mode == "parallel" else 1,
            elapsed_seconds=elapsed,
            counters=counts,
            replayed=replayed,
            interrupted=interrupted,
            total_requests=len(all_requests),
        )

    # -- fleet routing --------------------------------------------------

    def _route_attempt(
        self, state: _RequestState, attempt: int, tracer: TracerLike
    ) -> Optional[BoardAssignment]:
        """Ask the fleet for a board before dispatching one attempt.

        Emits the ``fleet_route`` > ``predictive_gate`` spans and
        stashes the decision's counter events on the request state;
        they are recorded (and journal-attributed) when the attempt's
        report is processed.
        """
        if self.fleet is None:
            return None
        request = state.request
        assignment, events = self.fleet.route(request, attempt)
        for name, value in events.items():
            state.pending_fleet_events[name] = (
                state.pending_fleet_events.get(name, 0) + value
            )
        state.assignments[attempt] = assignment
        with tracer.span(
            "fleet_route",
            request=request.request_id,
            attempt=attempt,
            board=assignment.board_id,
            exhausted=assignment.fleet_exhausted,
            penalty=assignment.health_penalty,
            eligible=len(self.fleet.eligible_boards()),
        ):
            if not assignment.fleet_exhausted:
                with tracer.span(
                    "predictive_gate",
                    request=request.request_id,
                    board=assignment.board_id,
                    decision=assignment.gate_decision,
                    predicted=assignment.predicted_quality,
                    conditioning=assignment.conditioning,
                    threshold=self.fleet.gate.threshold,
                ):
                    pass
        return assignment

    # -- attempt bookkeeping -------------------------------------------

    def _process_report(
        self,
        state: _RequestState,
        report: AttemptReport,
        tracer: TracerLike,
        bump,
    ) -> Tuple[Optional[SolveOutcome], float]:
        """Record one attempt; returns (terminal outcome | None, retry delay).

        Every bump is mirrored into the request's own counter deltas
        (``state.batch_counters`` / ``state.trace_counters``) so the
        journal can commit, per outcome, exactly what this request
        contributed to the batch totals — the replay path re-applies
        those deltas instead of re-solving.
        """
        def record(name: str, value: float = 1, tracer_too: bool = True) -> None:
            bump(name, value, tracer_too)
            state.batch_counters[name] = state.batch_counters.get(name, 0) + value
            if tracer_too:
                state.trace_counters[name] = state.trace_counters.get(name, 0) + value

        if self.fleet is not None:
            assignment = state.assignments.get(report.attempt)
            if assignment is not None:
                # Board fail-over: an answer off a board killed while
                # the attempt was in flight is voided — the retry
                # re-routes, exactly like a killed shard's window.
                reason = self.fleet.invalidate_if_killed(assignment, report)
                if reason is not None:
                    report.status = "failed"
                    report.rung = None
                    report.solution = None
                    report.residual_norm = float("inf")
                    report.error = reason
                    state.faults.append("board_killed")
                    record("board_failovers")
                for name, value in self.fleet.observe(assignment, report).items():
                    record(name, value)
            if state.pending_fleet_events:
                for name, value in state.pending_fleet_events.items():
                    record(name, value)
                state.pending_fleet_events = {}
        escalate = self._certify_report(state, report, tracer, record)
        state.history.append(report.status)
        state.faults.extend(report.faults)
        state.last_report = report

        record("runtime_attempts")
        if report.status == "timeout":
            record("runtime_timeouts")
        if report.status == "crashed":
            record("worker_crashes")
            state.faults.append("worker_crash")
        if report.faults:
            record("runtime_faults", len(report.faults))
        # Health-layer counters emitted inside the worker reconcile into
        # the manifest/BatchResult totals; absorb() below already merges
        # them into the tracer's counters, so skip the double count.
        for name in ("seeds_rejected", "tiles_quarantined", "recalibrations"):
            value = report.counters.get(name, 0)
            if value:
                record(name, value, tracer_too=False)
        will_retry = (
            report.status != "converged"
            and not escalate
            and state.attempts_started < self.retry.max_attempts
        )
        delay = 0.0
        with tracer.span(
            "solve_attempt",
            request=state.request.request_id,
            attempt=report.attempt,
            status=report.status,
            rung=report.rung,
            elapsed=report.elapsed,
        ) as attempt_span:
            if report.spans or report.counters:
                tracer.absorb(report.spans, report.counters, report.gauges)
                for name, value in report.counters.items():
                    state.trace_counters[name] = state.trace_counters.get(name, 0) + value
                for name, value in report.gauges.items():
                    state.trace_gauges[name] = float(value)
            if will_retry:
                delay = self.retry.delay_for(
                    self.seed, state.request.request_id, state.attempts_started
                )
                record("runtime_retries")
                with tracer.span(
                    "retry",
                    request=state.request.request_id,
                    next_attempt=state.attempts_started,
                    delay=delay,
                ):
                    pass
                attempt_span.update(retry_scheduled=True)
        if will_retry:
            return None, delay
        if escalate:
            state.escalations += 1
            record("resolves_triggered")
            return self._escalate(state, tracer, bump)
        return self._commit(state, report, record), 0.0

    def _certify_report(
        self, state: _RequestState, report: AttemptReport, tracer: TracerLike, record
    ) -> bool:
        """Certify a converged attempt's answer; returns True to escalate.

        A passing certificate is attached to the report (and rides the
        outcome into the journal). A failing one voids the answer
        exactly like a killed board's, condemns the producing board
        into fleet quarantine (certified-bad silicon is quarantined
        even when its rejection/drift EWMAs look healthy), and —
        once per request — requests the escalation re-solve.
        """
        if (
            self.certify is None
            or report.status != "converged"
            or report.solution is None
        ):
            return False
        with tracer.span(
            "certify",
            request=state.request.request_id,
            attempt=report.attempt,
        ) as certify_span:
            certificate = certify_solution(
                state.request.problem,
                report.solution,
                value_bound=state.request.value_bound,
                policy=self.certify,
            )
            certify_span.update(
                verdict=certificate.verdict,
                relative_residual=certificate.relative_residual,
            )
        record("certificates_checked")
        if certificate.passed:
            record("certificates_passed")
            report.certificate = certificate
            return False
        record("certificates_failed")
        if "silent_corruption" in report.faults:
            record("corruption_caught")
        failed = ",".join(check.name for check in certificate.failed_checks())
        if self.fleet is not None:
            assignment = state.assignments.get(report.attempt)
            if (
                assignment is not None
                and assignment.board_id >= 0
                and report.rung == "hybrid"
            ):
                # Board-level blame: only a hybrid answer implicates the
                # silicon that settled it; digital answers do not.
                for name, value in self.fleet.condemn(
                    assignment.board_id, f"certificate failed ({failed})"
                ).items():
                    record(name, value)
        report.status = "failed"
        report.rung = None
        report.solution = None
        report.certificate = None
        report.residual_norm = float("inf")
        report.error = f"certificate failed ({failed})"
        state.faults.append("certificate_failed")
        return state.escalations == 0

    def _escalate(
        self, state: _RequestState, tracer: TracerLike, bump
    ) -> Tuple[Optional[SolveOutcome], float]:
        """Independent re-solve after a failed certificate.

        Runs the request through the ladder's damped-Newton rung only —
        a fully digital path that shares nothing with the implicated
        settle — on freshly-routed silicon (the condemned board is
        already quarantined, so a fleet assigns different hardware).
        The result feeds back through :meth:`_process_report`, which
        cross-checks it against the certificate again; a second failure
        falls through to the normal retry/fail path (escalation fires
        once per request).
        """
        from dataclasses import replace

        attempt, assignment = self._start_attempt(state, tracer)
        report = self._run_in_process(
            replace(state.request, rungs=("damped_newton",)),
            attempt,
            getattr(tracer, "active", False),
            assignment,
        )
        return self._process_report(state, report, tracer, bump)

    def _commit(self, state: _RequestState, report: AttemptReport, record) -> SolveOutcome:
        """Finalize the outcome and (when journaling) commit it durably."""
        status = report.status
        error = report.error
        if status == "crashed":
            status, error = "failed", "worker crashed"
        outcome = SolveOutcome(
            request_id=state.request.request_id,
            status=status,
            rung=report.rung,
            residual_norm=report.residual_norm,
            attempts=state.attempts_started,
            retries=state.attempts_started - 1,
            rungs_tried=report.rungs_tried,
            faults=tuple(state.faults),
            error=error,
            solution=report.solution,
            elapsed_seconds=report.elapsed,
            iterations=report.iterations,
            attempt_history=list(state.history),
            health=report.health,
            certificate=report.certificate,
        )
        if outcome.ok:
            record("requests_completed")
        else:
            record("requests_failed")
            if outcome.status == "timeout":
                record("requests_timed_out")
        if self.journal is not None:
            self.journal.outcome_committed(
                outcome, state.batch_counters, state.trace_counters, state.trace_gauges
            )
        self._outcomes_committed += 1
        if (
            self.crash_after_outcomes is not None
            and self._outcomes_committed >= self.crash_after_outcomes
        ):
            os._exit(9)  # chaos seam: SIGKILL right after a commit
        return outcome

    # -- attempt start, in-process execution, durability ---------------

    def _start_attempt(
        self, state: _RequestState, tracer: TracerLike
    ) -> Tuple[int, Optional[BoardAssignment]]:
        """Open the request's next attempt: count it, journal it
        (write-ahead, before any work happens), then route it."""
        attempt = state.attempts_started
        state.attempts_started += 1
        if self.journal is not None:
            self.journal.attempt_started(state.request.request_id, attempt)
        return attempt, self._route_attempt(state, attempt, tracer)

    def _run_in_process(
        self,
        request: SolveRequest,
        attempt: int,
        traced: bool,
        board: Optional[BoardAssignment],
    ) -> AttemptReport:
        """Run one attempt in this process; an injected worker crash
        becomes a ``crashed`` report instead of escaping."""
        try:
            return _execute_attempt(
                request,
                attempt,
                self.seed,
                self.faults,
                traced,
                allow_process_exit=False,
                ladder_kwargs=self.ladder_kwargs,
                degradation=self.degradation,
                board=board,
            )
        except InjectedWorkerCrash:
            return AttemptReport(
                request_id=request.request_id, attempt=attempt, status="crashed"
            )

    def _verify_replayed(self, request: SolveRequest, outcome: SolveOutcome) -> None:
        """Re-verify one journal-replayed outcome instead of trusting it.

        The stored certificate's digest must equal the digest recomputed
        from the stored solution (same policy, pure function), and the
        recomputation must still pass — anything else means the journal
        was modified after commit or solution and certificate were torn
        apart, which is corruption, not a crash mark.
        """
        if not outcome.ok or outcome.solution is None or outcome.certificate is None:
            return
        from repro.checkpoint.journal import JournalError

        recomputed = certify_solution(
            request.problem,
            outcome.solution,
            value_bound=request.value_bound,
            policy=self.certify,
        )
        if outcome.certificate.digest != recomputed.digest:
            raise JournalError(
                f"replay re-verification failed for {outcome.request_id!r}: stored "
                f"certificate digest {outcome.certificate.digest[:12]}... does not match "
                f"recomputed {recomputed.digest[:12]}..."
            )
        if not recomputed.passed:
            failed = ",".join(check.name for check in recomputed.failed_checks())
            raise JournalError(
                f"replay re-verification failed for {outcome.request_id!r}: committed "
                f"solution no longer certifies ({failed})"
            )

    @staticmethod
    def _check_shutdown(shutdown: Optional[GracefulShutdown]) -> None:
        if shutdown is not None and shutdown.requested:
            raise RunInterrupted("shutdown requested")

    # -- serial execution ----------------------------------------------

    def _run_serial_window(
        self,
        window: List[SolveRequest],
        tracer: TracerLike,
        bump,
        outcomes: Dict[str, SolveOutcome],
        shutdown: Optional[GracefulShutdown] = None,
    ) -> Dict[str, SolveOutcome]:
        for request in window:
            state = _RequestState(request)
            while True:
                self._check_shutdown(shutdown)
                attempt, assignment = self._start_attempt(state, tracer)
                report = self._run_in_process(
                    request, attempt, getattr(tracer, "active", False), assignment
                )
                outcome, delay = self._process_report(state, report, tracer, bump)
                if outcome is not None:
                    outcomes[request.request_id] = outcome
                    break
                if delay > 0:
                    time.sleep(delay)
        return outcomes

    # -- pooled execution ----------------------------------------------

    def _run_pooled_window(
        self,
        window: List[SolveRequest],
        tracer: TracerLike,
        bump,
        outcomes: Dict[str, SolveOutcome],
        shutdown: Optional[GracefulShutdown] = None,
    ) -> str:
        """Fan a window over a process pool; degrade to serial if denied.

        Sandboxes without fork/semaphores refuse pools (the same
        posture as :func:`repro.experiments.parallel.run_parallel_sweep`)
        — the window then runs serially with identical results.

        A Ctrl-C or shutdown request mid-window terminates the pool's
        worker processes before propagating: an interrupted parent must
        never leave orphaned workers grinding on abandoned attempts.
        """
        try:
            executor = concurrent.futures.ProcessPoolExecutor(max_workers=self.workers)
        except Exception:
            self._run_serial_window(window, tracer, bump, outcomes, shutdown)
            return "serial"
        try:
            self._pooled_loop(window, executor, tracer, bump, outcomes, shutdown)
            return "parallel"
        except (KeyboardInterrupt, RunInterrupted, PoolBroken):
            for process in list(getattr(executor, "_processes", {}).values()):
                try:
                    process.terminate()
                except Exception:
                    pass
            raise
        finally:
            # wait=False: abandoned (hung) attempts may still be
            # sleeping; their processes exit once they finish.
            executor.shutdown(wait=False)

    def _pooled_loop(
        self,
        window: List[SolveRequest],
        executor: concurrent.futures.ProcessPoolExecutor,
        tracer: TracerLike,
        bump,
        outcomes: Dict[str, SolveOutcome],
        shutdown: Optional[GracefulShutdown] = None,
    ) -> Dict[str, SolveOutcome]:
        """Supervise one window on the pool until every request is terminal.

        A worker crash breaks the whole pool (every in-flight future
        raises). The supervisor charges each in-flight request one
        crashed attempt and **degrades the remainder of the window to
        in-process execution** — forking a replacement pool after an
        abrupt process death is exactly the kind of cleverness that
        deadlocks under load, so the policy is the same as everywhere
        else in this repo: degrade, don't gamble. The retry policy then
        completes the batch; nothing is lost, and the degradation is
        visible as the ``pool_degraded`` counter.
        """
        states = {request.request_id: _RequestState(request) for request in window}
        # (request_id, ready_at) admission list, submission order.
        pending: List[Tuple[str, float]] = [(request.request_id, 0.0) for request in window]
        in_flight: Dict[concurrent.futures.Future, Tuple[str, int, Optional[float]]] = {}
        traced = getattr(tracer, "active", False)
        pooled = True  # flips False once the pool breaks

        def handle(state: _RequestState, report: AttemptReport) -> None:
            outcome, delay = self._process_report(state, report, tracer, bump)
            if outcome is not None:
                outcomes[state.request.request_id] = outcome
            else:
                pending.append((state.request.request_id, time.monotonic() + delay))

        def degrade(first_crashed: List[Tuple[str, int]]) -> None:
            nonlocal pooled
            if self.on_pool_break == "fail":
                # Service-shard posture: the crashed/in-flight attempts
                # stay uncommitted in the journal (attempt_started with
                # no outcome), which is exactly what a supervisor's
                # journal-replay fail-over needs to re-route them.
                bump("pool_broken")
                raise PoolBroken(
                    f"process pool died with {len(first_crashed) + len(in_flight)} "
                    "attempt(s) in flight"
                )
            pooled = False
            bump("pool_degraded")
            crashed = list(first_crashed)
            crashed.extend(
                (request_id, attempt)
                for request_id, attempt, _watchdog in in_flight.values()
            )
            in_flight.clear()
            for request_id, attempt in crashed:
                handle(
                    states[request_id],
                    AttemptReport(request_id=request_id, attempt=attempt, status="crashed"),
                )

        while pending or in_flight:
            self._check_shutdown(shutdown)
            now = time.monotonic()
            # Admit ready work up to pool width (or inline once degraded).
            still_waiting: List[Tuple[str, float]] = []
            for request_id, ready_at in pending:
                if ready_at > now or (pooled and len(in_flight) >= self.workers):
                    still_waiting.append((request_id, ready_at))
                    continue
                state = states[request_id]
                attempt, assignment = self._start_attempt(state, tracer)
                if not pooled:
                    handle(state, self._run_in_process(state.request, attempt, traced, assignment))
                    continue
                try:
                    future = executor.submit(
                        _execute_attempt,
                        state.request,
                        attempt,
                        self.seed,
                        self.faults,
                        traced,
                        True,
                        self.ladder_kwargs,
                        self.degradation,
                        assignment,
                    )
                except concurrent.futures.BrokenExecutor:
                    # The pool broke between polls; this submission is
                    # the first to notice.
                    degrade([(request_id, attempt)])
                    continue
                deadline_s = state.request.deadline_seconds
                watchdog_at = (
                    now + deadline_s * _DEADLINE_GRACE_FACTOR + _DEADLINE_GRACE_FLOOR
                    if deadline_s is not None
                    else None
                )
                in_flight[future] = (request_id, attempt, watchdog_at)
            pending[:] = still_waiting

            if not in_flight:
                if pending:
                    next_ready = min(ready_at for _, ready_at in pending)
                    time.sleep(max(0.0, min(next_ready - time.monotonic(), 0.1)))
                continue

            done, _ = concurrent.futures.wait(
                list(in_flight),
                timeout=_POLL_INTERVAL_S,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            crashed: List[Tuple[str, int]] = []
            for future in done:
                request_id, attempt, _watchdog = in_flight.pop(future)
                try:
                    report = future.result()
                except concurrent.futures.BrokenExecutor:
                    crashed.append((request_id, attempt))
                    continue
                except Exception as exc:
                    # A result that cannot be returned (pickling, worker
                    # bug) is a failed attempt, not a lost request.
                    report = AttemptReport(
                        request_id=request_id,
                        attempt=attempt,
                        status="failed",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                handle(states[request_id], report)

            if crashed:
                degrade(crashed)
                continue

            # Parent-side watchdog: abandon attempts wedged past their
            # deadline grace; the worker's eventual result is discarded.
            now = time.monotonic()
            for future, (request_id, attempt, watchdog_at) in list(in_flight.items()):
                if watchdog_at is not None and now >= watchdog_at and not future.done():
                    del in_flight[future]
                    handle(
                        states[request_id],
                        AttemptReport(
                            request_id=request_id,
                            attempt=attempt,
                            status="timeout",
                            error="deadline exceeded (watchdog; attempt abandoned)",
                        ),
                    )
        return outcomes
