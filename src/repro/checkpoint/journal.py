"""Write-ahead journal for batch solve runs.

The :class:`~repro.runtime.runtime.Runtime` is a retry loop around
expensive solves; a crash mid-batch used to lose every completed
outcome. The journal fixes that with the classic write-ahead
discipline: *append a record before acting, commit results as soon as
they are terminal*. One JSONL file per batch, every record flushed and
fsynced, every record carrying its own content hash.

Record kinds, in the order a healthy run emits them:

``batch_started``
    The full runtime configuration (seed, workers, retry policy, fault
    plan, degradation model) plus the batch id — everything needed to
    rebuild an *identical* runtime for resume.
``request_accepted``
    One per admitted request, in submission order, with the complete
    :class:`~repro.runtime.api.SolveRequest` serialization.
``attempt_started``
    Appended before each attempt executes (the write-ahead part): a
    crash after this record but before a commit marks the request
    in-flight, and resume re-runs it from attempt 0 — safe because
    every random stream an attempt consumes is keyed by
    ``stable_seed(seed, request_id, attempt, ...)``, so the re-run
    reproduces the interrupted attempt sequence bitwise.
``outcome_committed``
    The terminal :class:`~repro.runtime.api.SolveOutcome` (solution
    array included, base64 raw bytes) plus the per-request counter
    deltas it contributed to ``BatchResult.counters`` and to the
    tracer — replay re-applies these so a resumed batch's counters
    equal an uninterrupted run's.
``batch_interrupted`` / ``batch_completed``
    Terminal batch markers (graceful shutdown writes the former).
``batch_resumed``
    Appended by a resuming process before it continues the batch.

Reading tolerates a torn final line — that is simply where the crash
landed — but a hash or parse failure on any *earlier* record is real
corruption and raises :class:`JournalError`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.checkpoint.atomic import (
    atomic_write_text,
    decode_array,
    encode_array,
    payload_digest,
)

__all__ = [
    "JOURNAL_SCHEMA",
    "JournalError",
    "BatchJournal",
    "JournalReplay",
    "read_journal",
    "request_to_record",
    "request_from_record",
    "outcome_to_record",
    "outcome_from_record",
    "runtime_config_record",
    "runtime_from_config",
]

JOURNAL_SCHEMA = 1

PathLike = Union[str, Path]


class JournalError(ValueError):
    """A journal failed validation somewhere other than its torn tail."""


def _tuplify(value: Any) -> Any:
    """JSON round-trips tuples as lists; problem params need them back."""
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value


# ---------------------------------------------------------------------------
# Object <-> record serialization
# ---------------------------------------------------------------------------


def request_to_record(request: "SolveRequest") -> Dict[str, Any]:
    return {
        "request_id": request.request_id,
        "problem": {"kind": request.problem.kind, "params": [list(pair) for pair in request.problem.params]},
        "deadline_seconds": request.deadline_seconds,
        "rungs": None if request.rungs is None else list(request.rungs),
        "value_bound": request.value_bound,
        "analog_time_limit": request.analog_time_limit,
    }


def request_from_record(record: Dict[str, Any]) -> "SolveRequest":
    from repro.runtime.api import ProblemSpec, SolveRequest

    problem = ProblemSpec(
        kind=record["problem"]["kind"],
        params=tuple((key, _tuplify(value)) for key, value in record["problem"]["params"]),
    )
    rungs = record.get("rungs")
    return SolveRequest(
        request_id=record["request_id"],
        problem=problem,
        deadline_seconds=record.get("deadline_seconds"),
        rungs=None if rungs is None else tuple(rungs),
        value_bound=record.get("value_bound", 3.0),
        analog_time_limit=record.get("analog_time_limit", 60.0),
    )


def outcome_to_record(outcome: "SolveOutcome") -> Dict[str, Any]:
    return {
        "request_id": outcome.request_id,
        "status": outcome.status,
        "rung": outcome.rung,
        "residual_norm": outcome.residual_norm,
        "attempts": outcome.attempts,
        "retries": outcome.retries,
        "rungs_tried": list(outcome.rungs_tried),
        "faults": list(outcome.faults),
        "error": outcome.error,
        "solution": None if outcome.solution is None else encode_array(outcome.solution),
        "elapsed_seconds": outcome.elapsed_seconds,
        "iterations": outcome.iterations,
        "attempt_history": list(outcome.attempt_history),
        "health": outcome.health,
        "certificate": (
            None if outcome.certificate is None else outcome.certificate.to_record()
        ),
    }


def outcome_from_record(record: Dict[str, Any]) -> "SolveOutcome":
    from repro.runtime.api import SolveOutcome

    solution = record.get("solution")
    certificate = record.get("certificate")
    if certificate is not None:
        from repro.certify.certificate import SolveCertificate

        certificate = SolveCertificate.from_record(certificate)
    return SolveOutcome(
        request_id=record["request_id"],
        status=record["status"],
        rung=record.get("rung"),
        residual_norm=record.get("residual_norm", float("inf")),
        attempts=record.get("attempts", 1),
        retries=record.get("retries", 0),
        rungs_tried=tuple(record.get("rungs_tried") or ()),
        faults=tuple(record.get("faults") or ()),
        error=record.get("error"),
        solution=None if solution is None else decode_array(solution),
        elapsed_seconds=record.get("elapsed_seconds", 0.0),
        iterations=record.get("iterations", 0),
        attempt_history=list(record.get("attempt_history") or []),
        health=record.get("health"),
        certificate=certificate,
    )


def runtime_config_record(runtime: "Runtime") -> Dict[str, Any]:
    """Everything needed to rebuild an identical runtime for resume."""
    faults = None
    if runtime.faults is not None:
        faults = {
            "seed": runtime.faults.seed,
            "rates": [list(pair) for pair in runtime.faults.rates],
            "specs": [
                {
                    "kind": spec.kind,
                    "request_id": spec.request_id,
                    "attempt": spec.attempt,
                    "magnitude": spec.magnitude,
                }
                for spec in runtime.faults.specs
            ],
        }
    degradation = None
    if runtime.degradation is not None:
        model = runtime.degradation
        degradation = {
            "gain_drift_sigma": model.gain_drift_sigma,
            "offset_drift_sigma": model.offset_drift_sigma,
            "gain_drift_bias": model.gain_drift_bias,
            "stuck_tile_rate": model.stuck_tile_rate,
            "dead_dac_rate": model.dead_dac_rate,
            "stuck_tiles": list(model.stuck_tiles),
            "dead_dacs": list(model.dead_dacs),
            "seed": model.seed,
        }
    ladder_kwargs = runtime.ladder_kwargs
    if ladder_kwargs is not None:
        try:  # only JSON-able ladder options survive a journal round trip
            ladder_kwargs = json.loads(json.dumps(ladder_kwargs))
        except (TypeError, ValueError):
            ladder_kwargs = None
    fleet_config = getattr(runtime, "fleet_config", None)
    certify = getattr(runtime, "certify", None)
    return {
        "seed": runtime.seed,
        "workers": runtime.workers,
        "queue_limit": runtime.queue_limit,
        "retry": {
            "max_attempts": runtime.retry.max_attempts,
            "base_delay": runtime.retry.base_delay,
            "max_delay": runtime.retry.max_delay,
            "jitter": runtime.retry.jitter,
        },
        "faults": faults,
        "degradation": degradation,
        "ladder_kwargs": ladder_kwargs,
        "fleet": fleet_config.to_record() if fleet_config is not None else None,
        "certify": certify.to_record() if certify is not None else None,
    }


def runtime_from_config(config: Dict[str, Any], **overrides: Any) -> "Runtime":
    """Rebuild a :class:`~repro.runtime.runtime.Runtime` from a
    ``batch_started`` config record (``overrides`` win, e.g. a fresh
    journal handle or a shutdown latch)."""
    from repro.analog.health import DegradationModel
    from repro.runtime.api import RetryPolicy
    from repro.runtime.faults import FaultInjector, FaultSpec
    from repro.runtime.runtime import Runtime

    faults = None
    if config.get("faults") is not None:
        raw = config["faults"]
        faults = FaultInjector(
            specs=tuple(
                FaultSpec(
                    kind=spec["kind"],
                    request_id=spec.get("request_id"),
                    attempt=spec.get("attempt"),
                    magnitude=spec.get("magnitude"),
                )
                for spec in raw.get("specs", [])
            ),
            rates=tuple((kind, rate) for kind, rate in raw.get("rates", [])),
            seed=raw.get("seed", 0),
        )
    degradation = None
    if config.get("degradation") is not None:
        raw = dict(config["degradation"])
        raw["stuck_tiles"] = tuple(raw.get("stuck_tiles") or ())
        raw["dead_dacs"] = tuple(raw.get("dead_dacs") or ())
        degradation = DegradationModel(**raw)
    fleet = None
    if config.get("fleet") is not None:
        from repro.fleet.scheduler import FleetConfig

        fleet = FleetConfig.from_record(config["fleet"])
    certify = None
    if config.get("certify") is not None:
        from repro.certify.certificate import CertifyPolicy

        certify = CertifyPolicy.from_record(config["certify"])
    kwargs: Dict[str, Any] = {
        "workers": config.get("workers", 1),
        "queue_limit": config.get("queue_limit", 256),
        "retry": RetryPolicy(**config.get("retry", {})),
        "seed": config.get("seed", 0),
        "faults": faults,
        "ladder_kwargs": config.get("ladder_kwargs"),
        "degradation": degradation,
        "fleet": fleet,
        "certify": certify,
    }
    kwargs.update(overrides)
    return Runtime(**kwargs)


# ---------------------------------------------------------------------------
# Write side
# ---------------------------------------------------------------------------


class BatchJournal:
    """Append-only, fsync-per-record JSONL journal for one batch run.

    Records cannot be renamed into place (the file grows), so
    durability is per line: serialize, write, flush, ``os.fsync``. Each
    record embeds a SHA-256 of its own content; the reader uses it to
    distinguish a torn tail (expected after a crash) from corruption.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._handle = None
        self._seq = 0

    @classmethod
    def resume(cls, replay: "JournalReplay") -> "BatchJournal":
        """A journal handle continuing an existing file's sequence.

        If the file ends in a torn record (the crash point), the valid
        prefix is rewritten atomically first — appending after a torn
        tail would leave invalid JSON *mid*-file, which readers rightly
        treat as corruption rather than a crash mark.
        """
        if replay.truncated:
            atomic_write_text(replay.path, "\n".join(replay.raw_lines) + "\n")
        journal = cls(replay.path)
        journal._seq = replay.next_seq
        return journal

    @property
    def records_written(self) -> int:
        return self._seq

    def open(self) -> "BatchJournal":
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        return self

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "BatchJournal":
        return self.open()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def append(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Durably append one record; returns it (with seq + hash)."""
        self.open()
        record = {"kind": kind, "seq": self._seq, **fields}
        record["sha256"] = payload_digest(record)
        self._handle.write(json.dumps(record, allow_nan=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._seq += 1
        return record

    # -- record kinds ---------------------------------------------------

    def batch_started(self, runtime: "Runtime", batch_id: str, requests: int) -> None:
        self.append(
            "batch_started",
            schema=JOURNAL_SCHEMA,
            batch_id=batch_id,
            requests=requests,
            config=runtime_config_record(runtime),
        )

    def request_accepted(self, request: "SolveRequest") -> None:
        self.append("request_accepted", request=request_to_record(request))

    def attempt_started(self, request_id: str, attempt: int) -> None:
        self.append("attempt_started", request_id=request_id, attempt=attempt)

    def outcome_committed(
        self,
        outcome: "SolveOutcome",
        batch_counters: Dict[str, float],
        trace_counters: Dict[str, float],
        trace_gauges: Dict[str, float],
    ) -> None:
        self.append(
            "outcome_committed",
            request_id=outcome.request_id,
            outcome=outcome_to_record(outcome),
            batch_counters=dict(batch_counters),
            trace_counters=dict(trace_counters),
            trace_gauges=dict(trace_gauges),
        )

    def batch_resumed(self, replayed: int, pending: int) -> None:
        self.append("batch_resumed", replayed=replayed, pending=pending)

    def batch_interrupted(self, reason: str) -> None:
        self.append("batch_interrupted", reason=reason)

    def batch_completed(self, completed: int, failed: int) -> None:
        self.append("batch_completed", completed=completed, failed=failed)


# ---------------------------------------------------------------------------
# Read / replay side
# ---------------------------------------------------------------------------


@dataclass
class JournalReplay:
    """A parsed journal, digested into resume decisions.

    ``outcomes`` maps request id to its ``outcome_committed`` record
    (outcome + counter deltas); ``requests`` preserves acceptance
    order. A request with an accepted record but no committed outcome
    was in flight when the run died — resume re-runs it from attempt 0.
    """

    path: Path
    records: List[Dict[str, Any]] = field(default_factory=list)
    raw_lines: List[str] = field(default_factory=list)
    truncated: bool = False
    config: Optional[Dict[str, Any]] = None
    batch_id: Optional[str] = None
    requests: List["SolveRequest"] = field(default_factory=list)
    outcomes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    attempts_started: Dict[str, int] = field(default_factory=dict)
    interrupted: bool = False
    completed: bool = False
    resumes: int = 0

    @property
    def next_seq(self) -> int:
        return len(self.records)

    def pending_requests(self) -> List["SolveRequest"]:
        """Accepted requests with no committed outcome (re-run these)."""
        return [
            request
            for request in self.requests
            if request.request_id not in self.outcomes
        ]

    def replayed_outcome(self, request_id: str) -> Optional[Tuple["SolveOutcome", Dict[str, float], Dict[str, float], Dict[str, float]]]:
        record = self.outcomes.get(request_id)
        if record is None:
            return None
        return (
            outcome_from_record(record["outcome"]),
            dict(record.get("batch_counters") or {}),
            dict(record.get("trace_counters") or {}),
            dict(record.get("trace_gauges") or {}),
        )

    def build_runtime(self, **overrides: Any) -> "Runtime":
        if self.config is None:
            raise JournalError(f"{self.path}: no batch_started record; cannot rebuild runtime")
        return runtime_from_config(self.config, **overrides)


def read_journal(path: PathLike) -> JournalReplay:
    """Parse a batch journal, tolerating (and flagging) a torn tail.

    The final line is allowed to be torn or hash-corrupt — that is the
    crash point, reported via ``replay.truncated``. Any earlier invalid
    record means the file was damaged after the fact and raises
    :class:`JournalError`; a resume must not silently skip history.
    """
    path = Path(path)
    replay = JournalReplay(path=path)
    lines = [
        (number, line)
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if line.strip()
    ]
    for position, (number, line) in enumerate(lines):
        is_last = position == len(lines) - 1
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise JournalError(f"{path}:{number}: journal record is not an object")
            expected = record.pop("sha256", None)
            if expected != payload_digest(record):
                raise JournalError(f"{path}:{number}: journal record hash mismatch")
        except json.JSONDecodeError as exc:
            if is_last:
                replay.truncated = True
                break
            raise JournalError(f"{path}:{number}: invalid journal record: {exc}") from exc
        except JournalError:
            if is_last:
                replay.truncated = True
                break
            raise
        replay.records.append(record)
        replay.raw_lines.append(line)
        kind = record.get("kind")
        if kind == "batch_started":
            replay.config = record.get("config")
            replay.batch_id = record.get("batch_id")
        elif kind == "request_accepted":
            try:
                request = request_from_record(record["request"])
            except ValueError as exc:  # e.g. a problem kind this build does not serve
                raise JournalError(f"{path}:{number}: {exc}") from exc
            if all(r.request_id != request.request_id for r in replay.requests):
                replay.requests.append(request)
        elif kind == "attempt_started":
            request_id = record["request_id"]
            replay.attempts_started[request_id] = (
                replay.attempts_started.get(request_id, 0) + 1
            )
        elif kind == "outcome_committed":
            replay.outcomes[record["request_id"]] = record
        elif kind == "batch_resumed":
            replay.resumes += 1
            replay.interrupted = False
        elif kind == "batch_interrupted":
            replay.interrupted = True
        elif kind == "batch_completed":
            replay.completed = True
    return replay
