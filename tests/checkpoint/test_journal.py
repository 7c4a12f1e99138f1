"""Write-ahead batch journal: record integrity, torn-tail tolerance,
and crash-resumed batches replaying bitwise-identically."""

import json

import numpy as np
import pytest

from repro.analog.health import DegradationModel
from repro.checkpoint import BatchJournal, JournalError, read_journal
from repro.runtime import (
    FaultInjector,
    ProblemSpec,
    RetryPolicy,
    Runtime,
    SolveRequest,
)
from repro.trace.tracer import Tracer


def _requests(count=5):
    # analog_time_limit bounds the simulated settle so journal tests
    # never become the slowest thing in the suite (see test_chaos).
    return [
        SolveRequest(
            f"req-{i:04d}",
            ProblemSpec.quadratic(rhs0=1.0 + 0.1 * i),
            analog_time_limit=1e-3,
        )
        for i in range(count)
    ]


def _runtime(journal=None, **overrides):
    kwargs = dict(
        workers=1,
        seed=11,
        retry=RetryPolicy(max_attempts=2, base_delay=0.001, max_delay=0.002),
        degradation=DegradationModel(offset_drift_sigma=0.05, seed=7),
        journal=journal,
    )
    kwargs.update(overrides)
    return Runtime(**kwargs)


def _truncate_after_outcomes(path, keep, torn_tail=True):
    """Rewrite the journal as if the process died after ``keep``
    committed outcomes, optionally mid-append of the next record."""
    lines = path.read_text().splitlines()
    outcome_positions = [
        i for i, line in enumerate(lines) if json.loads(line)["kind"] == "outcome_committed"
    ]
    cut = outcome_positions[keep]
    text = "\n".join(lines[:cut]) + "\n"
    if torn_tail:
        text += lines[cut][: len(lines[cut]) // 2] + "\n"
    path.write_text(text)


def _assert_outcomes_bitwise_equal(a, b):
    assert len(a) == len(b)
    for oa, ob in zip(a, b):
        assert oa.request_id == ob.request_id
        assert oa.status == ob.status
        assert oa.rung == ob.rung
        assert oa.attempts == ob.attempts
        assert oa.retries == ob.retries
        assert oa.residual_norm == ob.residual_norm
        assert oa.faults == ob.faults
        assert oa.attempt_history == ob.attempt_history
        assert oa.health == ob.health
        if oa.solution is None:
            assert ob.solution is None
        else:
            assert oa.solution.tobytes() == ob.solution.tobytes()


class TestJournalFile:
    def test_records_are_hash_stamped_and_ordered(self, tmp_path):
        journal = BatchJournal(tmp_path / "b.journal")
        runtime = _runtime(journal=journal)
        runtime.run_batch(_requests(3))
        journal.close()
        replay = read_journal(tmp_path / "b.journal")
        assert not replay.truncated
        assert replay.completed
        kinds = [record["kind"] for record in replay.records]
        assert kinds[0] == "batch_started"
        assert kinds[-1] == "batch_completed"
        assert kinds.count("request_accepted") == 3
        assert kinds.count("outcome_committed") == 3
        # every attempt was journaled before its outcome committed
        assert kinds.index("attempt_started") < kinds.index("outcome_committed")
        seqs = [record["seq"] for record in replay.records]
        assert seqs == sorted(seqs)

    def test_config_is_journaled_once_per_file(self, tmp_path):
        """Batches after the first on one journal handle (a service
        shard's windows) do not repeat the runtime config."""
        path = tmp_path / "b.journal"
        journal = BatchJournal(path)
        runtime = _runtime(journal=journal)
        requests = _requests(3)
        for request in requests:
            runtime.run_batch([request])
        journal.close()
        replay = read_journal(path)
        kinds = [record["kind"] for record in replay.records]
        assert kinds[0] == "batch_started"
        assert kinds.count("batch_started") == 1
        assert kinds.count("batch_completed") == 3
        assert replay.config == json.loads(path.read_text().splitlines()[0])["config"]
        assert set(replay.outcomes) == {request.request_id for request in requests}

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "b.journal"
        runtime = _runtime(journal=BatchJournal(path))
        runtime.run_batch(_requests(3))
        runtime.journal.close()
        _truncate_after_outcomes(path, keep=2, torn_tail=True)
        replay = read_journal(path)
        assert replay.truncated
        assert len(replay.outcomes) == 2
        assert [r.request_id for r in replay.pending_requests()] == ["req-0002"]

    def test_corruption_before_the_tail_raises(self, tmp_path):
        path = tmp_path / "b.journal"
        runtime = _runtime(journal=BatchJournal(path))
        runtime.run_batch(_requests(3))
        runtime.journal.close()
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:-20] + "}"  # mangle an interior record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError):
            read_journal(path)

    def test_resume_rewrites_torn_tail(self, tmp_path):
        path = tmp_path / "b.journal"
        runtime = _runtime(journal=BatchJournal(path))
        runtime.run_batch(_requests(3))
        runtime.journal.close()
        _truncate_after_outcomes(path, keep=1, torn_tail=True)
        replay = read_journal(path)
        resumed = BatchJournal.resume(replay)
        resumed.close()
        # The torn line is gone; the file is valid end to end again.
        again = read_journal(path)
        assert not again.truncated
        assert len(again.records) == len(replay.records)


class TestCrashedBatchResume:
    def test_resumed_batch_is_bitwise_identical(self, tmp_path):
        """Kill after K outcomes, resume from the journal: outcomes,
        batch counters and trace counters all match the uninterrupted
        run exactly — completed work replays without re-solving."""
        path = tmp_path / "b.journal"
        tracer_ref = Tracer()
        reference = _runtime(journal=BatchJournal(path)).run_batch(
            _requests(), tracer=tracer_ref
        )

        _truncate_after_outcomes(path, keep=2)
        replay = read_journal(path)
        assert len(replay.outcomes) == 2

        tracer_res = Tracer()
        runtime = replay.build_runtime(journal=BatchJournal.resume(replay))
        resumed = runtime.run_batch(replay.requests, tracer=tracer_res, resume=replay)
        runtime.journal.close()

        assert resumed.replayed == 2
        _assert_outcomes_bitwise_equal(reference.outcomes, resumed.outcomes)
        assert reference.counters == resumed.counters
        assert tracer_ref.counters == tracer_res.counters

        final = read_journal(path)
        assert final.completed
        assert final.resumes == 1

    def test_runtime_config_round_trips_through_journal(self, tmp_path):
        path = tmp_path / "b.journal"
        original = _runtime(
            journal=BatchJournal(path),
            faults=FaultInjector.from_rates({"analog_spike": 0.25}, seed=3),
        )
        original.run_batch(_requests(2))
        original.journal.close()
        rebuilt = read_journal(path).build_runtime()
        assert rebuilt.seed == original.seed
        assert rebuilt.workers == original.workers
        assert rebuilt.retry == original.retry
        assert rebuilt.faults.rates == original.faults.rates
        assert rebuilt.faults.seed == original.faults.seed
        assert rebuilt.degradation.offset_drift_sigma == 0.05

    def test_config_with_retired_poll_interval_still_rebuilds(self):
        # Journals written before the pooled poll became a module
        # constant carry a "poll_interval" key; resume must ignore it.
        from repro.checkpoint.journal import runtime_config_record, runtime_from_config

        config = runtime_config_record(_runtime())
        assert "poll_interval" not in config
        rebuilt = runtime_from_config({**config, "poll_interval": 0.5})
        assert isinstance(rebuilt, Runtime)
        assert rebuilt.seed == 11
        assert rebuilt.retry == _runtime().retry

    def test_journal_with_retired_queue_limit_resumes(self, tmp_path):
        # Journals written while the runtime still had its own admission
        # queue record a "queue_limit" key in batch_started; resume
        # ignores it and still replays bitwise-identically.
        from repro.checkpoint.atomic import payload_digest

        path = tmp_path / "b.journal"
        reference = _runtime(journal=BatchJournal(path)).run_batch(_requests())
        _truncate_after_outcomes(path, keep=2)
        lines = path.read_text().splitlines()
        started = json.loads(lines[0])
        assert started["kind"] == "batch_started"
        assert "queue_limit" not in started["config"]
        started.pop("sha256")
        started["config"]["queue_limit"] = 256
        started["sha256"] = payload_digest(started)
        path.write_text("\n".join([json.dumps(started)] + lines[1:]) + "\n")

        replay = read_journal(path)
        assert replay.config["queue_limit"] == 256
        runtime = replay.build_runtime(journal=BatchJournal.resume(replay))
        resumed = runtime.run_batch(replay.requests, resume=replay)
        runtime.journal.close()
        assert resumed.replayed == 2
        _assert_outcomes_bitwise_equal(reference.outcomes, resumed.outcomes)
        assert reference.counters == resumed.counters

    def test_journal_with_retired_fleet_settings_resumes(self, tmp_path):
        # Journals written while the fleet's EWMA smoothing and gate
        # weights were settings record them in the fleet config; resume
        # ignores them and still replays bitwise-identically.
        from repro.checkpoint.atomic import payload_digest
        from repro.fleet import FleetConfig

        path = tmp_path / "b.journal"
        # One board: routing cannot depend on fleet state the resumed
        # runtime rebuilds from scratch.
        fleet = FleetConfig(boards=1)
        reference = _runtime(journal=BatchJournal(path), fleet=fleet).run_batch(
            _requests()
        )
        _truncate_after_outcomes(path, keep=2)
        lines = path.read_text().splitlines()
        started = json.loads(lines[0])
        assert "ewma_alpha" not in started["config"]["fleet"]
        started.pop("sha256")
        started["config"]["fleet"]["ewma_alpha"] = 0.5
        started["config"]["fleet"]["gate"].update(rejection_weight=2.0, drift_weight=4.0)
        started["sha256"] = payload_digest(started)
        path.write_text("\n".join([json.dumps(started)] + lines[1:]) + "\n")

        replay = read_journal(path)
        runtime = replay.build_runtime(journal=BatchJournal.resume(replay))
        assert runtime.fleet_config == fleet
        resumed = runtime.run_batch(replay.requests, resume=replay)
        runtime.journal.close()
        assert resumed.replayed == 2
        _assert_outcomes_bitwise_equal(reference.outcomes, resumed.outcomes)
        assert reference.counters == resumed.counters

    def test_degradation_health_rides_the_journal(self, tmp_path):
        """Board aging (drift walks, step counts) must continue from
        where the crashed run left off, not restart from a fresh board."""
        path = tmp_path / "b.journal"
        reference = _runtime(journal=BatchJournal(path)).run_batch(_requests())
        assert any(outcome.health for outcome in reference.outcomes)

        _truncate_after_outcomes(path, keep=3)
        replay = read_journal(path)
        runtime = replay.build_runtime(journal=BatchJournal.resume(replay))
        resumed = runtime.run_batch(replay.requests, resume=replay)
        runtime.journal.close()
        for ref_outcome, res_outcome in zip(reference.outcomes, resumed.outcomes):
            assert ref_outcome.health == res_outcome.health

    def test_resume_does_not_readmit_committed_requests(self, tmp_path):
        """Admission is exactly-once across journal replay: a resumed
        batch must not re-journal ``request_accepted`` for ids the
        prior run already accepted, nor re-commit outcomes it replays —
        one accepted record and one committed outcome per id, end to
        end, no matter where the crash fell."""
        path = tmp_path / "b.journal"
        _runtime(journal=BatchJournal(path)).run_batch(_requests())

        _truncate_after_outcomes(path, keep=2)
        replay = read_journal(path)
        runtime = replay.build_runtime(journal=BatchJournal.resume(replay))
        resumed = runtime.run_batch(replay.requests, resume=replay)
        runtime.journal.close()
        assert resumed.replayed == 2

        final = read_journal(path)
        accepted: dict = {}
        committed: dict = {}
        for record in final.records:
            if record["kind"] == "request_accepted":
                rid = record["request"]["request_id"]
                accepted[rid] = accepted.get(rid, 0) + 1
            elif record["kind"] == "outcome_committed":
                rid = record["request_id"]
                committed[rid] = committed.get(rid, 0) + 1
        expected = {f"req-{i:04d}": 1 for i in range(5)}
        assert accepted == expected
        assert committed == expected

    def test_resume_with_nothing_pending_only_replays(self, tmp_path):
        path = tmp_path / "b.journal"
        reference = _runtime(journal=BatchJournal(path)).run_batch(_requests(3))

        # Crash *after* the last outcome but before batch_completed.
        lines = path.read_text().splitlines()
        assert json.loads(lines[-1])["kind"] == "batch_completed"
        path.write_text("\n".join(lines[:-1]) + "\n")

        replay = read_journal(path)
        runtime = replay.build_runtime(journal=BatchJournal.resume(replay))
        resumed = runtime.run_batch(replay.requests, resume=replay)
        runtime.journal.close()
        assert resumed.replayed == 3
        _assert_outcomes_bitwise_equal(reference.outcomes, resumed.outcomes)
        assert read_journal(path).completed
