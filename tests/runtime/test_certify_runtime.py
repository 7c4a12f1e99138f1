"""Runtime-level certification: the observer property, the escalation
path under injected silent corruption, and replay re-verification.

The chaos-marked class is the acceptance scenario the issue names: a
corruption injected at a known ``(request_id, attempt)`` must fail its
certificate, trigger a re-solve on *different* silicon, leave exactly
one terminal outcome per request in the journal, and put the blamed
board in quarantine — while the batch still delivers the correct
certified answer."""

import json

import numpy as np
import pytest

from repro.certify import CertifyPolicy
from repro.checkpoint import BatchJournal, JournalError, read_journal
from repro.fleet import FleetConfig
from repro.runtime import (
    FaultInjector,
    FaultSpec,
    ProblemSpec,
    RetryPolicy,
    Runtime,
    SolveRequest,
)

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0, jitter=0.0)


def _requests(n, prefix="cr"):
    return [
        SolveRequest(
            f"{prefix}-{i:04d}",
            ProblemSpec.quadratic(1.0 + 0.05 * i, 1.0),
            analog_time_limit=0.5,
        )
        for i in range(n)
    ]


def _run(certify, requests=None, **kwargs):
    runtime = Runtime(
        workers=1, retry=FAST_RETRY, seed=0, certify=certify, **kwargs
    )
    return runtime.run_batch(requests if requests is not None else _requests(4))


class TestCertifyObserver:
    def test_certified_run_is_bitwise_identical_to_uncertified(self):
        plain = _run(certify=None)
        certified = _run(certify=True)
        assert [o.request_id for o in plain.outcomes] == [
            o.request_id for o in certified.outcomes
        ]
        for a, b in zip(plain.outcomes, certified.outcomes):
            assert a.status == b.status == "converged"
            assert a.solution.tobytes() == b.solution.tobytes()
            assert a.attempts == b.attempts
            assert a.rung == b.rung

    def test_certificates_attached_and_passing_on_clean_run(self):
        result = _run(certify=True)
        for outcome in result.outcomes:
            assert outcome.certificate is not None
            assert outcome.certificate.passed
        assert result.counters["certificates_checked"] == 4
        assert result.counters["certificates_passed"] == 4
        assert result.counters.get("certificates_failed", 0) == 0
        assert result.counters.get("corruption_caught", 0) == 0

    def test_uncertified_run_attaches_no_certificates(self):
        result = _run(certify=None)
        assert all(outcome.certificate is None for outcome in result.outcomes)
        assert "certificates_checked" not in result.counters

    def test_custom_policy_is_used(self):
        strict = CertifyPolicy(max_relative_residual=1e-10, absolute_floor=1e-30)
        result = _run(certify=strict)
        for outcome in result.outcomes:
            assert outcome.certificate is not None
            assert outcome.certificate.tolerance == 1e-10


@pytest.mark.chaos
class TestSilentCorruptionEscalation:
    def _corrupted_batch(self, tmp_path, boards=2):
        faults = FaultInjector(
            specs=(FaultSpec("silent_corruption", request_id="cr-0001", attempt=0),),
            seed=0,
        )
        path = tmp_path / "certify.journal"
        runtime = Runtime(
            workers=1,
            retry=FAST_RETRY,
            seed=0,
            faults=faults,
            certify=True,
            # Pressure 1.0 so the condemned board STAYS quarantined for
            # the duration — blame visibility, not the recalibration exit.
            fleet=FleetConfig(boards=boards, recalibration_pressure=1.0),
            ladder_kwargs={"settle_max_steps": 2000},
            journal=BatchJournal(path),
        )
        return runtime, runtime.run_batch(_requests(4)), path

    def test_injected_corruption_is_caught_and_resolved(self, tmp_path):
        runtime, result, path = self._corrupted_batch(tmp_path)

        # Every request still converges; the corrupted one got there
        # via escalation (certificate fail -> damped-Newton re-solve).
        assert all(o.status == "converged" for o in result.outcomes)
        hit = next(o for o in result.outcomes if o.request_id == "cr-0001")
        assert "silent_corruption" in hit.faults
        assert "certificate_failed" in hit.faults
        assert hit.attempts == 2
        assert hit.certificate is not None and hit.certificate.passed

        counters = result.counters
        assert counters["corruption_caught"] == 1
        assert counters["certificates_failed"] == 1
        assert counters["resolves_triggered"] == 1
        assert counters["certificates_checked"] == 5  # 4 commits + 1 voided

        # The blamed board is quarantined with the failing checks named.
        condemned = [b for b in runtime.fleet.boards if b.quarantined]
        assert len(condemned) == 1
        assert "certificate failed" in condemned[0].quarantine_reason

        # Exactly one terminal outcome per request in the journal.
        commits = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record.get("kind") == "outcome_committed":
                rid = record["request_id"]
                commits[rid] = commits.get(rid, 0) + 1
        assert commits == {f"cr-{i:04d}": 1 for i in range(4)}

    def test_escalated_answer_matches_the_clean_run(self, tmp_path):
        _, corrupted, _ = self._corrupted_batch(tmp_path)
        clean = Runtime(
            workers=1,
            retry=FAST_RETRY,
            seed=0,
            certify=True,
            fleet=FleetConfig(boards=2, recalibration_pressure=1.0),
            ladder_kwargs={"settle_max_steps": 2000},
        ).run_batch(_requests(4))
        clean_hit = next(o for o in clean.outcomes if o.request_id == "cr-0001")
        bad_hit = next(o for o in corrupted.outcomes if o.request_id == "cr-0001")
        # The certified re-solve lands on the same root to full
        # precision — corruption cost an attempt, never correctness.
        assert np.allclose(bad_hit.solution, clean_hit.solution, rtol=1e-9)

    def test_single_board_escalation_does_not_deadlock(self, tmp_path):
        # With the only board condemned, the re-solve must still finish
        # on the digital rung rather than waiting for analog capacity.
        runtime, result, _ = self._corrupted_batch(tmp_path, boards=1)
        assert all(o.status == "converged" for o in result.outcomes)
        assert result.counters["resolves_triggered"] == 1


class TestReplayReverification:
    def _journaled_run(self, tmp_path):
        path = tmp_path / "resume.journal"
        runtime = Runtime(
            workers=1,
            retry=FAST_RETRY,
            seed=0,
            certify=True,
            journal=BatchJournal(path),
        )
        result = runtime.run_batch(_requests(3))
        return result, path

    def test_clean_replay_reverifies_and_matches(self, tmp_path):
        first, path = self._journaled_run(tmp_path)
        replay = read_journal(path)
        resumed = replay.build_runtime(
            journal=BatchJournal.resume(replay)
        ).run_batch(replay.requests, resume=replay)
        assert resumed.replayed == 3
        for a, b in zip(first.outcomes, resumed.outcomes):
            assert a.solution.tobytes() == b.solution.tobytes()
            assert a.certificate == b.certificate
        assert resumed.counters == first.counters

    @staticmethod
    def _tamper(path, mutate):
        """Apply ``mutate(outcome_record)`` to cr-0001's commit and
        re-seal the record, so only the semantic audit can object."""
        from repro.checkpoint.atomic import payload_digest

        lines = []
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if (
                record.get("kind") == "outcome_committed"
                and record["request_id"] == "cr-0001"
            ):
                record.pop("sha256", None)
                mutate(record["outcome"])
                record["sha256"] = payload_digest(record)
                line = json.dumps(record)
            lines.append(line)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @staticmethod
    def _resume(path):
        replay = read_journal(path)
        runtime = replay.build_runtime(journal=BatchJournal.resume(replay))
        return runtime.run_batch(replay.requests, resume=replay)

    def test_tampered_solution_refuses_resume(self, tmp_path):
        from repro.checkpoint.atomic import decode_array, encode_array

        _, path = self._journaled_run(tmp_path)

        def scale_solution(outcome):
            outcome["solution"] = encode_array(
                decode_array(outcome["solution"]) * (1.0 + 1e-3)
            )

        self._tamper(path, scale_solution)
        with pytest.raises(JournalError, match="re-verification failed.*certificate-mismatch"):
            self._resume(path)

    def test_committed_failing_certificate_refuses_resume(self, tmp_path):
        # The solution and the certificate digest are untouched, so the
        # digest binding and the recomputation both pass; only the
        # stored verdict says fail, and replay must not accept it.
        _, path = self._journaled_run(tmp_path)

        def fail_verdict(outcome):
            outcome["certificate"]["verdict"] = "fail"

        self._tamper(path, fail_verdict)
        with pytest.raises(JournalError, match="re-verification failed.*stored-failure"):
            self._resume(path)
