"""Service chaos tier: kill a shard's pool mid-batch, prove exactly-once.
Plus the admission half of that guarantee: an id whose outcome was
replayed off a dead shard's journal is *committed* work, and a repeat
submission must be refused as ``duplicate_request``, never re-run.

The service's core guarantee under fire: every *accepted* request
reaches exactly one terminal outcome — no losses, no duplicates — even
when the shard running it dies a real death (the FaultInjector's
``worker_crash`` is an ``os._exit`` inside the pooled worker, so the
pool genuinely breaks). Two scenarios:

* **one shard down** — a targeted crash kills shard-0 mid-window; the
  outcomes its write-ahead journal committed before the crash are
  replayed (not re-solved), the uncommitted remainder fails over to
  surviving shards, and no journal across the fleet commits any
  request twice;
* **whole fleet down** — an every-first-attempt crash fault kills
  every pooled shard; the serial lifeboat shard (where the same fault
  is a raised ``InjectedWorkerCrash``, charged and retried) still
  brings every request to a converged terminal outcome.

Everything is explicitly seeded; a failure replays byte-for-byte.
"""

import asyncio
import json

import pytest

from repro.runtime import FaultInjector, FaultSpec, ProblemSpec, RetryPolicy, SolveRequest
from repro.service import ServiceRejected, SolveService, serve_requests

pytestmark = pytest.mark.chaos


def _requests(n, prefix):
    return [
        SolveRequest(
            f"{prefix}-{i}",
            ProblemSpec.quadratic(rhs0=1.0 + 0.1 * i, rhs1=1.3, guess=(0.1, 0.1)),
            rungs=("damped_newton",),
            analog_time_limit=1e-3,
        )
        for i in range(n)
    ]


def _committed_counts(journal_dir):
    """outcome_committed records per request id, across every journal."""
    counts = {}
    for path in sorted(journal_dir.glob("*.journal")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record.get("kind") == "outcome_committed":
                rid = record["request_id"]
                counts[rid] = counts.get(rid, 0) + 1
    return counts


class TestShardKillFailover:
    def test_killed_shard_requests_reach_terminal_exactly_once(self, tmp_path):
        requests = _requests(9, prefix="c")
        # Target only shard-0: request c-2's first attempt kills its
        # pooled worker. By then the window's earlier requests have
        # committed to shard-0's journal, so both recovery paths —
        # journal replay and fail-over re-execution — are exercised.
        result = serve_requests(
            requests,
            shards=3,
            workers_per_shard=2,
            batch_window=4,
            seed=0,
            journal_dir=tmp_path,
            retry=RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05),
            shard_faults={
                0: FaultInjector(
                    specs=(
                        FaultSpec(kind="worker_crash", request_id="c-2", attempt=0),
                    )
                )
            },
        )

        # Exactly one terminal record per accepted request.
        ids = [record.request_id for record in result.records]
        assert sorted(ids) == sorted(request.request_id for request in requests)
        assert len(ids) == len(set(ids))
        assert result.completed == 9
        assert result.failed == 0
        assert not result.rejections

        # The targeted shard died; nothing else did.
        assert [s.name for s in result.shards if s.status == "dead"] == ["shard-0"]
        assert result.counters.get("pool_broken") == 1
        assert result.counters.get("service_shards_lost") == 1

        # Committed-before-crash outcomes were replayed off the journal,
        # not re-solved; the rest failed over to surviving shards.
        replayed = [r for r in result.records if r.replayed_from_journal]
        assert replayed
        assert all(r.shard == "shard-0" for r in replayed)
        assert len(replayed) == result.counters.get("service_replayed_outcomes")
        moved = [r for r in result.records if r.failovers > 0]
        assert moved
        assert all(r.shard in ("shard-1", "shard-2") for r in moved)
        assert len(moved) == result.counters.get("service_failovers")

        # The fleet's journals agree: every request id committed exactly
        # once across all shards — replay did not duplicate, fail-over
        # did not lose.
        counts = _committed_counts(tmp_path)
        assert counts == {request.request_id: 1 for request in requests}

    def test_replayed_id_resubmission_is_duplicate_not_rerun(self, tmp_path):
        """Admission across journal replay: once a killed shard's window
        has been recovered — committed outcomes replayed, the rest
        failed over — resubmitting one of those ids must be rejected as
        ``duplicate_request``. The replay restored the record, so a
        repeat is a caller bug, not new work; the fleet's journals must
        still show exactly one commit per id afterwards."""
        requests = _requests(9, prefix="d")

        async def scenario():
            service = SolveService(
                shards=3,
                workers_per_shard=2,
                batch_window=4,
                seed=0,
                queue_limit=len(requests),
                journal_dir=tmp_path,
                retry=RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05),
                shard_faults={
                    0: FaultInjector(
                        specs=(
                            FaultSpec(kind="worker_crash", request_id="d-2", attempt=0),
                        )
                    )
                },
            )
            await service.start()
            futures = [service.submit(request) for request in requests]
            records = await asyncio.gather(*futures)
            # The crash landed and recovery ran: at least one record
            # came back off the dead shard's journal.
            replayed = [r for r in records if r.replayed_from_journal]
            assert replayed, [r.shard for r in records]
            by_id = {request.request_id: request for request in requests}
            reasons = []
            for record in (replayed[0], records[-1]):
                with pytest.raises(ServiceRejected) as excinfo:
                    service.submit(by_id[record.request_id])
                reasons.append(excinfo.value.reason)
            result = await service.drain()
            return reasons, result

        reasons, result = asyncio.run(scenario())
        assert reasons == ["duplicate_request", "duplicate_request"]
        assert result.completed == 9
        assert [r.reason for r in result.rejections] == reasons
        counts = _committed_counts(tmp_path)
        assert counts == {request.request_id: 1 for request in requests}


class TestFleetCascadeLifeboat:
    def test_lifeboat_finishes_the_work_when_every_shard_dies(self, tmp_path):
        requests = _requests(6, prefix="x")
        # Shared fault: every request's first attempt crashes its
        # worker, so each pooled shard dies on its first window. On the
        # serial lifeboat the same spec raises InjectedWorkerCrash
        # instead — a charged, retryable attempt — and attempt 1
        # converges.
        shared = FaultInjector(
            specs=(FaultSpec(kind="worker_crash", request_id=None, attempt=0),)
        )
        result = serve_requests(
            requests,
            shards=2,
            workers_per_shard=2,
            batch_window=3,
            seed=0,
            journal_dir=tmp_path,
            retry=RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05),
            faults=shared,
        )

        ids = [record.request_id for record in result.records]
        assert sorted(ids) == sorted(request.request_id for request in requests)
        assert len(ids) == len(set(ids))
        assert result.completed == 6
        assert result.failed == 0

        by_name = {shard.name: shard for shard in result.shards}
        assert by_name["shard-0"].status == "dead"
        assert by_name["shard-1"].status == "dead"
        assert by_name["lifeboat"].status == "lifeboat"
        assert result.counters.get("service_shards_lost") == 2
        assert result.counters.get("pool_broken") == 2
        assert result.counters.get("service_lifeboats_launched") == 1

        # Every record came off the lifeboat after exactly one bounce,
        # retried past its charged crash attempt.
        assert all(record.shard == "lifeboat" for record in result.records)
        assert all(record.failovers == 1 for record in result.records)
        assert all(record.outcome.attempts == 2 for record in result.records)

        # Exactly-once across the fleet's journals: the dead shards
        # committed nothing, the lifeboat committed each id once.
        counts = _committed_counts(tmp_path)
        assert counts == {request.request_id: 1 for request in requests}


class TestOneConfigPerShardJournal:
    def test_multi_window_journal_fails_over_and_verifies(self, tmp_path):
        """A shard journal carries the runtime config once, in its first
        window; a later window's crash still recovers committed outcomes
        from it, and ``verify-journal`` still audits it."""
        from repro.certify.verify import verify_journal

        requests = _requests(6, prefix="w")
        # One shard, windows [w-0..w-2] and [w-3..w-5]. Request w-5 is
        # dispatched only after w-3 or w-4 has committed (the pool is
        # two wide), and its first attempt kills the shard's pool.
        result = serve_requests(
            requests,
            shards=1,
            workers_per_shard=2,
            batch_window=3,
            seed=0,
            journal_dir=tmp_path,
            certify=True,
            retry=RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05),
            shard_faults={
                0: FaultInjector(
                    specs=(FaultSpec(kind="worker_crash", request_id="w-5", attempt=0),)
                )
            },
        )
        assert result.completed == 6
        replayed = [r for r in result.records if r.replayed_from_journal]
        assert replayed and all(r.shard == "shard-0" for r in replayed)

        journal = tmp_path / "shard-0.journal"
        kinds = [json.loads(line)["kind"] for line in journal.read_text().splitlines()]
        assert kinds[0] == "batch_started"
        assert kinds.count("batch_started") == 1
        assert kinds.count("batch_completed") == 1
        assert kinds.count("batch_interrupted") == 1
        verification = verify_journal(journal)
        assert verification.problems == []
        assert verification.checked == kinds.count("outcome_committed") >= 4
        assert _committed_counts(tmp_path) == {r.request_id: 1 for r in requests}
