"""One shard of the solve service: a Runtime with its own journal,
degradation schedule, fault plan, and tracer.

A shard is the service's unit of failure and of observability. Its
:class:`~repro.runtime.runtime.Runtime` is built with
``on_pool_break="fail"`` so a broken worker pool surfaces as
:class:`~repro.service.api.ShardDied` instead of degrading to
in-process execution — on a multi-shard service the right response to
a dead pool is fail-over to a healthy shard, not limping along on the
dead one. Its write-ahead journal (one file per shard, windows
appended) is what makes that fail-over lossless: committed outcomes
are recovered, accepted-but-uncommitted requests are replayed
elsewhere. Its :class:`~repro.trace.Tracer` accumulates every
window's spans and counters, and is merged with its peers at drain
time by :func:`repro.trace.merge_traces`.

Every shard shares the *service* seed: with all random streams keyed
by ``stable_seed(seed, request_id, attempt, ...)``, which shard runs a
request never changes the answer — the shards=1 == shards=4
determinism the test tier pins.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.checkpoint.journal import BatchJournal, JournalReplay, read_journal
from repro.runtime.api import PoolBroken, RetryPolicy, SolveRequest
from repro.runtime.runtime import BatchResult, Runtime
from repro.service.api import ShardDied
from repro.trace.tracer import Tracer

__all__ = ["Shard"]


class Shard:
    """A named Runtime plus the state the service tracks about it."""

    def __init__(
        self,
        name: str,
        seed: int = 0,
        workers: int = 1,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[Any] = None,
        degradation: Optional[Any] = None,
        ladder_kwargs: Optional[Dict[str, Any]] = None,
        journal_path: Optional[Path] = None,
        status: str = "healthy",
        fleet: Optional[Any] = None,
        certify: Optional[Any] = None,
    ):
        self.name = name
        self.status = status  # "healthy" | "dead" | "lifeboat"
        self.busy = False
        self.windows = 0
        self.dispatched = 0
        self.converged = 0
        self.failed = 0
        self.journal_path = Path(journal_path) if journal_path is not None else None
        self._journal = (
            BatchJournal(self.journal_path) if self.journal_path is not None else None
        )
        self.tracer = Tracer(manifest={"experiment": name, "seed": seed})
        self.runtime = Runtime(
            workers=workers,
            retry=retry,
            seed=seed,
            faults=faults,
            ladder_kwargs=ladder_kwargs,
            degradation=degradation,
            journal=self._journal,
            on_pool_break="fail",
            fleet=fleet,
            certify=certify,
        )

    @property
    def healthy(self) -> bool:
        return self.status != "dead"

    def run_window(self, requests: Sequence[SolveRequest]) -> BatchResult:
        """Run one window of requests on this shard's runtime.

        Called from an executor thread by the service. A broken pool
        (or anything else escaping the runtime's no-escapes contract)
        marks the shard dead and raises :class:`ShardDied`; the
        service then recovers what the journal committed and fails the
        rest over.
        """
        self.windows += 1
        self.dispatched += len(requests)
        try:
            result = self.runtime.run_batch(list(requests), tracer=self.tracer)
        except PoolBroken as exc:
            self.status = "dead"
            raise ShardDied(f"shard {self.name}: {exc}") from exc
        except Exception as exc:  # defensive: a shard bug is a dead shard
            self.status = "dead"
            raise ShardDied(f"shard {self.name}: {type(exc).__name__}: {exc}") from exc
        self.converged += result.completed
        self.failed += result.failed
        return result

    def recover(self) -> Optional[JournalReplay]:
        """Read back this (dead) shard's journal for fail-over.

        Returns ``None`` when the shard has no journal or the file was
        never written — the caller then replays the whole in-flight
        window from scratch on a healthy shard.
        """
        self.close()
        if self.journal_path is None or not self.journal_path.exists():
            return None
        return read_journal(self.journal_path)

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
