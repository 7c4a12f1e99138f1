"""Stress/soak tier for the fault-tolerant runtime (nightly CI).

A 500-request pooled batch under light rate-based chaos is the
load-shaped complement to the scenario-shaped chaos suite: instead of
asking "does fault X take recovery path Y", it asks the bookkeeping
questions that only show up at volume — are any requests lost when
the pool crashes and degrades mid-batch, do the trace span counts
reconcile with the outcome attempt counts, do the counters add up.
Everything is explicitly seeded; marked ``slow`` so the default tier
skips it (run with ``pytest --runslow -m slow``).
"""

import numpy as np
import pytest

from repro.runtime import (
    FaultInjector,
    ProblemSpec,
    RetryPolicy,
    Runtime,
    SolveRequest,
    TERMINAL_STATUSES,
)
from repro.trace.tracer import Tracer

pytestmark = pytest.mark.slow

BATCH_SIZE = 500


def _soak_requests():
    """500 cheap-but-real requests: mostly scalar quadratics (distinct
    roots), every 50th a small Burgers grid to keep the PDE path hot.
    analog_time_limit bounds the simulated settle so an unlucky die
    sample cannot stall the soak."""
    requests = []
    for i in range(BATCH_SIZE):
        if i % 50 == 0:
            problem = ProblemSpec.burgers(2, 2.0, seed=100 + i)
        else:
            problem = ProblemSpec.quadratic(rhs0=1.0 + 0.003 * i)
        requests.append(
            SolveRequest(f"soak-{i:04d}", problem, analog_time_limit=1e-3)
        )
    return requests


class TestSoakBatch:
    def test_500_requests_none_lost_and_trace_reconciles(self):
        requests = _soak_requests()
        faults = FaultInjector.from_rates(
            {"worker_crash": 0.01, "analog_spike": 0.02}, seed=71
        )
        tracer = Tracer()
        runtime = Runtime(
            workers=4,
            seed=71,
            faults=faults,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05),
        )
        with np.errstate(all="ignore"):
            result = runtime.run_batch(requests, tracer=tracer)

        # Zero lost requests: exactly one terminal outcome per id, in
        # request order.
        assert [o.request_id for o in result.outcomes] == [
            r.request_id for r in requests
        ]
        assert all(o.status in TERMINAL_STATUSES for o in result.outcomes)

        # Trace reconciliation: one solve_attempt span per attempt the
        # outcomes claim, and the counters agree with both.
        total_attempts = sum(o.attempts for o in result.outcomes)
        assert len(tracer.spans_named("solve_attempt")) == total_attempts
        assert tracer.counters["runtime_attempts"] == total_attempts
        assert len(tracer.spans_named("runtime_batch")) == 1

        completed = tracer.counters.get("requests_completed", 0)
        failed = tracer.counters.get("requests_failed", 0)
        assert completed + failed == BATCH_SIZE
        manifest = tracer.manifest["runtime"]
        assert manifest["requests"] == BATCH_SIZE
        assert manifest["requests_completed"] == completed

        # The soak should overwhelmingly succeed: chaos rates are low
        # and every fault kind has a recovery path.
        assert completed >= int(BATCH_SIZE * 0.95)
        tracer.check_closed()
