"""Unit tests for the fault-tolerant solve runtime's building blocks.

The chaos scenarios live in ``test_chaos.py`` and the soak batch in
``test_stress.py``; this module pins the contracts the runtime is
built from: seeded determinism of every derived stream, the bounded
queue, the picklable problem specs, the degradation ladder's verdicts,
and cross-process trace grafting.
"""

import pickle

import numpy as np
import pytest

from repro.runtime import (
    Deadline,
    DeadlineExceeded,
    DegradationLadder,
    FaultInjector,
    FaultSpec,
    ProblemSpec,
    QueueFull,
    RetryPolicy,
    Runtime,
    SolveOutcome,
    SolveRequest,
    stable_seed,
)
from repro.trace.tracer import Tracer


class TestStableSeed:
    def test_one_definition_shared_with_the_analog_layer(self):
        from repro.analog.health import stable_seed as analog_stable_seed

        assert stable_seed is analog_stable_seed

    def test_deterministic_across_calls(self):
        assert stable_seed(1, "req", 0) == stable_seed(1, "req", 0)

    def test_distinct_for_distinct_parts(self):
        seeds = {
            stable_seed(1, "req", 0),
            stable_seed(1, "req", 1),
            stable_seed(2, "req", 0),
            stable_seed(1, "other", 0),
        }
        assert len(seeds) == 4

    def test_fits_in_numpy_seed_range(self):
        assert 0 <= stable_seed("anything", 42) < 2**63


class TestDeadline:
    def test_expires_on_fake_clock(self):
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        deadline.check()  # not expired yet
        assert deadline.remaining == pytest.approx(1.0)
        now[0] = 2.0
        assert deadline.expired
        with pytest.raises(DeadlineExceeded):
            deadline.check()

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


class TestProblemSpec:
    def test_burgers_build_is_deterministic(self):
        spec = ProblemSpec.burgers(2, 1.5, seed=9)
        system_a, guess_a = spec.build()
        system_b, guess_b = spec.build()
        assert np.array_equal(guess_a, guess_b)
        u = np.linspace(-1.0, 1.0, system_a.dimension)
        assert np.array_equal(system_a.residual(u), system_b.residual(u))

    def test_quadratic_build(self):
        system, guess = ProblemSpec.quadratic(rhs0=2.0, rhs1=1.0, guess=(0.5, 0.5)).build()
        assert system.dimension == 2
        assert guess.tolist() == [0.5, 0.5]

    def test_survives_pickling(self):
        spec = ProblemSpec.burgers(2, 1.0, seed=3)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        _, guess_a = spec.build()
        _, guess_b = clone.build()
        assert np.array_equal(guess_a, guess_b)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown problem kind"):
            ProblemSpec(kind="heat").build()


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.delay_for(7, "req", 1) == policy.delay_for(7, "req", 1)

    def test_delay_grows_exponentially_up_to_cap(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.4, jitter=0.0)
        assert policy.delay_for(0, "r", 1) == pytest.approx(0.1)
        assert policy.delay_for(0, "r", 2) == pytest.approx(0.2)
        assert policy.delay_for(0, "r", 3) == pytest.approx(0.4)
        assert policy.delay_for(0, "r", 9) == pytest.approx(0.4)  # capped

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=10.0, jitter=0.5)
        for attempt in range(1, 5):
            delay = policy.delay_for(3, "r", attempt)
            base = 0.1 * 2 ** (attempt - 1)
            assert base <= delay <= base * 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


class TestRequestAndOutcomeContracts:
    def test_request_validation(self):
        with pytest.raises(ValueError):
            SolveRequest("", ProblemSpec.quadratic())
        with pytest.raises(ValueError):
            SolveRequest("r", ProblemSpec.quadratic(), deadline_seconds=0.0)

    def test_outcome_status_must_be_terminal(self):
        with pytest.raises(ValueError, match="status"):
            SolveOutcome(request_id="r", status="crashed")

    def test_ok_only_for_converged(self):
        assert SolveOutcome(request_id="r", status="converged").ok
        assert not SolveOutcome(request_id="r", status="timeout").ok


class TestBoundedQueue:
    def test_submit_raises_queue_full_at_bound(self):
        runtime = Runtime(queue_limit=2)
        runtime.submit(SolveRequest("a", ProblemSpec.quadratic()))
        runtime.submit(SolveRequest("b", ProblemSpec.quadratic()))
        with pytest.raises(QueueFull):
            runtime.submit(SolveRequest("c", ProblemSpec.quadratic()))

    def test_duplicate_request_ids_rejected(self):
        runtime = Runtime()
        runtime.submit(SolveRequest("a", ProblemSpec.quadratic()))
        with pytest.raises(ValueError, match="duplicate"):
            runtime.submit(SolveRequest("a", ProblemSpec.quadratic()))

    def test_run_batch_admits_oversized_batches_in_windows(self):
        runtime = Runtime(queue_limit=2, retry=RetryPolicy(max_attempts=1))
        requests = [
            SolveRequest(f"q-{i}", ProblemSpec.quadratic(rhs0=1.0 + 0.1 * i))
            for i in range(5)
        ]
        result = runtime.run_batch(requests)
        assert [o.request_id for o in result.outcomes] == [r.request_id for r in requests]
        assert all(o.ok for o in result.outcomes)


class TestFaultInjector:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="disk_full")
        with pytest.raises(ValueError):
            FaultInjector(rates=(("analog_spike", 1.5),))

    def test_targeted_spec_matches_only_its_attempt(self):
        injector = FaultInjector(
            specs=(FaultSpec(kind="analog_spike", request_id="r", attempt=1),)
        )
        assert injector.active_faults("r", 0) == []
        assert [f.kind for f in injector.active_faults("r", 1)] == ["analog_spike"]
        assert injector.active_faults("other", 1) == []

    def test_rate_draws_are_deterministic_and_roughly_calibrated(self):
        injector = FaultInjector.from_rates({"worker_crash": 0.25}, seed=5)
        hits = [bool(injector.active_faults(f"req-{i}", 0)) for i in range(200)]
        assert hits == [bool(injector.active_faults(f"req-{i}", 0)) for i in range(200)]
        assert 20 <= sum(hits) <= 80  # ~50 expected

    def test_injector_pickles(self):
        injector = FaultInjector.from_rates({"solver_hang": 0.5}, seed=1)
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.active_faults("r", 0) == injector.active_faults("r", 0)


class TestDegradationLadder:
    def test_quadratic_converges_on_hybrid_rung(self):
        system, guess = ProblemSpec.quadratic().build()
        result = DegradationLadder().solve(system, guess)
        assert result.converged and result.rung == "hybrid"
        assert result.rungs_tried == ("hybrid",)

    def test_rung_override_and_validation(self):
        with pytest.raises(ValueError, match="unknown ladder rungs"):
            DegradationLadder(rungs=("hybrid", "prayer"))
        with pytest.raises(ValueError, match="at least one rung"):
            DegradationLadder(rungs=())
        system, guess = ProblemSpec.quadratic().build()
        result = DegradationLadder(rungs=("damped_newton",)).solve(system, guess)
        assert result.converged and result.rung == "damped_newton"

    def test_exhausted_ladder_returns_structured_failure(self):
        """A hybrid-only ladder on a problem outside the undamped basin
        must report failure with the rung's diagnosis, never raise."""
        system, guess = ProblemSpec.burgers(4, 5.0, seed=11).build()
        ladder = DegradationLadder(rungs=("hybrid",))
        result = ladder.solve(system, guess, analog_time_limit=1e-3)
        assert not result.converged
        assert result.rung is None
        assert result.rungs_tried == ("hybrid",)
        assert result.attempts[0].error or not result.attempts[0].converged

    def test_deadline_expiry_reports_timed_out(self):
        system, guess = ProblemSpec.quadratic().build()
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        now[0] = 5.0  # already expired before the first rung
        result = DegradationLadder().solve(system, guess, deadline=deadline)
        assert result.timed_out and not result.converged

    def test_fallback_mirrors_hybrid_solver_recovery(self):
        """The damped_newton rung is HybridSolver's absorbed recovery:
        a polish-tolerance solve after damped restarts."""
        system, guess = ProblemSpec.burgers(4, 5.0, seed=11).build()
        result = DegradationLadder().solve(system, guess, analog_time_limit=1e-3)
        assert result.converged
        assert result.rung == "damped_newton"
        assert result.rungs_tried == ("hybrid", "damped_newton")
        assert result.residual_norm < 1e-8

        # HybridSolver is this ladder's first two rungs: on a drifted
        # board whose seed the quality gate rejects, it skips the polish
        # and reports the damped rung's converged Newton result.
        from repro.analog.engine import AnalogAccelerator
        from repro.analog.health import DegradationModel
        from repro.core import HybridSolver

        system, guess = ProblemSpec.burgers(2, 1.0, seed=0).build()
        board = AnalogAccelerator(
            seed=1, degradation=DegradationModel(offset_drift_sigma=0.2, seed=5)
        )
        tracer = Tracer()
        hybrid = HybridSolver(board).solve(
            system, initial_guess=guess, analog_time_limit=20.0, tracer=tracer
        )
        assert hybrid.analog.converged and hybrid.analog.seed_accepted is False
        assert hybrid.converged and hybrid.digital.converged
        assert hybrid.residual_norm < 1e-8
        rungs = [span.attrs["rung"] for span in tracer.spans_named("ladder_rung")]
        assert rungs == ["hybrid", "damped_newton"]
        assert tracer.spans_named("ladder_rung")[-1].attrs["outcome"] == "converged"


class TestSerialRuntime:
    def test_happy_path_outcomes_in_request_order(self):
        runtime = Runtime(seed=1, retry=RetryPolicy(max_attempts=1))
        requests = [
            SolveRequest("q-0", ProblemSpec.quadratic()),
            SolveRequest("b-0", ProblemSpec.burgers(2, 1.0, seed=4)),
        ]
        result = runtime.run_batch(requests)
        assert result.mode == "serial"
        assert [o.request_id for o in result.outcomes] == ["q-0", "b-0"]
        assert all(o.ok and o.attempts == 1 and o.retries == 0 for o in result.outcomes)
        assert result.completed == 2 and result.failed == 0

    def test_trace_contract_and_manifest(self):
        tracer = Tracer()
        runtime = Runtime(seed=1, retry=RetryPolicy(max_attempts=1))
        runtime.run_batch([SolveRequest("q-0", ProblemSpec.quadratic())], tracer=tracer)
        tracer.check_closed()
        assert len(tracer.spans_named("runtime_batch")) == 1
        assert len(tracer.spans_named("solve_attempt")) == 1
        # Worker spans are grafted under the parent's solve_attempt.
        attempt = tracer.spans_named("solve_attempt")[0]
        ladder = tracer.spans_named("ladder")[0]
        assert ladder.parent_id == attempt.span_id
        assert tracer.counters["runtime_attempts"] == 1
        assert tracer.manifest["runtime"]["requests"] == 1
        assert tracer.manifest["runtime"]["mode"] == "serial"

    def test_render_mentions_every_request(self):
        runtime = Runtime(retry=RetryPolicy(max_attempts=1))
        result = runtime.run_batch(
            [SolveRequest(f"q-{i}", ProblemSpec.quadratic()) for i in range(3)]
        )
        rendered = result.render()
        for i in range(3):
            assert f"q-{i}" in rendered


class TestTracerAbsorb:
    def test_grafts_spans_under_open_parent_and_sums_counters(self):
        worker = Tracer()
        with worker.span("ladder"):
            with worker.span("ladder_rung", rung="hybrid"):
                pass
        worker.counter("ode_steps", 5)

        parent = Tracer()
        parent.counter("ode_steps", 2)
        with parent.span("solve_attempt") as attempt:
            parent.absorb(
                [record.to_record() for record in worker.spans], worker.counters
            )
        parent.check_closed()
        ladder = parent.spans_named("ladder")[0]
        rung = parent.spans_named("ladder_rung")[0]
        assert ladder.parent_id == attempt.span_id
        assert rung.parent_id == ladder.span_id
        assert parent.counters["ode_steps"] == 7
        ids = [record.span_id for record in parent.spans]
        assert len(ids) == len(set(ids))

    def test_absorb_tags_source(self):
        worker = Tracer()
        with worker.span("ladder"):
            pass
        parent = Tracer()
        parent.absorb(worker.spans, source="worker-3")
        assert parent.spans_named("ladder")[0].attrs["source"] == "worker-3"
