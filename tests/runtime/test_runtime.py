"""Unit tests for the fault-tolerant solve runtime's building blocks.

The chaos scenarios live in ``test_chaos.py`` and the soak batch in
``test_stress.py``; this module pins the contracts the runtime is
built from: seeded determinism of every derived stream, batch
admission, the picklable problem specs, rung-name validation, the
degradation ladder's verdicts, the runtime's spans, and cross-process
trace grafting.
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


class TestBatchAdmission:
    def test_duplicate_request_ids_rejected(self):
        runtime = Runtime()
        requests = [
            SolveRequest("a", ProblemSpec.quadratic()),
            SolveRequest("a", ProblemSpec.quadratic(rhs0=2.0)),
        ]
        with pytest.raises(ValueError, match="unique"):
            runtime.run_batch(requests)


class TestRungNames:
    """One tuple of rung names, one check, at every place a rung order
    is given."""

    def test_request_rejects_unknown_rung(self):
        with pytest.raises(ValueError, match="unknown ladder rungs"):
            SolveRequest("r", ProblemSpec.quadratic(), rungs=("damped_newtn",))

    def test_request_rejects_empty_rungs(self):
        with pytest.raises(ValueError, match="at least one rung"):
            SolveRequest("r", ProblemSpec.quadratic(), rungs=())

    def test_ladder_solve_override_rejects_unknown_rung(self):
        # A misspelt name must not run as some other rung.
        system, guess = ProblemSpec.quadratic().build()
        with pytest.raises(ValueError, match="unknown ladder rungs"):
            DegradationLadder().solve(system, guess, rungs=("damped_newtn",))

    def test_ladder_solve_override_rejects_empty_rungs(self):
        # An empty order must not fall back to the full ladder.
        system, guess = ProblemSpec.quadratic().build()
        with pytest.raises(ValueError, match="at least one rung"):
            DegradationLadder().solve(system, guess, rungs=())


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


class TestRuntimeSpans:
    """The runtime's own spans time real work: ``fleet_route`` wraps the
    routing call and carries the gate's decision, and a retry is an
    attribute of the attempt it follows, not a span of its own."""

    @staticmethod
    def _fleet_batch(monkeypatch):
        from repro.fleet import FleetConfig
        from repro.fleet.scheduler import AnalogFleet

        tracer = Tracer()
        route = AnalogFleet.route

        def probed_route(self, request, attempt):
            with tracer.span("route_probe"):
                return route(self, request, attempt)

        monkeypatch.setattr(AnalogFleet, "route", probed_route)
        runtime = Runtime(
            seed=3,
            fleet=FleetConfig(boards=2),
            retry=RetryPolicy(max_attempts=2, base_delay=0.001, max_delay=0.002),
            faults=FaultInjector(
                specs=(FaultSpec(kind="worker_crash", request_id="q-1", attempt=0),)
            ),
        )
        requests = [
            SolveRequest(
                f"q-{i}", ProblemSpec.quadratic(rhs0=1.0 + 0.1 * i), analog_time_limit=1e-3
            )
            for i in range(3)
        ]
        result = runtime.run_batch(requests, tracer=tracer)
        tracer.check_closed()
        return tracer, result

    def test_one_fleet_route_span_per_attempt_carrying_the_decision(self, monkeypatch):
        tracer, result = self._fleet_batch(monkeypatch)
        routes = tracer.spans_named("fleet_route")
        assert len(routes) == sum(o.attempts for o in result.outcomes) == 4
        for span in routes:
            assert span.attrs["decision"] in ("allow", "veto", "audit")
            assert {"predicted", "conditioning", "threshold", "board"} <= set(span.attrs)
        assert not tracer.spans_named("predictive_gate")
        assert not tracer.spans_named("retry")

    def test_fleet_route_span_encloses_the_routing_call(self, monkeypatch):
        tracer, _ = self._fleet_batch(monkeypatch)
        route_ids = {span.span_id for span in tracer.spans_named("fleet_route")}
        probes = tracer.spans_named("route_probe")
        assert len(probes) == len(route_ids)
        assert {probe.parent_id for probe in probes} == route_ids

    def test_retry_delay_rides_the_failed_attempt(self, monkeypatch):
        tracer, result = self._fleet_batch(monkeypatch)
        retried = [
            span for span in tracer.spans_named("solve_attempt")
            if span.attrs.get("retry_scheduled")
        ]
        assert [(s.attrs["request"], s.attrs["status"]) for s in retried] == [
            ("q-1", "crashed")
        ]
        assert 0.0 < retried[0].attrs["retry_delay"] <= 0.002 * 1.5
        assert result.outcome_for("q-1").attempts == 2
        assert tracer.counters["runtime_retries"] == 1

    def test_no_span_in_src_has_an_empty_body(self):
        import ast
        from pathlib import Path

        import repro

        empty = []
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.With):
                    continue
                opens_span = any(
                    isinstance(item.context_expr, ast.Call)
                    and isinstance(item.context_expr.func, ast.Attribute)
                    and item.context_expr.func.attr == "span"
                    for item in node.items
                )
                if opens_span and all(isinstance(stmt, ast.Pass) for stmt in node.body):
                    empty.append(f"{path.name}:{node.lineno}")
        assert not empty, f"spans that time nothing: {empty}"


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
