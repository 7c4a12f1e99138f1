"""The workloads: inputs made from a seed, driven through public entry points.

Every workload is a list of *cycles*. A cycle holds each input class of
the workload a fixed number of times in a seeded random order, so every
run sees the same mix and a quantile always falls at the same place in
it; only the instances (their seeds) and their order change with the
workload seed. A run is ``cycles(workload, seconds)`` cycles long,
made by :func:`make_plan`.

``hybrid_burgers``
    Closed loop, one client: 2-D Burgers instances, grid 8 or 16,
    Re 0.25, 1.0 or 2.0, through ``Runtime(workers=1).run_batch`` with
    the default ladder and no fleet, certificate or journal. Each
    instance whose hybrid request converged is sent again with
    ``rungs=("damped_newton",)``, the paper's damped baseline, for the
    modelled speedup.
``digital_trajectory``
    Closed loop of BDF2 trajectories through ``run_trajectory``,
    alternating nx = 48 (20 steps) and nx = 96 (10 steps). An item is a
    time step.
``service_closed_loop``
    One client keeps a burst of eight requests in flight in a
    ``SolveService`` (1 shard x 1 worker, a healthy 3-board fleet,
    certification on, a journal), waits for all of them, then sends the
    next burst. Each burst holds six digital-only requests
    (``rungs=("damped_newton",)``, grid 4 or 8, Re 0.25 or 1.0) and two
    hybrid ones, one per grid, Re 0.25, 1.0 or 2.0. A request's latency runs from its submission
    to its answer, queue wait included. After the drain
    ``verify_journal`` audits the journal.

Settings of ``hybrid_burgers``:

* ``settle_max_steps=1000`` (the ``--settle-max-steps`` user setting).
  A normal settle takes about 50 accepted steps; at Re = 2.0 some
  settles creep near a singular flow Jacobian and use the whole budget
  (6,001 right-hand-side evaluations). With the default budget of
  1,000,000 steps such an instance does not finish in ten minutes.
* a per-attempt deadline of ``DEADLINE_S`` and one attempt per
  request (the ``--deadline`` and ``--max-attempts`` user settings).
  A creeping instance is one that digital Newton cannot solve either;
  without a deadline its homotopy fallback runs for minutes. Normal
  requests finish in under 2 s, so the deadline only ends requests
  that would fail anyway, which then count as failed.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import hashlib
import math
import shutil
import tempfile
import time
from pathlib import Path
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analog.engine import solution_error
from repro.certify import verify_journal
from repro.certify.certificate import CertifyPolicy
from repro.certify.residuals import independent_residual_norms
from repro.experiments.trajectory import run_trajectory
from repro.fleet import FleetConfig
from repro.perf.analog_model import AnalogTimingModel
from repro.perf.cpu_model import CpuModel
from repro.runtime.api import ProblemSpec, RetryPolicy, SolveRequest
from repro.runtime.runtime import Runtime
from repro.service.api import ServiceRejected
from repro.service.service import SolveService

__all__ = ["WORKLOADS", "RunResult", "build", "cycles", "make_plan", "release", "run"]

# Scratch space inside the checkout (journals; span files in run.py).
WORKDIR = Path(__file__).resolve().parent.parent / ".bench_build" / "perfbench"

LADDER_KWARGS = {"settle_max_steps": 1000}
DEADLINE_S = 5.0
RETRY = RetryPolicy(max_attempts=1)
REYNOLDS = (0.25, 1.0, 2.0)
# A run does a fixed amount of work, ``cycles(workload, seconds)`` cycles,
# so every run of a workload has the same sample count and each quantile
# sits at the same rank; a slower program shows as a longer run. A
# hybrid_burgers cycle takes ~4.5 s plus ~20 s for each failed request
# (about one in twelve), ~12 s on average; a trajectory cycle ~2.2 s; a
# service cycle ~2.2 s plus ~10 s for each failed request. At
# ``--seconds 24`` a hybrid_burgers run (6 cycles) takes 40-140 s, under
# the 180 s a run may take, a trajectory run (10 cycles) ~22 s and a
# service run (10 cycles) 20-60 s. hybrid_burgers needs the most cycles:
# a failed request counts as an infinitely slow one, so its latency
# quantiles move with the number of creeping settles a run draws.
NOMINAL_CYCLE_S = {
    "hybrid_burgers": 4.0,
    "digital_trajectory": 2.4,
    "service_closed_loop": 2.4,
}

# digital_trajectory: (nx, steps) per cycle. Twice as many nx = 48 steps
# as nx = 96 steps keeps the median inside one size and the tail in the
# other, instead of on the boundary between them.
TRAJECTORY_CYCLE = ((48, 20), (96, 10))
TRAJECTORY_DT = 0.05
TRAJECTORY_REYNOLDS = 1.0

# service_closed_loop: a cycle is SERVICE_BURSTS bursts; each burst holds
# six digital-only requests, sent first, then the grid-4 and the grid-8
# hybrid request, and the service runs one request per window. So every
# burst has the same shape and a request's latency is the time of the
# requests before it in its burst plus its own. The median request is
# always a cheap one, answered after three or four others (their work,
# the service's per-request overhead and the waits), and the tail is
# always the last request of a burst, about the burst's 11th-largest
# total time: neither sits on a boundary between kinds of request, and
# a window that holds one request charges a failure to that request
# alone. (With windows of three, two hybrid requests answered together
# put the tail among the few slowest bursts of a run.)
SERVICE_GRIDS = (4, 8)
SERVICE_BURSTS = 3
SERVICE_WINDOW = 1
DIGITAL_RUNGS = ("damped_newton",)
# Damped Newton alone fails on about one in twelve grid-8 instances at
# Re = 2.0; each such request holds the service's one worker for the
# whole 5 s deadline and makes the tail of a run flip between ~1 s and
# ~5 s from seed to seed. Digital-only traffic therefore stays at
# Re <= 1.0; the hybrid requests keep Re = 2.0, and hybrid_burgers
# measures those instances (its damped baselines) directly.
DIGITAL_REYNOLDS = (0.25, 1.0)
FLEET = FleetConfig(boards=3)

WORKLOADS = ("hybrid_burgers", "digital_trajectory", "service_closed_loop")


@dataclass
class Item:
    """One unit of measured work and what the checks need about it."""

    key: str
    latency: float
    ok: bool = True
    wrong: bool = False
    digest: str = ""
    timed_out: bool = False
    """Ended by the wall-clock deadline: its answer depends on timing, so
    it is left out of the traced-equals-untraced comparison."""


@dataclass
class RunResult:
    items: List[Item] = field(default_factory=list)
    busy: List[float] = field(default_factory=list)
    """Seconds of measured work per cycle."""
    lost_s: float = 0.0
    """Of ``busy``, the seconds spent on failed items alone."""
    shared_state: bool = False
    """Requests share state (the fleet's board health), so after a
    timed-out request later answers may depend on timing too."""
    journal_problems: int = 0
    """Problems ``verify_journal`` found in the run's journal."""
    submitted: Dict[str, float] = field(default_factory=dict)
    """Submission clock of each service request."""
    plan: Any = None
    extra: Dict[str, float] = field(default_factory=dict)
    settle_times: List[Tuple[float, float]] = field(default_factory=list)
    """(simulated settle time units, host seconds) per converged settle."""
    records: List[Dict[str, Any]] = field(default_factory=list)
    truncated: bool = False

    @property
    def busy_s(self) -> float:
        return sum(self.busy)

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return sum(1 for item in self.items if not item.ok or item.wrong)

    @property
    def wrong(self) -> int:
        return sum(1 for item in self.items if item.wrong) + self.journal_problems

    def digests(self) -> Dict[str, str]:
        return {item.key: item.digest for item in self.items}

    def same_answers(self, replay: "RunResult") -> bool:
        """Whether ``replay``, run on this run's plan, gave bitwise-identical
        answers; only a truncated replay may have fewer items. Items either
        run ended by its deadline are skipped; with shared state, so is
        everything after them."""
        mine = {item.key: item for item in self.items}
        if len(replay.items) != len(self.items) and not replay.truncated:
            return False
        for item in replay.items:
            reference = mine.get(item.key)
            if reference is None:
                return False
            if reference.timed_out or item.timed_out:
                if self.shared_state:
                    break
                continue
            if reference.digest != item.digest:
                return False
        return True


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def cycles(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / NOMINAL_CYCLE_S[workload] - 1e-9))


def _rng(seed: int, stream: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")
    return np.random.default_rng([int(seed), tag])


def hybrid_cycle(rng: np.random.Generator) -> List[Tuple[int, float, int]]:
    cells = [(grid, reynolds) for grid in (8, 16) for reynolds in REYNOLDS]
    return [
        (cells[index][0], cells[index][1], int(rng.integers(0, 2**31 - 1)))
        for index in rng.permutation(len(cells))
    ]


def trajectory_cycle(rng: np.random.Generator) -> List[Tuple[int, int, int]]:
    return [(nx, steps, int(rng.integers(0, 2**31 - 1))) for nx, steps in TRAJECTORY_CYCLE]


def service_cycle(rng: np.random.Generator) -> List[List[Tuple[int, float, bool, int]]]:
    """SERVICE_BURSTS bursts of (grid, Re, hybrid, instance seed): every
    (grid, Re) once as a hybrid request. A burst sends six digital-only
    requests, three on each grid at a random Re of DIGITAL_REYNOLDS,
    then one hybrid request on each grid."""
    cells = [
        (grid, DIGITAL_REYNOLDS[int(rng.integers(0, len(DIGITAL_REYNOLDS)))])
        for grid in SERVICE_GRIDS
        for _ in range(3 * SERVICE_BURSTS)
    ]
    digital = [cells[index] for index in rng.permutation(len(cells))]
    per_burst = len(digital) // SERVICE_BURSTS
    hybrid = [
        [(grid, REYNOLDS[index]) for index in rng.permutation(len(REYNOLDS))]
        for grid in SERVICE_GRIDS
    ]
    bursts = []
    for burst in range(SERVICE_BURSTS):
        members = [
            (grid, reynolds, False)
            for grid, reynolds in digital[burst * per_burst : (burst + 1) * per_burst]
        ] + [(*by_grid[burst], True) for by_grid in hybrid]
        bursts.append([(*member, int(rng.integers(0, 2**31 - 1))) for member in members])
    return bursts


_CYCLE_MAKERS = {
    "hybrid_burgers": hybrid_cycle,
    "digital_trajectory": trajectory_cycle,
    "service_closed_loop": service_cycle,
}


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

_POLICY = CertifyPolicy()


def answer_is_wrong(spec: ProblemSpec, solution: np.ndarray) -> bool:
    """Re-check a converged answer through the independent residual."""
    achieved, reference = independent_residual_norms(spec, solution)
    if achieved <= _POLICY.absolute_floor:
        return False
    return not achieved / max(reference, _POLICY.reference_floor) <= _POLICY.max_relative_residual


def _digest(*parts: Any) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()


def _outcome_digest(outcome) -> str:
    solution = outcome.solution if outcome.solution is not None else np.zeros(0)
    return _digest(outcome.status, outcome.rung, solution)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def build(workload: str, seed: int) -> Dict[str, Any]:
    """The workload's objects, made before the first request (``setup_s``).
    Hand them to :func:`release` when done."""
    objects: Dict[str, Any] = {"rng": _rng(seed, workload)}
    if workload == "hybrid_burgers":
        objects["runtime"] = Runtime(
            workers=1, ladder_kwargs=dict(LADDER_KWARGS), retry=RETRY, seed=seed
        )
    elif workload == "service_closed_loop":
        WORKDIR.mkdir(parents=True, exist_ok=True)
        objects["journal_dir"] = Path(tempfile.mkdtemp(prefix="journals-", dir=WORKDIR))
        objects["service"] = SolveService(
            shards=1,
            workers_per_shard=1,
            batch_window=SERVICE_WINDOW,
            seed=seed,
            retry=RETRY,
            ladder_kwargs=dict(LADDER_KWARGS),
            journal_dir=objects["journal_dir"],
            fleet=FLEET,
            certify=True,
        )
    elif workload != "digital_trajectory":
        raise ValueError(f"unknown workload {workload!r}")
    return objects


def release(objects: Dict[str, Any]) -> None:
    """Remove what :func:`build` left on disk."""
    if "journal_dir" in objects:
        shutil.rmtree(objects["journal_dir"], ignore_errors=True)


def make_plan(workload: str, objects: Dict[str, Any], count: int) -> list:
    """The first ``count`` cycles of the workload's seeded inputs."""
    make = _CYCLE_MAKERS[workload]
    return [make(objects["rng"]) for _ in range(count)]


def run(
    workload: str,
    objects: Dict[str, Any],
    instrumentation,
    plan: list,
    recorder=None,
    stop_at: Optional[float] = None,
) -> RunResult:
    """Measure ``workload`` on the cycles of ``plan``.

    No request starts after ``stop_at`` (a ``time.perf_counter`` value):
    a run that meets many creeping settles still ends within its time
    limit, with fewer samples and ``truncated`` set.
    """
    if workload == "hybrid_burgers":
        return _hybrid_burgers(objects, instrumentation, plan, recorder, stop_at)
    if workload == "service_closed_loop":
        return _service(objects, instrumentation, plan, stop_at)
    return _digital_trajectory(plan, recorder)


def _item_span(recorder, key: str):
    if recorder is None:
        return contextlib.nullcontext()
    recorder.item = key
    return recorder.span("bench.item")


def _hybrid_burgers(objects, instrumentation, plan, recorder, stop_at) -> RunResult:
    runtime = objects["runtime"]
    result = RunResult(plan=plan)
    pairs = []
    for cycle_index, cycle in enumerate(plan):
        cycle_busy = 0.0
        for position, (grid, reynolds, instance) in enumerate(cycle):
            if stop_at is not None and time.perf_counter() > stop_at:
                # A replay of this run must see only what it reached.
                result.truncated = True
                result.plan = plan[:cycle_index] + [cycle[:position]]
                break
            spec = ProblemSpec.burgers(grid, reynolds, instance)
            key = f"hb{cycle_index}-{grid}-{reynolds}-{instance}"
            with _item_span(recorder, key):
                start = time.perf_counter()
                outcome = runtime.run_batch(
                    [SolveRequest(key, spec, deadline_seconds=DEADLINE_S)]
                ).outcomes[0]
                latency = time.perf_counter() - start
            hybrid_records = instrumentation.take_ladder_records()
            cycle_busy += latency
            if not outcome.ok:
                result.lost_s += latency
            result.settle_times.extend(_analog_stats(hybrid_records)[1])
            result.records.extend(hybrid_records)
            item = Item(key, latency, ok=outcome.ok)
            item.wrong = outcome.ok and answer_is_wrong(spec, outcome.solution)
            item.timed_out = outcome.status == "timeout"
            item.digest = _outcome_digest(outcome)
            result.items.append(item)
            if not outcome.ok:
                # Figure 8's protocol drops an instance whose hybrid solve
                # failed, so its damped baseline is not sent.
                continue
            baseline = SolveRequest(
                key + "-base", spec, deadline_seconds=DEADLINE_S, rungs=("damped_newton",)
            )
            with _item_span(recorder, key + "-base"):
                base = runtime.run_batch([baseline]).outcomes[0]
            base_records = instrumentation.take_ladder_records()
            item.wrong = item.wrong or (base.ok and answer_is_wrong(spec, base.solution))
            item.timed_out = item.timed_out or base.status == "timeout"
            item.digest += _outcome_digest(base)
            pairs.append((spec, outcome, base, hybrid_records, base_records))
        result.busy.append(cycle_busy)
        if result.truncated:
            break
    result.extra.update(_modelled(pairs))
    return result


def _service(objects, instrumentation, plan, stop_at) -> RunResult:
    service, journal_dir = objects["service"], objects["journal_dir"]
    result = RunResult(plan=plan, shared_state=True)
    answered_at: Dict[str, float] = {}

    def answered(key: str, _future) -> None:
        answered_at[key] = time.perf_counter()

    async def drive():
        await service.start()
        for cycle_index, cycle in enumerate(plan):
            cycle_busy = 0.0
            for burst_index, burst in enumerate(cycle):
                if stop_at is not None and time.perf_counter() > stop_at:
                    result.truncated = True
                    result.plan = plan[:cycle_index] + [cycle[:burst_index]]
                    break
                sent = []
                start = time.perf_counter()
                for position, (grid, reynolds, hybrid, instance) in enumerate(burst):
                    spec = ProblemSpec.burgers(grid, reynolds, instance)
                    key = (
                        f"sv{cycle_index}-{burst_index}-{position}-"
                        f"{'h' if hybrid else 'd'}{grid}-{reynolds}-{instance}"
                    )
                    request = SolveRequest(
                        key,
                        spec,
                        deadline_seconds=DEADLINE_S,
                        rungs=None if hybrid else DIGITAL_RUNGS,
                    )
                    result.submitted[key] = time.perf_counter()
                    try:
                        future = service.submit(request)
                    except ServiceRejected:
                        future = None
                    else:
                        future.add_done_callback(functools.partial(answered, key))
                    sent.append((key, spec, future))
                await asyncio.gather(*(future for _, _, future in sent if future is not None))
                cycle_busy += time.perf_counter() - start
                result.records.extend(instrumentation.take_ladder_records())
                # The burst went at once into an idle service that runs one
                # request per window, so requests are answered one after
                # another and each one's own time starts at the answer
                # before it.
                previous = start
                for key, spec, future in sent:
                    if future is None:
                        result.extra["rejected"] = result.extra.get("rejected", 0.0) + 1
                        result.items.append(Item(key, math.inf, ok=False))
                        continue
                    outcome = future.result().outcome
                    item = Item(key, answered_at[key] - result.submitted[key], ok=outcome.ok)
                    item.wrong = outcome.ok and answer_is_wrong(spec, outcome.solution)
                    item.timed_out = outcome.status == "timeout"
                    item.digest = _outcome_digest(outcome)
                    result.items.append(item)
                    if not item.ok or item.wrong:
                        result.lost_s += answered_at[key] - previous
                    previous = answered_at[key]
            result.busy.append(cycle_busy)
            if result.truncated:
                break
        await service.drain()

    asyncio.run(drive())
    journal = journal_dir / "shard-0.journal"
    start = time.perf_counter()
    verification = verify_journal(journal)
    result.extra["checkpoint_verify_s"] = time.perf_counter() - start
    result.extra["checkpoint_bytes"] = float(journal.stat().st_size)
    result.extra["journal_checked"] = float(verification.checked)
    result.journal_problems = len(verification.problems)
    return result


def _modelled(pairs) -> Dict[str, float]:
    """Figure 8's protocol over every instance of the run.

    An instance counts when the hybrid rung answered it and its damped
    baseline converged: the paper drops instances where no damping
    converges or the seeded solve fails, so an answer from the ladder's
    damped or homotopy fallback is not counted here (its time shows in
    the latency metrics). Only instances whose hybrid request converged
    are in ``pairs``. Baseline time charges every damped iteration,
    restarts included; hybrid time is the modelled settle plus every
    digital iteration of the hybrid request. The seed error is Equation 6 of
    each settled seed against the request's final answer, in percent.
    """
    cpu = CpuModel()
    analog_model = AnalogTimingModel()
    baseline_s = polish_s = settle_s = 0.0
    seed_errors = []
    counted = skipped = 0
    for spec, outcome, base, hybrid_records, base_records in pairs:
        seed_errors.extend(_analog_stats(hybrid_records)[0])
        if not base.ok or outcome.rung != "hybrid":
            skipped += 1
            continue
        system, guess = spec.build()
        n, nnz = system.dimension, system.jacobian(guess).nnz
        damped = [result for record in base_records for result in record["damped"]]
        baseline_s += sum(
            cpu.solve_seconds(result, n, nnz, count_restarts=True) for result in damped
        )
        for record in hybrid_records:
            for analog, _seconds in record["analog"]:
                settle_s += analog_model.seconds(analog.settle_time_units)
            hybrid_iterations = sum(
                attempt.iterations
                for attempt in record["result"].attempts
                if attempt.rung == "hybrid"
            )
            polish_s += cpu.solve_seconds_from_counts(hybrid_iterations, n, nnz)
            polish_s += sum(
                cpu.solve_seconds(result, n, nnz, count_restarts=True)
                for result in record["damped"]
            )
        counted += 1
    return {
        "modelled_baseline_s": baseline_s,
        "modelled_polish_s": polish_s,
        "modelled_settle_s": settle_s,
        "modelled_speedup": baseline_s / (settle_s + polish_s) if counted else 1.0,
        "modelled_instances": float(counted),
        "modelled_skipped": float(skipped),
        "seed_rms_error": float(np.median(seed_errors)) if seed_errors else 1.0,
    }


def _analog_stats(records) -> Tuple[List[float], List[Tuple[float, float]]]:
    """Equation 6 errors in percent of the settled seeds in ``records``
    against their request's final answer (when it converged), and
    (settle time units, host seconds) of every converged settle."""
    errors, times = [], []
    for record in records:
        final = record["result"]
        for analog, seconds in record["analog"]:
            if not analog.converged:
                continue
            times.append((analog.settle_time_units, seconds))
            if final is not None and final.converged:
                errors.append(100.0 * solution_error(analog.solution, final.u, analog.scale))
    return errors, times


def _digital_trajectory(plan, recorder) -> RunResult:
    result = RunResult(plan=plan)
    for cycle_index, cycle in enumerate(plan):
        cycle_busy = 0.0
        for nx, steps, instance in cycle:
            key = f"tr{cycle_index}-{nx}-{instance}"
            with _item_span(recorder, key):
                start = time.perf_counter()
                trajectory = run_trajectory(
                    nx=nx,
                    steps=steps,
                    dt=TRAJECTORY_DT,
                    scheme="bdf2",
                    reynolds=TRAJECTORY_REYNOLDS,
                    seed=instance,
                ).trajectory
                wall = time.perf_counter() - start
            converged = len(trajectory.newton_results) == steps and trajectory.converged
            finite = bool(np.all(np.isfinite(trajectory.states)))
            digest = _digest(trajectory.states)
            # Timed from outside, a step's latency is its trajectory's
            # wall time shared evenly over its steps.
            for step in range(steps):
                result.items.append(
                    Item(
                        f"{key}-{step}",
                        wall / steps,
                        ok=converged,
                        wrong=converged and not finite,
                        digest=digest,
                    )
                )
            cycle_busy += wall
        result.busy.append(cycle_busy)
    return result
