"""Per-layer observation of the program from outside it.

Nothing here edits ``src/``. Public functions and methods of each layer
are replaced, for the length of a run, by wrappers that call the
original and record what it did:

* **taps** keep the return value of a call. The untraced run installs
  four: three called once per request (the ladder verdict, the analog
  settle result and the damped baseline's Newton result) and one called
  once per settle (the settle's step counts). The
  end-to-end metrics ``modelled_speedup``, ``seed_rms_error`` and
  ``settle_units_per_s`` and the settle-cap figures are computed from
  them. A tap reads the clock twice and keeps no stack. The traced run
  adds taps for per-layer counts.
* **spans** (traced run only) time every wrapped call. Each thread keeps
  its own stack, so a call's *self* time is its duration minus the
  durations of the wrapped calls made inside it. Spans stay in memory
  and are written out when the run ends.

Class methods are wrapped on the class; module functions are wrapped
in the module that looks them up (``repro.pde.burgers.csr_from_triplets``,
not ``repro.linalg.sparse.csr_from_triplets``), so only the call sites
of interest are counted.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["SpanRecorder", "Instrumentation", "TRACED_CALLS"]

_clock = time.perf_counter
# Spans kept in memory for the span file; later spans are only counted.
KEEP_SPANS = 200_000


class SpanRecorder:
    """Call counts, inclusive time and self time per span name."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.root_time = 0.0
        self.spans: List[Tuple[str, int, float, float, Optional[str], Any]] = []
        self.spans_dropped = 0
        self.item: Any = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.depth = defaultdict(int)
        return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        self._local.depth[name] += 1
        frame = [name, _clock(), 0.0]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = _clock()
        stack = self._local.stack
        stack.pop()
        name, start, children = frame
        duration = end - start
        depth = self._local.depth
        depth[name] -= 1
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.calls[name] += 1
            self.self_time[name] += duration - children
            if depth[name] == 0:
                # Recursion under the same name counts once inclusively.
                self.inclusive[name] += duration
            if parent is None:
                self.root_time += duration
            if len(self.spans) < KEEP_SPANS:
                self.spans.append(
                    (name, threading.get_ident(), start, end, parent, self.item)
                )
            else:
                self.spans_dropped += 1
        return duration

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def write(self, path: Path) -> None:
        """Dump the kept spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[2] for span in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as handle:
            for name, thread, start, end, parent, item in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "thread": thread,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "item": item,
                        }
                    )
                    + "\n"
                )


class _Span:
    __slots__ = ("_recorder", "_name", "_frame")

    def __init__(self, recorder: SpanRecorder, name: str):
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> "_Span":
        self._frame = self._recorder.enter(self._name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._recorder.exit(self._frame)


# (module, attribute path, span name). Attribute paths with a dot are
# methods wrapped on their class.
TRACED_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.runtime.runtime", "Runtime.run_batch", "runtime.batch"),
    ("repro.runtime.ladder", "DegradationLadder.solve", "runtime.ladder"),
    ("repro.runtime.ladder", "damped_recovery", "nonlinear.damped"),
    ("repro.runtime.ladder", "newton_solve", "nonlinear.newton"),
    ("repro.pde.timestepping", "newton_solve", "nonlinear.newton"),
    ("repro.analog.engine", "AnalogAccelerator.solve", "analog.solve"),
    ("repro.analog.engine", "compile_burgers", "analog.compile"),
    ("repro.analog.engine", "compile_system", "analog.compile"),
    ("repro.analog.engine", "continuous_newton_solve", "analog.settle"),
    ("repro.ode.events", "integrate_rk45", "ode.integrate"),
    ("repro.nonlinear.continuous_newton", "newton_flow_rhs", "nonlinear.flow_rhs_factory"),
    ("repro.nonlinear.continuous_newton", "solve_dense", "nonlinear.flow_dense"),
    ("repro.pde.burgers", "BurgersStencilSystem.residual", "pde.residual"),
    ("repro.pde.burgers", "BurgersStencilSystem.jacobian", "pde.jacobian"),
    ("repro.pde.timestepping", "Bdf2System.residual", "pde.residual"),
    ("repro.pde.timestepping", "Bdf2System.jacobian", "pde.jacobian"),
    ("repro.pde.burgers", "csr_from_triplets", "linalg.assembly"),
    ("repro.linalg.sparse", "CsrMatrix.matvec", "linalg.matvec"),
    ("repro.linalg.kernel", "LinearKernel.solve", "linalg.kernel_solve"),
    ("repro.linalg.kernel", "bicgstab", "linalg.kernel_solve"),
    ("repro.linalg.kernel", "gmres", "linalg.kernel_solve"),
    ("repro.linalg.kernel", "solve_dense", "linalg.dense_solve"),
    ("repro.linalg.kernel", "JacobiPreconditioner", "linalg.preconditioner"),
    ("repro.linalg.kernel", "Ilu0Preconditioner", "linalg.preconditioner"),
    ("repro.service.shard", "Shard.run_window", "service.window"),
    ("repro.fleet.scheduler", "AnalogFleet.route", "fleet.route"),
    ("repro.runtime.runtime", "certify_solution", "certify"),
    ("repro.checkpoint.journal", "BatchJournal.append", "checkpoint.append"),
)


class Instrumentation:
    """Installs taps (always) and spans (``traced=True``) on the program.

    Use as a context manager; leaving it restores every original
    attribute, so one process can run untraced and traced phases.
    ``ladder_records`` collects one record per ladder descent: the analog
    results and damped-baseline Newton results it produced and the
    ladder's verdict.
    """

    def __init__(self, traced: bool, recorder: Optional[SpanRecorder] = None):
        self.traced = traced
        self.recorder = recorder if traced else None
        if traced and self.recorder is None:
            self.recorder = SpanRecorder()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.ladder_records: List[Dict[str, Any]] = []
        self.settles: List[Dict[str, Any]] = []
        self.inner_iterations: List[int] = []
        self.windows: List[Tuple[float, List[str]]] = []
        self.routes: List[Dict[str, bool]] = []

    # -- install / restore ----------------------------------------------

    def __enter__(self) -> "Instrumentation":
        taps = self._taps()
        if not self.traced:
            # The untraced run keeps only what the end-to-end metrics
            # and the settle-cap figures need: one tap call per request
            # or settle.
            taps = {key: tap for key, tap in taps.items() if key in _UNTRACED_TAPS}
        names = {(module, path): span for module, path, span in TRACED_CALLS}
        targets = set(taps)
        if self.traced:
            targets |= set(names)
        for module_name, path in sorted(targets):
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            span = names.get((module_name, path)) if self.traced else None
            target = original
            if (module_name, path) == _LADDER:
                target = _opening(original, self._open_ladder_record)
            wrapper = self._wrap(target, span, taps.get((module_name, path)))
            if span == "nonlinear.flow_rhs_factory":
                wrapper = self._wrap_rhs_factory(original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, original: Callable, span: Optional[str], tap: Optional[Callable]) -> Callable:
        recorder = self.recorder
        if span is None:
            # Tap only: time the call, keep the result, no stack.
            @_wraps(original)
            def tapped(*args: Any, **kwargs: Any) -> Any:
                start = _clock()
                result = original(*args, **kwargs)
                tap(args, kwargs, result, start, _clock())
                return result

            return tapped

        @_wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = recorder.enter(span)
            try:
                result = original(*args, **kwargs)
            finally:
                end = frame[1] + recorder.exit(frame)
            if tap is not None:
                tap(args, kwargs, result, frame[1], end)
            return result

        return traced

    def _wrap_rhs_factory(self, factory: Callable) -> Callable:
        recorder = self.recorder

        @functools.wraps(factory)
        def make_rhs(*args: Any, **kwargs: Any) -> Callable:
            rhs = factory(*args, **kwargs)

            def flow_rhs(tau: float, u: Any) -> Any:
                frame = recorder.enter("nonlinear.flow_rhs")
                try:
                    return rhs(tau, u)
                finally:
                    recorder.exit(frame)

            return flow_rhs

        return make_rhs

    # -- taps -------------------------------------------------------------

    def _record(self) -> Optional[Dict[str, Any]]:
        return getattr(self._local, "record", None)

    def _taps(self) -> Dict[Tuple[str, str], Callable]:
        def ladder(args, kwargs, result, start, end):
            record = self._local.__dict__.pop("record", None) or _new_record()
            record["result"] = result
            with self._lock:
                self.ladder_records.append(record)

        def analog(args, kwargs, result, start, end):
            record = self._record()
            if record is not None:
                record["analog"].append((result, end - start))

        def damped(args, kwargs, result, start, end):
            record = self._record()
            if record is not None:
                record["damped"].append(result)

        def settle(args, kwargs, result, start, end):
            solution = result.solution
            accepted = max(len(solution.ts) - 1, 0)
            budget = kwargs.get("max_steps", 1_000_000)
            with self._lock:
                self.settles.append(
                    {
                        "seconds": end - start,
                        "converged": bool(result.converged),
                        "capped": (not solution.settled)
                        and accepted + solution.rejected_steps >= budget,
                        "accepted": accepted,
                        "rejected": solution.rejected_steps,
                        "rhs": solution.rhs_evaluations,
                    }
                )

        def krylov(args, kwargs, result, start, end):
            with self._lock:
                self.inner_iterations.append(result.iterations)

        def window(args, kwargs, result, start, end):
            # Shard.run_window(self, requests): when the window started
            # and which requests it held (their queue wait ends here).
            with self._lock:
                self.windows.append((start, [r.request_id for r in args[1]]))

        def route(args, kwargs, result, start, end):
            # AnalogFleet.route(self, request, attempt) -> (assignment, events)
            request, (assignment, _events) = args[1], result
            with self._lock:
                self.routes.append(
                    {
                        "can_settle": "hybrid" in (request.rungs or ("hybrid",)),
                        "veto": assignment.gate_decision == "veto",
                    }
                )

        return {
            _LADDER: ladder,
            ("repro.analog.engine", "AnalogAccelerator.solve"): analog,
            ("repro.runtime.ladder", "damped_recovery"): damped,
            ("repro.analog.engine", "continuous_newton_solve"): settle,
            ("repro.linalg.kernel", "bicgstab"): krylov,
            ("repro.linalg.kernel", "gmres"): krylov,
            ("repro.service.shard", "Shard.run_window"): window,
            ("repro.fleet.scheduler", "AnalogFleet.route"): route,
        }

    def _open_ladder_record(self) -> None:
        self._local.record = _new_record()

    def take_ladder_records(self) -> List[Dict[str, Any]]:
        with self._lock:
            records, self.ladder_records = self.ladder_records, []
        return records


_LADDER = ("repro.runtime.ladder", "DegradationLadder.solve")
_UNTRACED_TAPS = (
    _LADDER,
    ("repro.analog.engine", "AnalogAccelerator.solve"),
    ("repro.runtime.ladder", "damped_recovery"),
    ("repro.analog.engine", "continuous_newton_solve"),
)


def _wraps(original: Callable) -> Callable:
    """``functools.wraps`` for functions; classes (the preconditioner
    constructors) are replaced by a plain factory function."""
    if isinstance(original, type):
        return lambda wrapper: wrapper
    return functools.wraps(original)


def _opening(original: Callable, before: Callable[[], None]) -> Callable:
    """``original`` preceded by ``before`` (opens a ladder record, so the
    analog and damped taps inside the descent can attach to it)."""

    @functools.wraps(original)
    def call(*args: Any, **kwargs: Any) -> Any:
        before()
        return original(*args, **kwargs)

    return call


def _new_record() -> Dict[str, Any]:
    return {"analog": [], "damped": [], "result": None}


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]
