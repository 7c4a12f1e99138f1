"""Zero-dependency structured tracing for the solve pipeline.

The paper's headline claims are iteration-count and time-to-convergence
curves (Figures 7-9); regressions in convergence behaviour are
invisible from aggregate counters alone. :class:`Tracer` records the
per-stage story: nestable spans (``solve`` -> ``newton_attempt`` ->
``newton_iter`` -> ``linear_solve``; ``analog_settle``, whose accepted
integrator steps go to the ``ode_steps`` counter) carrying monotonic
timestamps, residual norms, damping levels and the linear-kernel
counters as attributes, plus named counters and gauges.

Everything that emits spans takes an optional ``tracer=`` argument
defaulting to ``None``; :func:`as_tracer` maps ``None`` to the shared
:data:`NULL_TRACER`, whose span handle is a preallocated singleton so
the hot path stays allocation-free and branch-cheap when tracing is
off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

__all__ = [
    "SpanRecord",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "as_tracer",
    "TraceNestingError",
]


class TraceNestingError(RuntimeError):
    """Raised when spans are closed out of order or left dangling."""


@dataclass
class SpanRecord:
    """A completed span: one timed stage of the solve pipeline."""

    span_id: int
    parent_id: Optional[int]
    name: str
    depth: int
    t_start: float
    t_end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def to_record(self) -> Dict[str, Any]:
        """JSON-serializable dict (one JSONL line, sans type tag)."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "attrs": self.attrs,
        }


class Span:
    """An open span handle; close via context-manager exit or ``close``."""

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "depth", "t_start", "attrs")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        depth: int,
        t_start: float,
        attrs: Dict[str, Any],
    ):
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.depth = depth
        self.t_start = t_start
        self.attrs = attrs

    def set(self, key: str, value: Any) -> "Span":
        """Attach (or overwrite) one attribute; chainable."""
        self.attrs[key] = value
        return self

    def update(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def close(self) -> None:
        self._tracer._close(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.close()
        return False


class _NullSpan:
    """Shared no-op span handle: every method discards its arguments."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self

    def update(self, **attrs: Any) -> "_NullSpan":
        return self

    def close(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The do-nothing default: keeps instrumented hot paths free.

    ``span`` hands back one preallocated :class:`_NullSpan`, so with
    tracing off an instrumented loop costs one attribute lookup and one
    call per stage — no allocations, no timestamps.
    """

    __slots__ = ()

    active = False

    def span(self, name: str, /, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def absorb(
        self,
        spans: List[Any],
        counters: Optional[Dict[str, float]] = None,
        gauges: Optional[Dict[str, float]] = None,
        source: Optional[str] = None,
        rebase: bool = True,
    ) -> None:
        pass

    def counter(self, name: str, value: Union[int, float] = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass


NULL_TRACER = NullTracer()

TracerLike = Union["Tracer", NullTracer]


def as_tracer(tracer: Optional[TracerLike]) -> TracerLike:
    """Normalize an optional ``tracer=`` argument to a usable tracer."""
    return NULL_TRACER if tracer is None else tracer


class Tracer:
    """Recording tracer: spans nest on an explicit stack.

    Parameters
    ----------
    manifest:
        Run-level metadata (grid size, Reynolds, seed, code version...)
        exported as the JSONL header line by
        :func:`repro.trace.exporter.write_trace`.
    clock:
        Monotonic time source; injectable for tests.
    """

    active = True

    def __init__(
        self,
        manifest: Optional[Dict[str, Any]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.manifest: Dict[str, Any] = dict(manifest or {})
        self._clock = clock
        self._stack: List[Span] = []
        self._next_id = 1
        self.spans: List[SpanRecord] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}

    # -- spans --------------------------------------------------------

    def span(self, name: str, /, **attrs: Any) -> Span:
        """Open a child span of whatever span is currently innermost.

        ``name`` is positional-only so an attribute literally named
        ``name`` (or ``self``) stays an attribute instead of colliding
        with the parameter.
        """
        parent = self._stack[-1] if self._stack else None
        handle = Span(
            tracer=self,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            name=str(name),
            depth=len(self._stack),
            t_start=self._clock(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(handle)
        return handle

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            open_names = [s.name for s in self._stack]
            raise TraceNestingError(
                f"span {span.name!r} closed out of order; open stack: {open_names}"
            )
        self._stack.pop()
        self.spans.append(
            SpanRecord(
                span_id=span.span_id,
                parent_id=span.parent_id,
                name=span.name,
                depth=span.depth,
                t_start=span.t_start,
                t_end=self._clock(),
                attrs=span.attrs,
            )
        )

    def check_closed(self) -> None:
        """Raise if any span is still open (export-time hygiene)."""
        if self._stack:
            raise TraceNestingError(
                f"{len(self._stack)} span(s) still open: "
                f"{[s.name for s in self._stack]}"
            )

    # -- grafting -------------------------------------------------------

    def absorb(
        self,
        spans: List[Any],
        counters: Optional[Dict[str, float]] = None,
        gauges: Optional[Dict[str, float]] = None,
        source: Optional[str] = None,
        rebase: bool = True,
    ) -> None:
        """Graft completed span records from another tracer into this one.

        The runtime's worker processes each record their own tracer (a
        tracer cannot be shared across process boundaries); the parent
        absorbs the returned records so the merged trace reads as one
        story. Spans may be :class:`SpanRecord` instances or their
        ``to_record()`` dicts. Ids are renumbered into this tracer's
        namespace, shard-local parent links are preserved, and spans
        with no parent are attached to the currently innermost open
        span (the parent's ``solve_attempt``). Counters are summed;
        gauges take the absorbed value.

        ``rebase`` (default on) re-bases the absorbed timestamps onto
        *this* tracer's clock: ``time.perf_counter()`` has a
        per-process origin, so a pool worker's raw ``t_start``/``t_end``
        are not comparable to the parent's spans. The absorbed window
        is shifted rigidly so its latest ``t_end`` lands at the parent
        clock's *now* (the worker finished just before the parent
        processed its report); durations are differences, so every span
        and phase-sum duration is preserved exactly, while the merged
        timeline becomes monotone on one clock. Pass ``rebase=False``
        to keep raw foreign timestamps (e.g. when replaying records
        already on this clock).
        """
        parent = self._stack[-1] if self._stack else None
        base_depth = len(self._stack)
        records = [span if isinstance(span, dict) else span.to_record() for span in spans]
        offset = 0.0
        if rebase and records:
            latest_end = max(float(record.get("t_end", 0.0)) for record in records)
            offset = self._clock() - latest_end
        id_map: Dict[int, int] = {}
        for record in records:
            id_map[record["id"]] = self._next_id
            self._next_id += 1
        for record in records:
            attrs = dict(record.get("attrs") or {})
            if source is not None:
                attrs.setdefault("source", source)
            old_parent = record.get("parent")
            if old_parent is not None and old_parent in id_map:
                new_parent: Optional[int] = id_map[old_parent]
            else:
                new_parent = parent.span_id if parent is not None else None
            self.spans.append(
                SpanRecord(
                    span_id=id_map[record["id"]],
                    parent_id=new_parent,
                    name=record["name"],
                    depth=base_depth + int(record.get("depth", 0)),
                    t_start=float(record.get("t_start", 0.0)) + offset,
                    t_end=float(record.get("t_end", 0.0)) + offset,
                    attrs=attrs,
                )
            )
        for name, value in (counters or {}).items():
            self.counter(name, value)
        for name, value in (gauges or {}).items():
            self.gauge(name, value)

    # -- counters and gauges --------------------------------------------

    def counter(self, name: str, value: Union[int, float] = 1) -> None:
        """Add ``value`` to a named monotonic counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of a named gauge."""
        self.gauges[name] = float(value)

    # -- queries ----------------------------------------------------------

    def spans_named(self, name: str) -> List[SpanRecord]:
        return [record for record in self.spans if record.name == name]

    def total_duration(self, name: str) -> float:
        return sum(record.duration for record in self.spans_named(name))
