"""Graceful-shutdown plumbing shared by trajectories and batch runs.

SIGTERM (the orchestrator's "please stop") and SIGINT (a human's
Ctrl-C) should not be crashes. A :class:`GracefulShutdown` installed
around a run converts the first signal into a *request* — a flag the
checkpointer and runtime poll at safe points (after a completed time
step, between batch outcomes) so they can flush a final snapshot or
journal record and mark the run ``interrupted`` before exiting. A
second signal of the same kind falls through to the previous handler
(normally: die), so an operator is never more than two Ctrl-C's away
from a hard stop.

:class:`RunInterrupted` deliberately derives from ``BaseException``:
the runtime's attempt executor has a total ``except Exception`` guard
(an attempt must never take down the batch), and a shutdown request
must not be swallowed into a "failed attempt" by that guard.
"""

from __future__ import annotations

import signal
import threading
from types import FrameType
from typing import Optional

__all__ = ["GracefulShutdown", "RunInterrupted"]

_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class RunInterrupted(BaseException):
    """A shutdown request surfaced at a safe point in a run.

    BaseException, not Exception: blanket ``except Exception`` recovery
    guards (worker attempts, retry loops) must let this propagate to
    the run loop that knows how to checkpoint and exit cleanly.
    """


class GracefulShutdown:
    """Latch SIGTERM/SIGINT into a pollable flag.

    Usage::

        with GracefulShutdown() as shutdown:
            checkpoint = TrajectoryCheckpointer(path, shutdown=shutdown)
            resume_trajectory(stepper, y0, steps, checkpoint)

    Install/uninstall only works from the main thread (a Python
    ``signal`` restriction); elsewhere the context manager degrades to
    a plain flag that :meth:`request` can still set programmatically.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._received: Optional[int] = None
        self._previous = {}
        self._installed = False

    # -- flag side ------------------------------------------------------

    @property
    def requested(self) -> bool:
        return self._event.is_set()

    def request(self, signum: Optional[int] = None) -> None:
        """Set the flag programmatically (tests, embedding hosts)."""
        if self._received is None:
            self._received = signum
        self._event.set()

    # -- signal side ----------------------------------------------------

    def _handle(self, signum: int, frame: Optional[FrameType]) -> None:
        if self._event.is_set():
            # Second signal: restore the old disposition and re-raise it
            # so "Ctrl-C twice" still kills a wedged run.
            self._uninstall()
            signal.raise_signal(signum)
            return
        self.request(signum)

    def install(self) -> "GracefulShutdown":
        if self._installed:
            return self
        if threading.current_thread() is not threading.main_thread():
            return self
        for signum in _SIGNALS:
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):
                continue
        self._installed = True
        return self

    def _uninstall(self) -> None:
        if not self._installed:
            return
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass
        self._previous.clear()
        self._installed = False

    def __enter__(self) -> "GracefulShutdown":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self._uninstall()
