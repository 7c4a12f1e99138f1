"""Thread pinning and the environment fingerprint every result carries."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict

__all__ = ["BLAS_THREAD_VARIABLES", "pin_threads", "host_probe_ms", "fingerprint"]

# With OpenBLAS threads left free, a 20-step BDF2 trajectory at nx = 96
# took 12.4 s (8.6 s in the linear solves) against 2.35 s on one thread:
# the small solves of this program lose to thread hand-off. The
# benchmark pins BLAS to one thread and records the setting.
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    """Pin every BLAS/OpenMP pool to one thread; call before numpy loads."""
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "none (not a git checkout)"
    try:
        completed = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def _source_digest(root: Path) -> str:
    """SHA-256 over ``src/`` (paths and bytes): identifies the program
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms. A shared host
    changes speed by 1.5x and more for minutes at a time; this tells two
    runs made in different phases apart."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def fingerprint(root: Path) -> Dict[str, str]:
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 0
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "cpu": _cpu_model(),
        "nproc": str(usable),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "host_probe_ms": f"{host_probe_ms():.3f}",
    }
