"""The machine and software a result was measured on."""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path


def cpu_ticks() -> dict[str, int] | None:
    """Aggregate CPU ticks from /proc/stat (read only); None off Linux.

    ``steal`` is time the hypervisor gave this machine's virtual CPUs to
    someone else; a run whose steal share jumps is a noisy run.
    """
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    values = [int(v) for v in fields[1:]]
    return {"steal": values[7] if len(values) > 7 else 0, "total": sum(values[:8])}


# What the reference loop takes on the 2-vCPU Xeon host the benchmark was
# tuned on when nothing else slows it down (fastest readings 5.1 to 5.5 ms).
# Timings are scaled to this speed; the constant only sets the scale and
# must stay fixed so that results of different commits compare.
REFERENCE_S = 0.0055

_TEXT = "\n".join(str(i % 7) for i in range(3000))


def reference_s() -> float:
    """Seconds of one fixed loop that reads how fast this CPU runs right now.

    The host's speed changes in phases of seconds to minutes that slow the
    same work by up to 2x, and CPU time slows with it, so it is not time
    stolen from the process. Different work slows by different amounts
    (parsing text by about twice as much as a matrix product), so the loop
    gives about equal time to each kind of work the program does: small
    numpy calls, a matrix product of the encoder's size, parsing text into
    ints, and plain Python arithmetic. 5 to 10 ms.
    """
    import numpy as np

    scores = np.linspace(-1.0, 1.0, 320).reshape(64, 5)
    x = np.linspace(-1.0, 1.0, 512 * 64).reshape(512, 64)
    w = np.linspace(-1.0, 1.0, 64 * 60).reshape(64, 60)
    started = time.perf_counter()
    for _ in range(240):
        np.log(np.exp(scores).sum(axis=1)).sum()
    for _ in range(6):
        np.maximum(x @ w, 0.0).sum()
    for _ in range(3):
        [int(v) for v in _TEXT.split()]
    total = 0
    for i in range(25000):
        total += i * i
    return time.perf_counter() - started


def reference_ms() -> float:
    """Median of seven reference loops, in ms: the host's speed at one moment."""
    return statistics.median(reference_s() for _ in range(7)) * 1e3


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict[str, str]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": str(blas.get("name")), "version": str(blas.get("version"))}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def describe(
    workload: str,
    seed: int,
    blas_threads: int,
    ticks_before: dict[str, int] | None,
    ticks_after: dict[str, int] | None,
    reference: tuple[float, float],
) -> dict:
    import numpy as np
    import scipy

    steal = None
    if ticks_before and ticks_after:
        total = ticks_after["total"] - ticks_before["total"]
        stolen = ticks_after["steal"] - ticks_before["steal"]
        steal = {
            "before": ticks_before["steal"],
            "after": ticks_after["steal"],
            "ticks": stolen,
            "share": stolen / total if total else 0.0,
        }
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": blas_threads,
        "host_steal": steal,
        "reference_loop_ms": {"before": reference[0], "after": reference[1]},
    }
