"""Machine-speed probes that scale wall times to a reference speed.

The 2-vCPU reference machine shares its host, and its speed switches between
a fast and a slow state that last from a few seconds to minutes.  In the slow
state interpreter-bound code, which is most of ``els`` (Python loops over
small numpy arrays), runs up to twice as long; BLAS-bound code runs about a
quarter longer.  A run of the benchmark is shorter than a slow spell, so a
raw wall time says more about the state the run met than about the program.

Each timed interval is therefore bracketed by two probes of fixed work that
does not touch ``els`` and is of the same kind as the interval:

* ``probe`` times a kernel of Python loops over tiny dense linear algebra,
  like the program's hot paths, for solves in this process.  It holds no
  large BLAS call: those speed up less than interpreted code when the host
  quietens, and a probe dominated by one stopped tracking the program.
* ``spawn_probe`` times a fresh interpreter that imports numpy, for the
  intervals that start one or import ``els`` (set-ups and ``els solve``
  runs).  Starting an interpreter and importing slows more than the kernel
  in the slow state.

``scaled`` returns the interval's wall time times ``reference / probe``,
where ``probe`` is the mean of the two brackets: the time the interval would
take on a machine whose probe reads ``reference``.  A change to ``els``
moves the interval and not the probe, so it shows in full; a change of
machine state moves both and mostly cancels.

numpy is loaded on the first kernel probe, so that a spawn probe can run
before ``import els`` without loading numpy into this process.
"""

from __future__ import annotations

import functools
import subprocess
import sys
import time

# Round figures near the probe times on the reference machine (2-vCPU Xeon,
# Python 3.11, numpy 2.4 on OpenBLAS with one thread) in its fast state,
# about 4 ms and 0.1 s.  They set the scale of the reported times only.
REFERENCE_PROBE_S = 0.005
REFERENCE_SPAWN_S = 0.1
PROBE_REPEATS = 3  # the fastest of three drops a probe cut by an interrupt
SPAWN_TIMEOUT_S = 60


@functools.cache
def _kernel_data():
    import numpy as np

    rng = np.random.default_rng(7)
    return np, [rng.standard_normal((8, 8)) for _ in range(6)], np.eye(8)


def _kernel() -> float:
    np, small, eye = _kernel_data()
    acc = 0.0
    for _ in range(36):
        for M in small:
            H = M @ M.T + eye
            acc += float(np.linalg.solve(H, M[:, 0])[0]) + float(np.linalg.eigvalsh(H)[-1])
            acc += sum(0.5 * i for i in range(50))
    return acc


def probe() -> float:
    """Seconds the kernel takes now, the fastest of ``PROBE_REPEATS``."""
    _kernel_data()
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def spawn_probe() -> float:
    """Seconds a fresh interpreter takes to start and import numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=SPAWN_TIMEOUT_S)
    return time.perf_counter() - t0


def scaled(wall_s: float, before: float, after: float, reference: float = REFERENCE_PROBE_S) -> float:
    """``wall_s`` at the reference speed, from the probes around it."""
    return wall_s * reference * 2.0 / (before + after)
