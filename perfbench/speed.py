"""Machine-speed calibration.

The machine this benchmark was tuned on is shared: its speed drifts by tens
of percent over seconds, and by up to 1.8x between runs a minute apart,
while CPU time stays equal to wall time.  So every run times a fixed
calibration after each question and after each set-up, outside the timed
regions, and reports its times at a reference speed: a latency is scaled by
the calibration's reference time over the median calibration time of the
questions around it (cases.at_reference_speed), and setup_s by the same
ratio for the set-ups.  The in-process workloads time `kernel` below, code
of the benchmark's own made of element loops over a small numpy array like
the library's simplex and enumeration kernels; `cli` times a child that only
imports numpy (cli_workload.reference_child), since the kernel, run in the
measuring process, does not follow how fast children start.  No change to
gptsteer moves either.  The stamp keeps the unscaled figures.
"""

import time

import numpy as np

REFERENCE_S = 1e-3   # kernel time that defines the reference speed
_N = 14
_MATRIX = np.eye(_N) * (_N + 1.0) + np.cos(np.arange(_N * (_N + 1))).reshape(
    _N, _N + 1)[:, :_N]
_RHS = np.sin(np.arange(_N) + 1.0)


def kernel():
    """Gaussian elimination with partial pivoting on a fixed 14x14 system,
    element by element; returns the last unknown."""
    M = np.column_stack([_MATRIX, _RHS])
    n = _N
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if abs(M[i, k]) > abs(M[p, k]):
                p = i
        if p != k:
            M[[k, p]] = M[[p, k]]
        for i in range(k + 1, n):
            f = M[i, k] / M[k, k]
            for j in range(k, n + 1):
                M[i, j] -= f * M[k, j]
    return M[n - 1, n] / M[n - 1, n - 1]


def time_kernel():
    """Wall seconds of one kernel call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
