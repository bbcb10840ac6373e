"""Kernel backend selection.

The scalar kernels in kernels.py (`simplex_phase`, `symmetry_search`) are
written once as plain Python over numpy arrays.  When numba is importable
and GPTSTEER_NO_NUMBA is unset they are compiled with @njit at import time;
otherwise the same source runs uncompiled.  The uncompiled simplex is also
reused by the exact-rational LP mode, which feeds it object arrays of
fractions.Fraction (numba never sees those).  Keep kernel arithmetic free
of float literals so that reuse stays exact.
"""

import os

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - mirror environments without numba
    numba = None
    HAVE_NUMBA = False

_flag = os.environ.get("GPTSTEER_NO_NUMBA", "").strip().lower()
USE_NUMBA = HAVE_NUMBA and _flag not in ("1", "true", "yes")


def compile_kernel(fn):
    """Return the njit-compiled fn on the numba path, fn itself otherwise."""
    if USE_NUMBA:
        return numba.njit(cache=True)(fn)
    return fn
