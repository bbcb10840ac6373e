"""Kernel backend flag.

Every kernel in kernels.py is plain Python over numpy arrays; nothing is
compiled.  USE_NUMBA stays as a constant so tools that stamp their runs
with the backend in use keep reading it.
"""

USE_NUMBA = False
