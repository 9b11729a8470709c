"""The kernels in :mod:`crowdtrack.kernels` are plain numpy/Python; nothing is JIT-compiled."""

NUMBA_ENABLED = False
