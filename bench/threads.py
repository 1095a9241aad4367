"""BLAS thread pinning. Kept free of numpy so it can run before numpy loads."""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin():
    """Set every BLAS thread variable to 1; numpy must not be loaded yet."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned to 1")
    for var in THREAD_VARS:
        old = os.environ.get(var)
        if old not in (None, "1"):
            print(f"bench: overriding {var}={old} with 1", file=sys.stderr)
        os.environ[var] = "1"


def check():
    """Raise unless every BLAS thread variable is 1."""
    bad = {var: os.environ.get(var) for var in THREAD_VARS if os.environ.get(var) != "1"}
    if bad:
        raise RuntimeError(f"BLAS thread variables must be 1, got {bad}")
