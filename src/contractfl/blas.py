"""Thread control for the OpenBLAS that numpy bundles, through ctypes.

OpenBLAS may split one matrix product across threads, and the split changes
the order of its float sums, so a run's bytes depend on the thread count.
`cli.main` pins one thread for every subcommand through `set_blas_threads`;
importing this module, or any other, changes nothing.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import os

import numpy as np

logger = logging.getLogger(__name__)

# (prefix, suffix) of the OpenBLAS symbol names, in the order tried: numpy's
# scipy-openblas wheels, other 64-bit-integer builds, plain builds
_NAMINGS = (("scipy_", "64_"), ("", "64_"), ("", ""))


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS with its symbol naming, or None."""
    libdir = os.path.dirname(np.__file__) + ".libs"
    if not os.path.isdir(libdir):
        return None
    for fname in sorted(os.listdir(libdir)):
        if "openblas" not in fname:
            continue
        try:
            lib = ctypes.CDLL(os.path.join(libdir, fname))
        except OSError:
            continue
        for prefix, suffix in _NAMINGS:
            if hasattr(lib, f"{prefix}openblas_get_num_threads{suffix}"):
                return lib, prefix, suffix
    return None


def _function(name: str, restype, argtypes=()):
    found = _openblas()
    if found is None:
        return None
    lib, prefix, suffix = found
    fn = getattr(lib, f"{prefix}{name}{suffix}", None)
    if fn is not None:
        fn.restype = restype
        fn.argtypes = argtypes
    return fn


def blas_info() -> dict:
    """OpenBLAS build string and live thread count; None where not known."""
    get_threads = _function("openblas_get_num_threads", ctypes.c_int)
    get_config = _function("openblas_get_config", ctypes.c_char_p)
    return {"blas_threads": get_threads() if get_threads else None,
            "openblas_config": get_config().decode() if get_config else None}


def set_blas_threads(n: int) -> int | None:
    """Run OpenBLAS on `n` threads and return the count it had before.

    Without a known thread setter nothing changes: one WARNING names the
    live thread count, and the return value is None.
    """
    setter = _function("openblas_set_num_threads", None, (ctypes.c_int,))
    previous = blas_info()["blas_threads"]
    if setter is None:
        logger.warning(
            "no known OpenBLAS thread setter in numpy's libraries, so BLAS keeps "
            "%s threads and artifact bytes may depend on that count",
            "an unknown number of" if previous is None else previous)
        return None
    setter(n)
    return previous
