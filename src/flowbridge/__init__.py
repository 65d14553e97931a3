"""Flow-matching bridges with chunked minibatch OT couplings."""

import ctypes

__version__ = "0.1.0"


def _pin_malloc_thresholds():
    # glibc serves a block above M_MMAP_THRESHOLD (128 KiB at start) with its
    # own mmap and gives the heap's free top back to the system above
    # M_TRIM_THRESHOLD, so a training step's large temporaries can be
    # page-faulted in again on every step. Its dynamic thresholds rise to these
    # values (32 MiB is the cap, and it trims at twice the mmap threshold) only
    # once a 32 MiB block has been freed, so whether they do depends on the
    # process's history; setting them at import keeps freed memory in the heap
    # for reuse in every process.
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_pin_malloc_thresholds()
