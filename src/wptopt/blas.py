"""One BLAS thread for the length of a command.

A design is a long run of small products. A few products per command cross
OpenBLAS's threading threshold, such as the sampled consumption's
``[rows, 2 n_f] @ [2 n_f, samples]`` product. Each such call wakes OpenBLAS's
worker threads, which then busy-wait for a while after it returns. With
designs of about 0.1 s the workers never go back to sleep, so a one-thread
workload keeps a second core busy and its wall time follows whatever else the
host runs.
``single_thread`` sets OpenBLAS to one thread for a block and restores the
previous count afterwards; ``cli.main`` runs every command inside it.

The thread count is set through the OpenBLAS that numpy ships in its wheel
(``numpy.libs``). When numpy links another BLAS, ``single_thread`` does
nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

# (getter, setter) names in the wheels of numpy 2 and of numpy 1.26
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"))


@functools.cache
def _thread_control():
    """``(get, set)`` of the thread count of numpy's bundled OpenBLAS, or None."""
    for path in sorted(glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                              "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextlib.contextmanager
def single_thread():
    """Run the block with OpenBLAS on one thread; restore the count after."""
    control = _thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
