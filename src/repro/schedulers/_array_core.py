"""ctypes loader for the compiled array-engine core.

``_array_core.c`` compiles to a plain shared library (no Python.h, no
Cython) sitting next to this module as ``lib_array_core.so`` — named so the
import system never mistakes it for an extension module; build it with
``python tools/build_array_core.py``.  It is the array engine's only event
loop: when the library is absent or fails to load, :data:`RUN_SERIALIZED`
is ``None`` and ``engine_backend="array"`` requests run on the object
engine instead — same results, lower throughput.

The exported entry point runs the entire serialized simulation over flat
numpy buffers and fills per-event output columns plus a counter block; see
the C source for the exact contract (return codes, counter indices).
"""

from __future__ import annotations

import ctypes
import os
from typing import Optional

import numpy as np
from numpy.ctypeslib import ndpointer

__all__ = ["RUN_SERIALIZED", "N_COUNTERS", "lib_path"]

#: Size of the int64 counter block the C core fills (see _array_core.c).
N_COUNTERS = 12

_i32 = ndpointer(dtype=np.int32, flags="C_CONTIGUOUS")
_i64 = ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_f64 = ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")


def lib_path() -> str:
    """Where the compiled core is expected to live."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "lib_array_core.so")


def _load() -> Optional[ctypes._CFuncPtr]:  # type: ignore[name-defined]
    path = lib_path()
    if not os.path.exists(path):
        return None
    try:
        lib = ctypes.CDLL(path)
        fn = lib.repro_run_serialized
    except (OSError, AttributeError):  # pragma: no cover - corrupt build
        return None
    fn.restype = ctypes.c_int
    fn.argtypes = [
        ctypes.c_int64,  # n_tasks
        ctypes.c_int32,  # n_workers
        _i32,  # kernel_ids
        _i32,  # widths
        _i64,  # priorities
        _i64,  # deps_left (mutated scratch copy)
        _i64,  # succ_indptr
        _i32,  # succ_indices
        _i32,  # tf_kind (per kernel id)
        _f64,  # tf_a
        _f64,  # tf_b
        _f64,  # zs
        ctypes.c_double,  # warmup_penalty
        ctypes.c_int32,  # master_is_worker
        ctypes.c_int64,  # window
        ctypes.c_double,  # insert_cost
        ctypes.c_double,  # dispatch_overhead
        ctypes.c_double,  # completion_cost
        ctypes.c_int32,  # queue_kind (0 fifo / 1 priority / 2 lifo)
        ctypes.c_int32,  # bounce_enabled
        _i32,  # out_worker
        _i32,  # out_tid
        _f64,  # out_start
        _f64,  # out_end
        _i64,  # counters[N_COUNTERS]
    ]
    return fn


#: The compiled entry point, or ``None`` when no library is built.
RUN_SERIALIZED = _load()
