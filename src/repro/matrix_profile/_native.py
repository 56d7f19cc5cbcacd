"""Build and load the optional compiled STOMP kernel.

The container images this library targets do not ship numba or Cython,
but they do ship a C toolchain — so the "compiled backend" is a single C
file (``_stomp_kernel.c``) compiled on first use with the system compiler
and loaded through :mod:`ctypes`.  Everything is best-effort: any failure
(no compiler, read-only install, bad cc) marks the backend unavailable
with a recorded reason, and :mod:`repro.matrix_profile.kernels` falls
back to the numpy row-block kernel.

Environment knobs
-----------------
``REPRO_NO_NATIVE=1``
    Never build or load the compiled kernel (forces the fallback path —
    this is what the CI fallback leg sets).
``REPRO_NATIVE_CACHE=<dir>``
    Where the compiled shared object is cached.  Defaults to
    ``_native_cache/`` next to this module (git-ignored); the cache file
    is keyed by a hash of the source and flags, so editing the C source
    or flags rebuilds instead of loading a stale object.

Compiler flags
--------------
``-ffp-contract=off`` is load-bearing, not an optimisation preference:
the kernel is pinned bit-for-bit against the numpy kernel, and both FMA
contraction of the recurrence and (worse) of Dekker's ``two_product``
would silently change results.  No ``-ffast-math`` for the same reason.

The common-case STOMP row runs four columns per instruction on x86-64
CPUs with AVX2 (:func:`row_path`), and the scalar loop everywhere else.
That routine alone is compiled for AVX2, through a ``target("avx2")``
attribute on its functions, and the kernel takes it only where
``__builtin_cpu_supports("avx2")`` says the CPU has it; everything else
in the file keeps the baseline instruction set.  The
flags stay as they are, with no ``-march=native``, ``-mavx2`` or ``-O3``:
compiling the whole file with ``-march=native`` or ``-mavx2`` made the
scalar row loop 2.3-2.4x slower (1.75 → 4.0-4.3 ns per column on a 2-vCPU
x86-64 VM) and would hand the partial-profile store and SCRIMP the same
risk.  ``-O3`` read 1.5-1.7 against 1.7-1.8 ns in the same run, a
margin the vector row (0.9 ns) leaves far behind.  The attribute names
``avx2`` and never ``avx2,fma``: a fused multiply-add would change
roundings just as contraction would.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import threading

import numpy as np
from numpy.ctypeslib import ndpointer

__all__ = ["load", "available", "unavailable_reason", "reset", "row_path"]

DISABLE_ENV = "REPRO_NO_NATIVE"
CACHE_ENV = "REPRO_NATIVE_CACHE"

_SOURCE = os.path.join(os.path.dirname(__file__), "_stomp_kernel.c")
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")

_lib = None
_attempted = False
_reason: "str | None" = None
#: Serialises the first load attempt: a caller arriving while another
#: thread compiles waits for the outcome instead of reading "unavailable".
_load_lock = threading.Lock()


def _find_compiler() -> "str | None":
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate:
            path = shutil.which(candidate)
            if path:
                return path
    return None


def _cache_dir() -> str:
    return os.environ.get(CACHE_ENV) or os.path.join(
        os.path.dirname(__file__), "_native_cache"
    )


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    c_double_arr = ndpointer(np.float64, flags="C_CONTIGUOUS")
    c_index_arr = ndpointer(np.int64, flags="C_CONTIGUOUS")
    i64 = ctypes.c_longlong
    lib.repro_stomp_segment.restype = None
    lib.repro_stomp_segment.argtypes = [
        c_double_arr,  # values
        i64,  # window
        i64,  # count
        c_double_arr,  # means
        c_double_arr,  # stds
        c_double_arr,  # inv_stds
        c_double_arr,  # coef
        c_double_arr,  # first_col
        c_double_arr,  # qt
        i64,  # start
        i64,  # stop
        i64,  # radius
        ctypes.c_int,  # compensated
        ctypes.c_int,  # has_const
        c_double_arr,  # profile
        c_index_arr,  # indices
    ]
    # The same entry with every array passed as a raw address, for callers
    # that convert their fixed arrays once and sweep many short row runs.
    lib.repro_stomp_segment_at = lib["repro_stomp_segment"]
    lib.repro_stomp_segment_at.restype = None
    lib.repro_stomp_segment_at.argtypes = [
        ctypes.c_void_p if arg in (c_double_arr, c_index_arr) else arg
        for arg in lib.repro_stomp_segment.argtypes
    ]
    lib.repro_ab_join_segment.restype = None
    lib.repro_ab_join_segment.argtypes = [
        c_double_arr,  # values_a
        c_double_arr,  # values_b
        i64,  # window
        i64,  # count_b
        c_double_arr,  # means_a
        c_double_arr,  # stds_a
        c_double_arr,  # means_b
        c_double_arr,  # stds_b
        c_double_arr,  # inv_stds_b
        c_double_arr,  # coef_a
        c_double_arr,  # first_col
        c_double_arr,  # qt
        i64,  # start
        i64,  # stop
        ctypes.c_int,  # compensated
        ctypes.c_int,  # has_const
        c_double_arr,  # profile
        c_index_arr,  # indices
    ]
    lib.repro_scrimp_block.restype = None
    lib.repro_scrimp_block.argtypes = [
        c_double_arr,  # values
        i64,  # n
        i64,  # window
        i64,  # count
        c_double_arr,  # means
        c_double_arr,  # stds
        c_index_arr,  # diagonals
        i64,  # num_diagonals
        ctypes.c_int,  # compensated
        c_double_arr,  # csum scratch (n + 1)
        c_double_arr,  # dist scratch (count)
        c_double_arr,  # distances (in/out)
        c_index_arr,  # indices (in/out)
    ]
    c_flag_arr = ndpointer(np.bool_, flags="C_CONTIGUOUS")
    lib.repro_stomp_rows_segment.restype = None
    lib.repro_stomp_rows_segment.argtypes = [
        *lib.repro_stomp_segment.argtypes,
        i64,  # seed (the segment's seed row)
        c_double_arr,  # rows (stop - start, count; out)
    ]
    lib.repro_store_ingest.restype = None
    lib.repro_store_ingest.argtypes = [
        c_double_arr,  # rows (num_rows, count)
        i64,  # num_rows
        i64,  # count
        i64,  # first (offset of rows[0])
        i64,  # store base length
        c_double_arr,  # store base means (centered)
        c_double_arr,  # store base stds
        i64,  # store trivial-match radius
        ctypes.c_int,  # store compensated
        i64,  # capacity
        i64,  # row_start
        c_index_arr,  # neighbors (rows, capacity)
        c_double_arr,  # dot_products (rows, capacity)
        c_double_arr,  # base_correlations (rows, capacity)
        c_double_arr,  # pruned_correlation_ceiling (rows)
        c_flag_arr,  # complete (rows)
        c_flag_arr,  # unbounded (rows)
        c_flag_arr,  # populated (rows)
        c_double_arr,  # heap_corr scratch (capacity)
        c_index_arr,  # heap_off scratch (capacity)
    ]
    lib.repro_store_advance.restype = None
    lib.repro_store_advance.argtypes = [
        c_double_arr,  # values (centered)
        i64,  # n
        i64,  # row_start
        i64,  # row_stop
        i64,  # capacity
        c_index_arr,  # neighbors (rows, capacity)
        c_double_arr,  # dot_products (rows, capacity, in/out)
        i64,  # from_length
        i64,  # to_length
        c_index_arr,  # cap scratch (rows)
    ]
    lib.repro_row_path.restype = ctypes.c_int
    lib.repro_row_path.argtypes = []
    lib.repro_store_minima.restype = None
    lib.repro_store_minima.argtypes = [
        c_index_arr,  # neighbors (rows, capacity)
        c_double_arr,  # dot_products (rows, capacity)
        i64,  # num_rows
        i64,  # capacity
        i64,  # length
        i64,  # radius
        c_double_arr,  # means (centered, at length)
        c_double_arr,  # stds (at length)
        ctypes.c_int,  # compensated
        c_double_arr,  # min_distances (out)
        c_index_arr,  # min_indices (out)
    ]
    return lib


def _build_and_load():
    if os.environ.get(DISABLE_ENV, "") not in ("", "0"):
        raise RuntimeError(f"disabled via {DISABLE_ENV}")
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")
    with open(_SOURCE, "rb") as handle:
        source = handle.read()
    digest = hashlib.sha256(source + "\0".join(_CFLAGS).encode()).hexdigest()[:16]
    cache = _cache_dir()
    target = os.path.join(cache, f"stomp_kernel_{digest}.so")
    if not os.path.exists(target):
        os.makedirs(cache, exist_ok=True)
        scratch = f"{target}.{os.getpid()}.tmp"
        command = [compiler, *_CFLAGS, "-o", scratch, _SOURCE, "-lm"]
        result = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=False
        )
        if result.returncode != 0:
            raise RuntimeError(
                f"compile failed ({' '.join(command)}): {result.stderr.strip()[:500]}"
            )
        os.replace(scratch, target)  # atomic: concurrent builders race benignly
    return _declare(ctypes.CDLL(target))


def load():
    """The loaded kernel library, or ``None`` (reason via :func:`unavailable_reason`).

    The first call pays the (cached) compile; subsequent calls are a
    module-global read.  Failures are remembered — one attempt per
    process, never an exception to the caller.  Threads that call during
    the first attempt wait for it and get its outcome.
    """
    global _lib, _attempted, _reason
    if not _attempted:
        with _load_lock:
            if not _attempted:
                try:
                    _lib = _build_and_load()
                except Exception as error:  # noqa: BLE001 - availability probe
                    _lib = None
                    _reason = str(error)
                _attempted = True
    return _lib


def available() -> bool:
    return load() is not None


def unavailable_reason() -> "str | None":
    load()
    return _reason


#: ``repro_row_path()`` codes, in the C kernel's order.
_ROW_PATHS = ("scalar", "avx2")


def row_path() -> "str | None":
    """The compiled kernel's common-case row routine, or ``None`` without one.

    ``"avx2"`` (x86-64 with AVX2) or ``"scalar"`` (the one-column loop:
    every other CPU and architecture).
    """
    lib = load()
    return None if lib is None else _ROW_PATHS[lib.repro_row_path()]


def reset() -> None:
    """Forget the cached load attempt (tests flip the env knobs)."""
    global _lib, _attempted, _reason
    with _load_lock:
        _lib = None
        _attempted = False
        _reason = None
