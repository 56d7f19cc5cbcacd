"""Serial-vs-parallel and kernel scaling of the STOMP computations.

Times one full STOMP profile at n ∈ {2048, 8192, 32768} through the plain
serial sweep (pinned to the ``"oracle"`` kernel — the frozen per-row
reference the fast kernels are measured against), through the engine's
:class:`ParallelExecutor`, and through the fast sweep kernels
(``"numpy"`` row-block, compiled ``"native"`` when buildable), plus
VALMOD's base-pass ingest (STOMP + block-local
:class:`~repro.core.partial_profile.PartialProfileStore` fragments merged
back — the path the mergeable-store refactor parallelised), and records
the wall-clock numbers (plus the derived speedups) into
``BENCH_engine_scaling.json`` at the repository root, so the speedup
trajectory is tracked from this PR onwards.

On a single-core machine the parallel numbers measure pure overhead —
every parallel speedup assertion is therefore gated on the *effective*
core count (scheduler affinity, not ``os.cpu_count()``, which ignores
cgroup and affinity limits); single-core runs still check exactness.
The kernel speedups are same-process single-thread ratios and are
asserted regardless of core count (advisory warnings by default,
enforced under ``ENGINE_SPEEDUP_STRICT=1``) on the median of interleaved
rounds over one row slice, not on the full sweeps timed minutes apart;
every skipped gate says so loudly with a warning, so a green run that
didn't check anything is visible in the log.  The same rounds also time
the native kernel against the numpy kernel — two fast kernels, the same
rows, the same process, so the ratio does not inherit the oracle's drift
with the process's history — and gate it where the native row routine is
vectorised (:func:`repro.matrix_profile._native.row_path`).  Rounds of the
same kind time VALMOD's native base pass (STOMP that retains each row's top
``p`` into a :class:`~repro.core.partial_profile.PartialProfileStore`)
against a plain native STOMP pass over the same series, with an advisory
ceiling on their ratio at the largest size.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.partial_profile import PartialProfileStore
from repro.engine import ParallelExecutor, partitioned_stomp
from repro.generators import generate_random_walk
from repro.matrix_profile import _native
from repro.matrix_profile.exclusion import default_exclusion_radius
from repro.matrix_profile.kernels import available_kernels, run_sweep
from repro.matrix_profile.stomp import stomp
from repro.stats.fft import sliding_dot_product
from repro.stats.sliding import SlidingStats

SIZES = (2048, 8192, 32768)
WINDOW = 128
VALMOD_INGEST_SIZE = 8192
VALMOD_CAPACITY = 16
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine_scaling.json"

#: Sweep kernels timed against the oracle baseline.
FAST_KERNELS = tuple(
    name for name in ("numpy", "native") if name in available_kernels()
)

#: Wall-clock seconds per (size, mode), filled by the timing tests and
#: flushed to RESULT_PATH once complete.
_TIMINGS: dict[int, dict[str, float]] = {}

#: Wall-clock seconds of the VALMOD base-pass ingest case, same shape.
_VALMOD_TIMINGS: dict[str, float] = {}

#: Oracle-kernel profiles stashed by the serial runs so the kernel runs
#: can assert bit-for-bit equality on the benchmark workload itself.
_SERIAL_PROFILES: dict[int, tuple[np.ndarray, np.ndarray]] = {}

#: Query rows of the largest series each kernel sweeps per interleaved
#: round, and the rounds the kernel floors take their median over.
KERNEL_ROUND_ROWS = 1024
KERNEL_ROUNDS = 5

#: Oracle time over kernel time, one entry per round and fast kernel;
#: measured once by :func:`_kernel_round_speedups`.
_ROUND_SPEEDUPS: dict[str, list[float]] = {}

#: Numpy-kernel time over native-kernel time, one entry per round of
#: :func:`_kernel_round_speedups` (empty without a native build).
_ROUND_NATIVE_OVER_NUMPY: list[float] = []

#: Series lengths of the base-pass rounds, and the advisory ceiling on the
#: native base pass over a plain native STOMP pass at the largest.
BASE_PASS_SIZES = (2048, 16384)
BASE_PASS_CEILING = 1.5

#: Per size: seconds of each round's plain pass and base pass, filled once
#: by :func:`_base_pass_rounds`.
_BASE_PASS_ROUNDS: dict[int, dict[str, list[float]]] = {}


def _loud_skip(reason: str) -> None:
    """Skip a gate, but leave a warning in the log — a skipped speedup
    assertion must never masquerade as a checked one."""
    import warnings

    warnings.warn(f"speedup gate skipped: {reason}")
    pytest.skip(reason)


def _effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def _series(n: int) -> np.ndarray:
    return np.array(generate_random_walk(n, random_state=0).values)


def _flush_results() -> None:
    # Merge with whatever a previous (possibly partial / deselected) run
    # recorded: a `-k valmod` run must not clobber the sizes trajectory,
    # and the sizes flush must not erase an earlier ingest section.
    existing: dict = {}
    if RESULT_PATH.exists():
        try:
            existing = json.loads(RESULT_PATH.read_text())
        except (OSError, json.JSONDecodeError):
            existing = {}
    sizes = dict(existing.get("sizes", {}))
    for n, times in sorted(_TIMINGS.items()):
        merged = {**sizes.get(str(n), {}), **times}
        serial = merged.get("serial_seconds")
        merged["speedup"] = (
            serial / merged["parallel_seconds"]
            if serial and merged.get("parallel_seconds")
            else None
        )
        for kernel in ("numpy", "native"):
            seconds = merged.get(f"{kernel}_kernel_seconds")
            if serial and seconds:
                merged[f"{kernel}_kernel_speedup"] = serial / seconds
        sizes[str(n)] = merged
    for kernel, speedups in _ROUND_SPEEDUPS.items():
        sizes.setdefault(str(SIZES[-1]), {})[f"{kernel}_kernel_round_speedups"] = speedups
    if _ROUND_NATIVE_OVER_NUMPY:
        sizes[str(SIZES[-1])]["native_over_numpy_round_speedups"] = _ROUND_NATIVE_OVER_NUMPY
    payload = {
        "window": WINDOW,
        "effective_cores": _effective_cores(),
        "cpu_count": os.cpu_count(),
        "n_jobs": _n_jobs(),
        "serial_kernel": "oracle",
        "native_row_path": _native.row_path(),
        "kernel_round_rows": KERNEL_ROUND_ROWS,
        "sizes": sizes,
    }
    if _VALMOD_TIMINGS:
        payload["valmod_base_pass_ingest"] = {
            "n": VALMOD_INGEST_SIZE,
            "capacity": VALMOD_CAPACITY,
            **_VALMOD_TIMINGS,
            "speedup": (
                _VALMOD_TIMINGS["serial_seconds"] / _VALMOD_TIMINGS["parallel_seconds"]
                if _VALMOD_TIMINGS.get("parallel_seconds")
                else None
            ),
        }
    elif "valmod_base_pass_ingest" in existing:
        payload["valmod_base_pass_ingest"] = existing["valmod_base_pass_ingest"]
    if _BASE_PASS_ROUNDS:
        payload["native_base_pass_vs_stomp"] = {
            "window": WINDOW,
            "capacity": VALMOD_CAPACITY,
            "rounds": KERNEL_ROUNDS,
            "ceiling": BASE_PASS_CEILING,
            "sizes": {
                str(n): {
                    "stomp_median_seconds": statistics.median(times["stomp"]),
                    "base_pass_median_seconds": statistics.median(times["base_pass"]),
                    "ratio": _base_pass_ratio(n),
                }
                for n, times in sorted(_BASE_PASS_ROUNDS.items())
            },
        }
    elif "native_base_pass_vs_stomp" in existing:
        payload["native_base_pass_vs_stomp"] = existing["native_base_pass_vs_stomp"]
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def _n_jobs() -> int:
    return max(2, min(4, _effective_cores()))


@pytest.mark.parametrize("n", SIZES)
def test_scaling_serial(benchmark, n):
    """The serial baseline, pinned to the oracle kernel.

    Without the pin, ``stomp``'s default would auto-resolve to the fast
    kernels this file measures — the baseline must stay the historical
    per-row sweep.
    """
    benchmark.group = f"engine scaling n={n}"
    values = _series(n)
    started = time.perf_counter()
    profile = benchmark.pedantic(
        stomp, args=(values, WINDOW), kwargs={"kernel": "oracle"}, rounds=1, iterations=1
    )
    _TIMINGS.setdefault(n, {})["serial_seconds"] = time.perf_counter() - started
    _SERIAL_PROFILES[n] = (profile.distances, profile.indices)


@pytest.mark.parametrize("kernel", FAST_KERNELS)
@pytest.mark.parametrize("n", SIZES)
def test_scaling_kernels(benchmark, n, kernel):
    """The fast sweep kernels on the same workload, bit-checked against
    the oracle baseline of :func:`test_scaling_serial`."""
    benchmark.group = f"engine scaling n={n}"
    values = _series(n)
    started = time.perf_counter()
    profile = benchmark.pedantic(
        stomp, args=(values, WINDOW), kwargs={"kernel": kernel}, rounds=1, iterations=1
    )
    _TIMINGS.setdefault(n, {})[f"{kernel}_kernel_seconds"] = (
        time.perf_counter() - started
    )
    if n in _SERIAL_PROFILES:
        distances, indices = _SERIAL_PROFILES[n]
        np.testing.assert_array_equal(profile.distances, distances)
        np.testing.assert_array_equal(profile.indices, indices)
    if n == SIZES[-1] and kernel == FAST_KERNELS[-1]:
        _flush_results()


@pytest.mark.parametrize("n", SIZES)
def test_scaling_parallel(benchmark, n):
    benchmark.group = f"engine scaling n={n}"
    values = _series(n)
    with ParallelExecutor(n_jobs=_n_jobs()) as executor:
        started = time.perf_counter()
        benchmark.pedantic(
            partitioned_stomp,
            args=(values, WINDOW),
            kwargs={"executor": executor},
            rounds=1,
            iterations=1,
        )
        _TIMINGS.setdefault(n, {})["parallel_seconds"] = time.perf_counter() - started
    if len(_TIMINGS) == len(SIZES) and all(
        {"serial_seconds", "parallel_seconds"} <= set(times)
        for times in _TIMINGS.values()
    ):
        _flush_results()


def _base_pass_serial(values):
    stats = SlidingStats(values)
    store = PartialProfileStore(values, stats, WINDOW, VALMOD_CAPACITY)
    stomp(values, WINDOW, stats=stats, ingest_store=store)
    return store


def _base_pass_parallel(values, executor):
    stats = SlidingStats(values)
    store = PartialProfileStore(values, stats, WINDOW, VALMOD_CAPACITY)
    partitioned_stomp(
        values, WINDOW, stats=stats, executor=executor, ingest_store=store
    )
    return store


def test_scaling_valmod_base_pass_ingest(benchmark):
    """VALMOD's dominant cost — the base STOMP pass that seeds the
    partial-profile store — through the serial sweep and through
    block-local fragment ingest on the process pool (shared-memory series
    transport when available).  Exactness of the merged store is asserted
    unconditionally; wall-clock lands in ``BENCH_engine_scaling.json``.
    """
    benchmark.group = "valmod base-pass ingest"
    values = _series(VALMOD_INGEST_SIZE)

    started = time.perf_counter()
    serial_store = _base_pass_serial(values)
    _VALMOD_TIMINGS["serial_seconds"] = time.perf_counter() - started

    with ParallelExecutor(n_jobs=_n_jobs()) as executor:
        started = time.perf_counter()
        parallel_store = benchmark.pedantic(
            _base_pass_parallel, args=(values, executor), rounds=1, iterations=1
        )
        _VALMOD_TIMINGS["parallel_seconds"] = time.perf_counter() - started

    # Single-core runs check exactness only: the merged per-block store must
    # agree with the serial sweep's store — pairs identical, distances
    # within the library's standard 1e-8 (the monolithic chain and the
    # block-seeded chains accumulate different ~1e-11 recurrence drift at
    # this size; identical-plan merges are bit-for-bit, pinned in
    # tests/test_partial_profile_merge.py).
    length = WINDOW + 8
    eval_serial = serial_store.evaluate(length)
    eval_parallel = parallel_store.evaluate(length)
    np.testing.assert_array_equal(eval_serial.min_indices, eval_parallel.min_indices)
    finite = np.isfinite(eval_serial.min_distances)
    np.testing.assert_allclose(
        eval_serial.min_distances[finite],
        eval_parallel.min_distances[finite],
        atol=1e-8,
        rtol=0,
    )
    _flush_results()


def test_valmod_ingest_speedup_on_multicore():
    """Speedup gate for the base-pass ingest — skipped below 2 effective
    cores (single-core tier-1 runs only check exactness above); advisory
    unless ``ENGINE_SPEEDUP_STRICT=1``."""
    if not {"serial_seconds", "parallel_seconds"} <= set(_VALMOD_TIMINGS):
        _loud_skip("ingest timing test did not run (deselected)")
    if _effective_cores() < 2:
        _loud_skip(f"needs 2+ effective cores, have {_effective_cores()}")
    speedup = _VALMOD_TIMINGS["serial_seconds"] / _VALMOD_TIMINGS["parallel_seconds"]
    message = f"valmod ingest speedup {speedup:.2f}x below the 1.2x floor"
    if os.environ.get("ENGINE_SPEEDUP_STRICT") == "1":
        assert speedup >= 1.2, message
    elif speedup < 1.2:
        import warnings

        warnings.warn(message + " (set ENGINE_SPEEDUP_STRICT=1 to enforce)")


def test_parallel_speedup_on_multicore():
    """Acceptance gate: ≥1.3× at n=32768 — only meaningful on 2+ cores.

    Wall-clock assertions are inherently nondeterministic on shared or
    throttled machines, so by default this records the speedup (and
    warns when it is below the floor) without failing the build; set
    ``ENGINE_SPEEDUP_STRICT=1`` to enforce the 1.3× floor, e.g. on a
    quiet multi-core box when checking the acceptance criterion.
    """
    largest = _TIMINGS.get(SIZES[-1], {})
    if not {"serial_seconds", "parallel_seconds"} <= set(largest):
        _loud_skip("timing tests did not run (deselected)")
    if _effective_cores() < 2:
        _loud_skip(f"needs 2+ effective cores, have {_effective_cores()}")
    speedup = largest["serial_seconds"] / largest["parallel_seconds"]
    message = f"parallel speedup {speedup:.2f}x below the 1.3x floor"
    if os.environ.get("ENGINE_SPEEDUP_STRICT") == "1":
        assert speedup >= 1.3, message
    elif speedup < 1.3:
        import warnings

        warnings.warn(message + " (set ENGINE_SPEEDUP_STRICT=1 to enforce)")


#: Acceptance floors for the fast kernels at the largest size: the numpy
#: row-block kernel must be ≥8x over the oracle baseline, the compiled
#: kernel an order of magnitude.
_KERNEL_FLOORS = {"numpy": 8.0, "native": 10.0}


def _kernel_round_speedups() -> dict[str, list[float]]:
    """Oracle ÷ kernel time over the first ``KERNEL_ROUND_ROWS`` query rows
    of the largest series, one ratio per round and fast kernel.

    The full-sweep ratio divides two timings taken minutes apart, and the
    speed of a shared VM wanders over minutes.  Each round here times the
    oracle and every fast kernel back to back over the same rows (a slice
    costs per row what the full sweep does), so a drift in machine speed
    reaches both sides of a round's ratio alike.
    """
    if not _ROUND_SPEEDUPS:
        stats = SlidingStats(_series(SIZES[-1]))
        centered = stats.centered_values
        means, stds = stats.centered_mean_std(WINDOW)
        first_row = sliding_dot_product(centered[:WINDOW], centered)
        radius = default_exclusion_radius(WINDOW)

        def seconds(kernel: str) -> float:
            started = time.perf_counter()
            run_sweep(
                centered,
                WINDOW,
                radius,
                means,
                stds,
                first_row,
                0,
                KERNEL_ROUND_ROWS,
                kernel=kernel,
            )
            return time.perf_counter() - started

        for _ in range(KERNEL_ROUNDS):
            oracle = seconds("oracle")
            fast = {kernel: seconds(kernel) for kernel in FAST_KERNELS}
            for kernel, taken in fast.items():
                _ROUND_SPEEDUPS.setdefault(kernel, []).append(oracle / taken)
            if "native" in fast:
                _ROUND_NATIVE_OVER_NUMPY.append(fast["numpy"] / fast["native"])
        _flush_results()
    return _ROUND_SPEEDUPS


@pytest.mark.parametrize("kernel", ("numpy", "native"))
def test_kernel_speedup_floor(kernel):
    """Acceptance gate: kernel speedups at n=32768 over the oracle sweep.

    Same-process single-thread wall-clock ratios, so no core gate; gated on
    the median of the interleaved rounds of :func:`_kernel_round_speedups`
    (measured once, shared by both kernels) and still advisory by default
    (``ENGINE_SPEEDUP_STRICT=1`` enforces) because wall-clock ratios on a
    shared machine stay noisy.  A missing native build skips loudly.
    """
    if kernel not in FAST_KERNELS:
        _loud_skip(f"{kernel} kernel unavailable (no C compiler or disabled)")
    floor = _KERNEL_FLOORS[kernel]
    speedup = statistics.median(_kernel_round_speedups()[kernel])
    message = (
        f"{kernel} kernel speedup {speedup:.2f}x (median of {KERNEL_ROUNDS} "
        f"interleaved rounds) below the {floor:g}x floor"
    )
    if os.environ.get("ENGINE_SPEEDUP_STRICT") == "1":
        assert speedup >= floor, message
    elif speedup < floor:
        import warnings

        warnings.warn(message + " (set ENGINE_SPEEDUP_STRICT=1 to enforce)")


#: Floor of the native kernel over the numpy kernel when the native rows
#: run the AVX2 routine (the scalar loop is not held to it).
_NATIVE_OVER_NUMPY_FLOOR = 3.0


def test_native_speedup_over_numpy_floor():
    """Native ÷ numpy kernel speed on the interleaved rounds: both fast
    kernels over the same rows in one process.  Advisory like the other
    floors (``ENGINE_SPEEDUP_STRICT=1`` enforces); skipped loudly without a
    native build or where the native rows run the scalar loop."""
    if "native" not in FAST_KERNELS:
        _loud_skip("native kernel unavailable (no C compiler or disabled)")
    row_path = _native.row_path()
    if row_path != "avx2":
        _loud_skip(f"native rows run the {row_path} loop, not the AVX2 routine")
    _kernel_round_speedups()
    speedup = statistics.median(_ROUND_NATIVE_OVER_NUMPY)
    message = (
        f"native kernel {speedup:.2f}x the numpy kernel (median of {KERNEL_ROUNDS} "
        f"interleaved rounds, {row_path} rows) below the "
        f"{_NATIVE_OVER_NUMPY_FLOOR:g}x floor"
    )
    if os.environ.get("ENGINE_SPEEDUP_STRICT") == "1":
        assert speedup >= _NATIVE_OVER_NUMPY_FLOOR, message
    elif speedup < _NATIVE_OVER_NUMPY_FLOOR:
        import warnings

        warnings.warn(message + " (set ENGINE_SPEEDUP_STRICT=1 to enforce)")


def _base_pass_rounds() -> dict[int, dict[str, list[float]]]:
    """Seconds of a plain native STOMP pass and of the native base pass
    over the same series, ``KERNEL_ROUNDS`` rounds at each of
    :data:`BASE_PASS_SIZES`, the two back to back in every round so a
    drift in machine speed reaches both sides of a round's ratio alike.
    The base pass is the ``stomp(ingest_store=)`` call VALMOD makes, into
    a fresh store of capacity ``VALMOD_CAPACITY``."""
    if not _BASE_PASS_ROUNDS:
        for n in BASE_PASS_SIZES:
            values = _series(n)
            stats = SlidingStats(values)
            times: dict[str, list[float]] = {"stomp": [], "base_pass": []}
            for _ in range(KERNEL_ROUNDS):
                started = time.perf_counter()
                stomp(values, WINDOW, stats=stats, kernel="native")
                times["stomp"].append(time.perf_counter() - started)
                store = PartialProfileStore(values, stats, WINDOW, VALMOD_CAPACITY)
                started = time.perf_counter()
                stomp(values, WINDOW, stats=stats, ingest_store=store, kernel="native")
                times["base_pass"].append(time.perf_counter() - started)
            _BASE_PASS_ROUNDS[n] = times
        _flush_results()
    return _BASE_PASS_ROUNDS


def _base_pass_ratio(n: int) -> float:
    """Median over the rounds of base-pass time over plain STOMP time."""
    times = _BASE_PASS_ROUNDS[n]
    return statistics.median(
        base / plain for base, plain in zip(times["base_pass"], times["stomp"])
    )


def test_native_base_pass_within_ceiling_of_plain_stomp():
    """VALMOD's native base pass costs at most :data:`BASE_PASS_CEILING`
    times a plain native STOMP pass at the largest of
    :data:`BASE_PASS_SIZES` (window ``WINDOW``, ``p`` = ``VALMOD_CAPACITY``),
    on the median of interleaved same-process rounds; every size's medians
    and ratio land in ``BENCH_engine_scaling.json``.  Advisory like the
    other gates (``ENGINE_SPEEDUP_STRICT=1`` enforces); skipped loudly
    without a native build."""
    if "native" not in FAST_KERNELS:
        _loud_skip("native kernel unavailable (no C compiler or disabled)")
    _base_pass_rounds()
    n = BASE_PASS_SIZES[-1]
    ratio = _base_pass_ratio(n)
    message = (
        f"native base pass {ratio:.2f}x a plain native STOMP pass at n={n} "
        f"(median of {KERNEL_ROUNDS} interleaved rounds), above the "
        f"{BASE_PASS_CEILING:g}x ceiling"
    )
    if os.environ.get("ENGINE_SPEEDUP_STRICT") == "1":
        assert ratio <= BASE_PASS_CEILING, message
    elif ratio > BASE_PASS_CEILING:
        import warnings

        warnings.warn(message + " (set ENGINE_SPEEDUP_STRICT=1 to enforce)")
