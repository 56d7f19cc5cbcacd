"""Kernel scaling of the AB-join and the SCRIMP diagonal sweep.

Times one full one-sided AB-join at n ∈ {4096, 16384} (both series of
length n) through the historical per-subsequence MASS loop (pinned as
``kernel="oracle"`` — the frozen reference the fast kernels are measured
against) and through the fast join kernels (``"numpy"`` STOMP-recurrence
sweep, compiled ``"native"`` when buildable), plus one exact SCRIMP pass
at n = 8192 through the one-diagonal-at-a-time oracle and the fast
kernel names (numpy runs the same per-diagonal loop, native one compiled
call).  Wall-clock numbers and derived speedups land in
``BENCH_join_scaling.json`` at the repository root so the speedup
trajectory is tracked from this PR onwards.

The acceptance floors (numpy ≥ 8x, native ≥ 10x over the oracle join at
the largest size) are same-process single-thread ratios; they are
advisory warnings by default and enforced under ``ENGINE_SPEEDUP_STRICT=1``
because separate timings on noisy machines are inherently jittery.  Every
skipped gate (missing compiler, deselected timing run) says so loudly
with a warning, so a green run that didn't check anything is visible in
the log.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.generators import generate_random_walk
from repro.matrix_profile.ab_join import ab_join
from repro.matrix_profile.kernels import available_kernels
from repro.matrix_profile.scrimp import scrimp

SIZES = (4096, 16384)
WINDOW = 128
SCRIMP_SIZE = 8192
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_join_scaling.json"

#: Join/diagonal kernels timed against the oracle baselines.
FAST_KERNELS = tuple(
    name for name in ("numpy", "native") if name in available_kernels()
)

#: Acceptance floors for the join kernels at the largest size.
_JOIN_FLOORS = {"numpy": 8.0, "native": 10.0}

#: Wall-clock seconds per (size, mode), filled by the timing tests.
_TIMINGS: dict[int, dict[str, float]] = {}

#: Wall-clock seconds of the SCRIMP diagonal-sweep case, same shape.
_SCRIMP_TIMINGS: dict[str, float] = {}

#: Oracle join profiles stashed by the baseline runs so the kernel runs
#: can assert parity on the benchmark workload itself.
_ORACLE_JOINS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


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


def _series_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array(generate_random_walk(n, random_state=0).values),
        np.array(generate_random_walk(n, random_state=1).values),
    )


def _flush_results() -> None:
    # Merge with whatever a previous (possibly partial / deselected) run
    # recorded: a `-k scrimp` run must not clobber the join trajectory and
    # the join flush must not erase an earlier scrimp section.
    existing: dict = {}
    if RESULT_PATH.exists():
        try:
            existing = json.loads(RESULT_PATH.read_text())
        except (OSError, json.JSONDecodeError):
            existing = {}
    sizes = dict(existing.get("sizes", {}))
    for n, times in sorted(_TIMINGS.items()):
        merged = {**sizes.get(str(n), {}), **times}
        oracle = merged.get("oracle_seconds")
        for kernel in ("numpy", "native"):
            seconds = merged.get(f"{kernel}_kernel_seconds")
            if oracle and seconds:
                merged[f"{kernel}_kernel_speedup"] = oracle / seconds
        sizes[str(n)] = merged
    payload = {
        "window": WINDOW,
        "effective_cores": _effective_cores(),
        "cpu_count": os.cpu_count(),
        "baseline_kernel": "oracle",
        "sizes": sizes,
    }
    if _SCRIMP_TIMINGS:
        section = dict(_SCRIMP_TIMINGS)
        oracle = section.get("oracle_seconds")
        for kernel in ("numpy", "native"):
            seconds = section.get(f"{kernel}_kernel_seconds")
            if oracle and seconds:
                section[f"{kernel}_kernel_speedup"] = oracle / seconds
        payload["scrimp_diagonal_sweep"] = {"n": SCRIMP_SIZE, **section}
    elif "scrimp_diagonal_sweep" in existing:
        payload["scrimp_diagonal_sweep"] = existing["scrimp_diagonal_sweep"]
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.mark.parametrize("n", SIZES)
def test_join_scaling_oracle(benchmark, n):
    """The per-subsequence MASS baseline, pinned to the oracle kernel.

    Without the pin, ``ab_join``'s default would auto-resolve to the fast
    kernels this file measures — the baseline must stay the historical
    per-row MASS loop.
    """
    benchmark.group = f"join scaling n={n}"
    values_a, values_b = _series_pair(n)
    started = time.perf_counter()
    profile = benchmark.pedantic(
        ab_join,
        args=(values_a, values_b, WINDOW),
        kwargs={"kernel": "oracle"},
        rounds=1,
        iterations=1,
    )
    _TIMINGS.setdefault(n, {})["oracle_seconds"] = time.perf_counter() - started
    _ORACLE_JOINS[n] = (profile.distances, profile.indices)


@pytest.mark.parametrize("kernel", FAST_KERNELS)
@pytest.mark.parametrize("n", SIZES)
def test_join_scaling_kernels(benchmark, n, kernel):
    """The fast join kernels on the same workload, parity-checked against
    the oracle baseline of :func:`test_join_scaling_oracle` (indices
    bit-for-bit, distances to 1e-8 — the default reseed interval trades
    per-row FFT seeds for recurrence advances, see tests/test_join_kernels.py
    for the reseed-free bitwise pins)."""
    benchmark.group = f"join scaling n={n}"
    values_a, values_b = _series_pair(n)
    started = time.perf_counter()
    profile = benchmark.pedantic(
        ab_join,
        args=(values_a, values_b, WINDOW),
        kwargs={"kernel": kernel},
        rounds=1,
        iterations=1,
    )
    _TIMINGS.setdefault(n, {})[f"{kernel}_kernel_seconds"] = (
        time.perf_counter() - started
    )
    if n in _ORACLE_JOINS:
        distances, indices = _ORACLE_JOINS[n]
        np.testing.assert_array_equal(profile.indices, indices)
        np.testing.assert_allclose(profile.distances, distances, atol=1e-8, rtol=0)
    if n == SIZES[-1] and kernel == FAST_KERNELS[-1]:
        _flush_results()


def test_scrimp_diagonal_sweep_scaling(benchmark):
    """One exact SCRIMP pass through the one-diagonal-at-a-time oracle and
    the fast kernel names — all three produce bit-identical profiles (the
    anytime contract), so equality is asserted outright."""
    benchmark.group = "scrimp diagonal sweep"
    values = np.array(generate_random_walk(SCRIMP_SIZE, random_state=2).values)

    started = time.perf_counter()
    reference = scrimp(values, WINDOW, random_state=0, kernel="oracle")
    _SCRIMP_TIMINGS["oracle_seconds"] = time.perf_counter() - started

    profiles = {}
    for kernel in FAST_KERNELS:
        started = time.perf_counter()
        profiles[kernel] = scrimp(values, WINDOW, random_state=0, kernel=kernel)
        _SCRIMP_TIMINGS[f"{kernel}_kernel_seconds"] = time.perf_counter() - started

    benchmark.pedantic(
        scrimp,
        args=(values, WINDOW),
        kwargs={"random_state": 0},
        rounds=1,
        iterations=1,
    )
    for kernel, profile in profiles.items():
        np.testing.assert_array_equal(profile.distances, reference.distances)
        np.testing.assert_array_equal(profile.indices, reference.indices)
    _flush_results()


@pytest.mark.parametrize("kernel", ("numpy", "native"))
def test_join_kernel_speedup_floor(kernel):
    """Acceptance gate: join kernel speedups at the largest size over the
    oracle MASS loop (numpy ≥ 8x, native ≥ 10x).

    Same-process single-thread wall-clock ratios, so no core gate; still
    advisory by default (``ENGINE_SPEEDUP_STRICT=1`` enforces) because the
    baseline and the kernel run are separate timings on possibly noisy
    machines.  A missing native build skips loudly.
    """
    if kernel not in FAST_KERNELS:
        _loud_skip(f"{kernel} kernel unavailable (no C compiler or disabled)")
    largest = _TIMINGS.get(SIZES[-1], {})
    needed = {"oracle_seconds", f"{kernel}_kernel_seconds"}
    if not needed <= set(largest):
        _loud_skip("timing tests did not run (deselected)")
    floor = _JOIN_FLOORS[kernel]
    speedup = largest["oracle_seconds"] / largest[f"{kernel}_kernel_seconds"]
    message = f"{kernel} join kernel speedup {speedup:.2f}x below the {floor:g}x floor"
    if os.environ.get("ENGINE_SPEEDUP_STRICT") == "1":
        assert speedup >= floor, message
    elif speedup < floor:
        import warnings

        warnings.warn(message + " (set ENGINE_SPEEDUP_STRICT=1 to enforce)")
