"""Sweep-kernel regression pins: bit-for-bit equality, aliasing, allocations.

The PR that introduced :mod:`repro.matrix_profile.kernels` made three
promises, each pinned here:

* the numpy row-block kernel and the compiled kernel produce **identical**
  profiles and indices to the serial oracle — not merely close — across
  window sizes, reseed intervals, seam-straddling partial ranges, tiny
  series and constant/near-constant segments, for every entry point
  (``stomp``, the engine blocks, VALMOD's base pass, ``stomp-range``,
  SKIMP);
* the fast path makes **no per-row O(n) allocations** (the old loop
  allocated three O(n) temporaries per row);
* the ingest hook no longer aliases the recurrence buffer: it receives a
  read-only view consumed during the call;
* VALMOD's partial-profile store comes out byte for byte the same from
  every kernel (the native one retains rows in C, ties decided by the
  retention rule), its native advance and evaluation match the numpy
  code, and VALMOD reports the same pairs on every kernel.

Zero-variance behaviour (flat and near-flat segments, including at block
seams) is pinned both at the ``distances_from_dot_products`` convention
level and through the cross-kernel equality sweeps.
"""

from __future__ import annotations

import contextlib
import threading
import warnings

import numpy as np
import pytest

from repro import obs
from repro.api.session import Analysis, EngineConfig
from repro.baselines.stomp_range import stomp_range
from repro.core.partial_profile import _STATE_FIELDS, PartialProfileStore
from repro.core.skimp import skimp
from repro.core.valmod import valmod
from repro.engine.partition import partitioned_stomp
from repro.exceptions import InvalidParameterError
from repro.matrix_profile import _native, kernels
from repro.matrix_profile.distance_profile import distances_from_dot_products
from repro.matrix_profile.exclusion import default_exclusion_radius
from repro.matrix_profile.kernels import available_kernels, resolve_kernel, run_sweep
from repro.matrix_profile.stomp import stomp
from repro.stats.distance import compensation_needed
from repro.stats.fft import sliding_dot_product
from repro.stats.sliding import SlidingStats

#: Fast kernels actually usable in this environment ("numpy" always is;
#: "native" joins when a C compiler is present — the CI fallback leg sets
#: REPRO_NO_NATIVE=1 so both configurations stay exercised).
FAST_KERNELS = [name for name in ("numpy", "native") if name in available_kernels()]


def _walk(n: int, seed: int = 7) -> np.ndarray:
    return np.cumsum(np.random.default_rng(seed).normal(size=n))


def _seam_series(n: int = 320) -> np.ndarray:
    """A walk with two flat runs, one straddling the 128-row block seam."""
    values = _walk(n, seed=3)
    values[50:90] = values[50]  # flat run well inside the first block
    values[120:140] = values[120]  # flat run straddling offset 128
    return values


SERIES_CASES = {
    "walk": (_walk(300), 32),
    # A global offset only: centering removes it, so no compensation.
    "offset": (1e6 + _walk(300, seed=11), 32),
    # A level shift survives centering: the centered means dwarf the
    # stds, which turns on the Dekker-compensated conversions.
    "shift": (np.concatenate([_walk(150, seed=13), 1e6 + _walk(150, seed=17)]), 32),
    "flat": (np.full(120, 3.25), 16),
    "seam": (_seam_series(), 24),
    "tiny": (_walk(40, seed=5), 8),
    "w3": (_walk(90, seed=9), 3),
    # White noise: a row's retained neighbours say little about the next
    # row's, so the base pass's seeded floor is weak.
    "noise": (np.random.default_rng(19).standard_normal(300), 32),
}


def _sweep_args(values: np.ndarray, window: int):
    stats = SlidingStats(np.asarray(values, dtype=np.float64))
    centered = stats.centered_values
    means, stds = stats.centered_mean_std(window)
    first = sliding_dot_product(centered[:window], centered)
    radius = default_exclusion_radius(window)
    return centered, window, radius, means, stds, first


# --------------------------------------------------------------------- #
# bit-for-bit equality (satellite: the property test)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("case", sorted(SERIES_CASES))
@pytest.mark.parametrize("reseed", [None, 64, 17])
def test_kernels_bit_equal_full_sweep(case, reseed):
    values, window = SERIES_CASES[case]
    args = _sweep_args(values, window)
    count = args[3].size
    reference = run_sweep(*args, 0, count, kernel="oracle", reseed_interval=reseed)
    for name in FAST_KERNELS:
        profile, indices = run_sweep(
            *args, 0, count, kernel=name, reseed_interval=reseed
        )
        np.testing.assert_array_equal(profile, reference[0], err_msg=name)
        np.testing.assert_array_equal(indices, reference[1], err_msg=name)


@pytest.mark.parametrize("case", ["walk", "offset", "seam"])
def test_kernels_bit_equal_partial_ranges(case):
    """Row ranges that start mid-series and straddle reseed boundaries."""
    values, window = SERIES_CASES[case]
    args = _sweep_args(values, window)
    count = args[3].size
    start = count // 3
    stop = min(count, start + 123)
    for reseed in (None, 50):
        reference = run_sweep(
            *args, start, stop, kernel="oracle", reseed_interval=reseed
        )
        for name in FAST_KERNELS:
            result = run_sweep(*args, start, stop, kernel=name, reseed_interval=reseed)
            np.testing.assert_array_equal(result[0], reference[0], err_msg=name)
            np.testing.assert_array_equal(result[1], reference[1], err_msg=name)


# --------------------------------------------------------------------- #
# argmax ties of the native row routine, on both row paths
# --------------------------------------------------------------------- #
def _periodic_args(period, reps, window, radius, seed=0):
    """Sweep arguments whose rows hold the same score at several columns.

    An integer pattern summing to zero, tiled: the series is its own
    centered copy, every dot product is an exact integer (the first row by
    ``np.dot`` per column, later rows by the recurrence), and the window
    statistics are tiled per period, so columns one period apart score the
    same bits.
    """
    pattern = np.random.default_rng(seed).integers(-3, 4, size=period).astype(np.float64)
    pattern[-1] -= pattern.sum()
    values = np.tile(pattern, reps)
    count = values.size - window + 1
    means, stds = SlidingStats(values).centered_mean_std(window)
    means = np.resize(means[:period], count)
    stds = np.resize(stds[:period], count)
    first = np.array([np.dot(values[:window], values[j : j + window]) for j in range(count)])
    return values, window, radius, means, stds, first


def _signed_zero_args():
    """Rows whose maximum score, 0, is reached as both +0.0 and -0.0.

    The windows of ``[1, 0, -1, 0]`` have mean 0, and row ``r`` has dot
    products 2, 0, -2, 0 at columns ``r, r+1, r+2, r+3`` (mod 4).  Column
    stds of alternating sign (the kernels take them as given) turn those
    into scores -2, +0.0, -2, -0.0.
    """
    values = np.tile([1.0, 0.0, -1.0, 0.0], 30)
    window = 4
    count = values.size - window + 1
    first = np.array([np.dot(values[:window], values[j : j + window]) for j in range(count)])
    stds = np.resize([-1.0, 1.0, 1.0, -1.0], count)
    return values, window, 1, np.zeros(count), stds, first


def _row_scores(args):
    """Each row's selection scores, computed the numpy kernel's way."""
    recorder = _IngestRecorder()
    count = args[3].size
    run_sweep(*args, 0, count, kernel="oracle", ingest=recorder)
    ctx = kernels._SweepContext(*args, False)
    scores = np.empty((count, count))
    for offset in range(count):
        kernels._fill_selection_row(ctx, recorder.rows[offset], offset, scores[offset])
    return scores


def _shows_ties(args, place) -> bool:
    """Whether some row's maximum score sits at several columns, as ``place`` says."""
    scores = _row_scores(args)
    radius, count = args[2], args[3].size
    for row, sel in enumerate(scores):
        columns = np.flatnonzero(sel == sel.max())
        if sel.max() == -np.inf or columns.size < 2:
            continue
        gap = np.diff(columns).min()
        lo, hi = max(row - radius, 0), min(row + radius + 1, count)
        if {
            "one_block": gap < 16,
            "apart": gap > 64,
            "column_0": columns[0] == 0,
            "zone_edges": lo - 1 in columns and hi in columns,
            "signed_zero": np.unique(np.signbit(sel[columns])).size == 2,
        }[place]:
            return True
    return False


TIE_CASES = {
    # name: (args factory, the tie placement the case must show, or None)
    "one_block": (lambda: _periodic_args(8, 40, 6, 1), "one_block"),
    "apart": (lambda: _periodic_args(70, 5, 9, 4, seed=1), "apart"),
    "column_0": (lambda: _periodic_args(24, 12, 7, 3, seed=2), "column_0"),
    # radius = period - 1: the matches one period away sit right outside
    # the exclusion zone, on both sides.
    "zone_edges": (lambda: _periodic_args(12, 20, 5, 11, seed=3), "zone_edges"),
    "count_3": (lambda: _periodic_args(2, 2, 2, 0, seed=4), None),
    "count_37": (lambda: _periodic_args(5, 9, 9, 2, seed=5), None),
    "count_203": (lambda: _periodic_args(30, 7, 8, 2, seed=6), None),
    "fully_excluded": (lambda: _periodic_args(6, 6, 4, 40, seed=7), None),
    "mostly_excluded": (lambda: _periodic_args(10, 8, 6, 70, seed=8), None),
    "signed_zero": (_signed_zero_args, "signed_zero"),
    # Six copies of a 9-point pattern: with 5 or 8 entries kept, a base-pass
    # store's ceiling falls on a family of exact ties below 1.0, offsets
    # that the retention's prefilter must not skip.
    "ceiling_ties": (lambda: _periodic_args(9, 6, 9, 1, seed=3), None),
}


@pytest.fixture(scope="module")
def _scalar_rows_cache(tmp_path_factory):
    """One build cache for the ``-DREPRO_SCALAR_ROWS`` kernel: every case
    after the first loads the library the first one compiled."""
    return tmp_path_factory.mktemp("scalar_rows")


@contextlib.contextmanager
def _scalar_rows_build(monkeypatch, cache):
    """The native kernel of a second build compiled with
    ``-DREPRO_SCALAR_ROWS`` (the scalar row loop and retention scan), loaded
    for the duration of the block."""
    monkeypatch.setattr(_native, "_CFLAGS", (*_native._CFLAGS, "-DREPRO_SCALAR_ROWS"))
    monkeypatch.setenv(_native.CACHE_ENV, str(cache))
    _native.reset()
    try:
        assert _native.row_path() == "scalar"
        yield
    finally:
        monkeypatch.undo()
        _native.reset()


@pytest.fixture(params=["default", "scalar"])
def row_path(request, monkeypatch, _scalar_rows_cache):
    """The native row routine under test: the one this machine runs, or the
    scalar loop of a second build compiled with ``-DREPRO_SCALAR_ROWS``."""
    if "native" not in FAST_KERNELS:
        pytest.skip("no compiled kernel")
    if request.param == "default":
        yield _native.row_path()
        return
    with _scalar_rows_build(monkeypatch, _scalar_rows_cache):
        yield "scalar"


@pytest.mark.parametrize("case", sorted(TIE_CASES))
def test_native_rows_break_ties_like_argmax(case, row_path):
    """Every row's winner is the first column holding the maximum score, bit
    for bit with numpy and the oracle: ties inside one block, blocks apart,
    at column 0, beside both edges of the exclusion zone and between +0.0
    and -0.0; counts below 4 and off the 4- and 64-column grids; rows that
    are fully excluded.  Both native sweeps run: the plain segment and the
    base pass, whose store must equal the oracle's."""
    factory, place = TIE_CASES[case]
    args = factory()
    count = args[3].size
    assert np.all(args[4] != 0.0)  # no constant window: every row is common-case
    if place is not None:
        assert _shows_ties(args, place), place
    for reseed in (None, 5):
        expected = run_sweep(*args, 0, count, kernel="oracle", reseed_interval=reseed)
        numpy_result = run_sweep(*args, 0, count, kernel="numpy", reseed_interval=reseed)
        plain = run_sweep(*args, 0, count, kernel="native", reseed_interval=reseed)
        oracle_store = _empty_store(args[0], args[1], 4)
        run_sweep(*args, 0, count, kernel="oracle", reseed_interval=reseed, ingest=oracle_store)
        native_store = _empty_store(args[0], args[1], 4)
        base_pass = run_sweep(
            *args, 0, count, kernel="native", reseed_interval=reseed, ingest=native_store
        )
        for got, label in ((numpy_result, "numpy"), (plain, "native"), (base_pass, "base pass")):
            np.testing.assert_array_equal(got[0], expected[0], err_msg=f"{label} {row_path}")
            np.testing.assert_array_equal(got[1], expected[1], err_msg=f"{label} {row_path}")
        _assert_stores_identical(native_store, oracle_store)
    if case == "fully_excluded":
        assert np.all(expected[1] == -1)


@pytest.mark.parametrize("case", sorted(SERIES_CASES))
def test_prepared_sweep_runs_equal_fresh_sweeps(case):
    """One PreparedSweep sweeping many short runs (VALMOD's recomputes)
    gives each run the bits a fresh run_sweep of that range gives, on
    every kernel, and records no kernel.sweep span."""
    values, window = SERIES_CASES[case]
    args = _sweep_args(values, window)
    count = args[3].size
    runs = [(0, 1), (count // 2, count // 2 + 7), (1, count // 3), (count - 5, count)]
    expected = {run: run_sweep(*args, *run, kernel="oracle") for run in runs}
    for name in ["oracle", *FAST_KERNELS]:
        sweep = kernels.PreparedSweep(*args, kernel=name)
        with obs.trace() as collector:
            for run in runs:
                profile, indices = sweep.rows(*run)
                np.testing.assert_array_equal(profile, expected[run][0], err_msg=name)
                np.testing.assert_array_equal(indices, expected[run][1], err_msg=name)
        assert not collector.spans()


@pytest.mark.parametrize("kernel", FAST_KERNELS)
def test_entry_points_bit_equal(kernel):
    """stomp / engine blocks / valmod / stomp-range / skimp, kernel threaded."""
    values, window = SERIES_CASES["seam"]
    reference = stomp(values, window, kernel="oracle")

    fast = stomp(values, window, kernel=kernel)
    np.testing.assert_array_equal(fast.distances, reference.distances)
    np.testing.assert_array_equal(fast.indices, reference.indices)

    blocked_ref = partitioned_stomp(
        values, window, executor="serial", block_size=100, kernel="oracle"
    )
    blocked = partitioned_stomp(
        values, window, executor="serial", block_size=100, kernel=kernel
    )
    np.testing.assert_array_equal(blocked.distances, blocked_ref.distances)
    np.testing.assert_array_equal(blocked.indices, blocked_ref.indices)

    valmod_ref = valmod(values, window, window + 2, kernel="oracle")
    valmod_fast = valmod(values, window, window + 2, kernel=kernel)
    np.testing.assert_array_equal(
        valmod_fast.base_profile.distances, valmod_ref.base_profile.distances
    )
    np.testing.assert_array_equal(
        valmod_fast.base_profile.indices, valmod_ref.base_profile.indices
    )
    for length, result in valmod_ref.length_results.items():
        assert valmod_fast.length_results[length].motifs == result.motifs

    range_ref = stomp_range(values, window, window + 2, kernel="oracle")
    range_fast = stomp_range(values, window, window + 2, kernel=kernel)
    assert range_fast.motifs_by_length == range_ref.motifs_by_length

    pan_ref = skimp(values, window, window + 2, kernel="oracle")
    pan_fast = skimp(values, window, window + 2, kernel=kernel)
    np.testing.assert_array_equal(
        pan_fast.normalized_profiles, pan_ref.normalized_profiles
    )
    np.testing.assert_array_equal(pan_fast.index_profiles, pan_ref.index_profiles)


def test_session_kernel_threads_through_api():
    values, window = SERIES_CASES["walk"]
    reference = None
    for kernel in ("oracle", *FAST_KERNELS):
        session = Analysis(values, engine=EngineConfig(kernel=kernel))
        profile = session.matrix_profile(window).value
        if reference is None:
            reference = profile
        else:
            np.testing.assert_array_equal(profile.distances, reference.distances)
            np.testing.assert_array_equal(profile.indices, reference.indices)


# --------------------------------------------------------------------- #
# allocation regression (satellite: no per-row O(n) temporaries)
# --------------------------------------------------------------------- #
class _CountingNumpy:
    """Proxy for the kernels module's ``np`` that counts array constructions."""

    _CONSTRUCTORS = frozenset(
        {"empty", "zeros", "full", "array", "empty_like", "zeros_like", "arange"}
    )

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name in self._CONSTRUCTORS:
            def counted(*args, **kwargs):
                self.calls += 1
                return attr(*args, **kwargs)

            return counted
        return attr


def test_numpy_kernel_allocation_count_is_row_independent(monkeypatch):
    """Doubling the row count must not change the kernel's allocation count.

    The pre-kernel loop allocated three O(n) temporaries per row; the
    row-block kernel allocates its workspace once per sweep.  Counting the
    array constructions issued from the kernels module at two different
    series sizes pins that: any per-row allocation would scale the count
    with the number of rows.
    """
    counts = []
    for n in (240, 480):
        args = _sweep_args(_walk(n), 24)
        proxy = _CountingNumpy()
        monkeypatch.setattr(kernels, "np", proxy)
        try:
            run_sweep(*args, 0, args[3].size, kernel="numpy")
        finally:
            monkeypatch.setattr(kernels, "np", np)
        counts.append(proxy.calls)
    assert counts[0] == counts[1], counts


# --------------------------------------------------------------------- #
# aliasing contract (satellite: the qt use-after-advance fix)
# --------------------------------------------------------------------- #
class _IngestRecorder:
    """Minimal ingest hook: copies what it keeps, as the contract demands."""

    def __init__(self):
        self.rows = {}
        self.writeable = []

    def ingest_centered_profile(self, offset, dot_products):
        self.writeable.append(dot_products.flags.writeable)
        self.rows[int(offset)] = np.array(dot_products)


@pytest.mark.parametrize("kernel", ["oracle", "numpy"])
def test_ingest_views_read_only_and_consistent(kernel):
    """The oracle and numpy kernels hand the hook one read-only centered row
    per call, equal to the oracle's.  (The native kernel retains into a
    PartialProfileStore only; see the next test.)"""
    values, window = SERIES_CASES["walk"]
    args = _sweep_args(values, window)
    count = args[3].size

    reference = _IngestRecorder()
    run_sweep(*args, 0, count, kernel="oracle", ingest=reference)
    recorder = _IngestRecorder()
    run_sweep(*args, 0, count, kernel=kernel, ingest=recorder)
    assert not any(recorder.writeable)
    assert recorder.rows.keys() == reference.rows.keys()
    for offset, row in reference.rows.items():
        np.testing.assert_array_equal(recorder.rows[offset], row)


@pytest.mark.skipif("native" not in FAST_KERNELS, reason="no compiled kernel")
def test_native_rejects_other_ingest_hooks():
    """stomp(ingest_store=)'s contract: the native base pass retains rows
    into a PartialProfileStore, so any other hook is refused before a row
    is swept."""
    values, window = SERIES_CASES["walk"]
    args = _sweep_args(values, window)
    recorder = _IngestRecorder()
    with pytest.raises(InvalidParameterError, match="PartialProfileStore"):
        run_sweep(*args, 0, 10, kernel="native", ingest=recorder)
    assert not recorder.rows


# --------------------------------------------------------------------- #
# the partial-profile store on every kernel
# --------------------------------------------------------------------- #
def _empty_store(values, window, capacity, kernel=None) -> PartialProfileStore:
    values = np.asarray(values, dtype=np.float64)
    return PartialProfileStore(values, SlidingStats(values), window, capacity, kernel=kernel)


def _assert_stores_identical(first: PartialProfileStore, second: PartialProfileStore):
    state_a, state_b = first.export_state(), second.export_state()
    for field in _STATE_FIELDS:
        assert state_a[field].tobytes() == state_b[field].tobytes(), field


def test_shift_case_runs_compensated():
    """The ``shift`` case must keep exercising the Dekker branches."""
    values, window = SERIES_CASES["shift"]
    stats = SlidingStats(values)
    means, stds = stats.centered_mean_std(window)
    assert compensation_needed(means, means, stds)
    assert stats.conversion_compensated(window + 3)


def _store_case(case: str):
    """Sweep arguments, raw series, store exclusion factor and native chunk
    rows of one case of the store matrix: a series case, a tie case,
    ``<series>_zone<f>``, a series case whose store takes exclusion factor
    ``f`` while the sweep keeps the default radius, or ``<series>_chunk<k>``,
    whose native base pass hands the store ``k`` rows at a time, so most
    chunks take their first row's seeds from the chunk before."""
    if case in TIE_CASES:
        args = TIE_CASES[case][0]()
        return args, args[0], 4, None
    name, _, chunk = case.partition("_chunk")
    name, _, factor = name.partition("_zone")
    values, window = SERIES_CASES[name]
    return _sweep_args(values, window), values, int(factor or 4), int(chunk) if chunk else None


def _store_matrix() -> list:
    """``(rows, reseed, capacity, case)`` of the store bit-equality matrix:
    every series case at capacities 4 and 16, unbroken and reseeded, over
    all rows and over a fragment; capacity 1 and complete rows ("all":
    capacity >= the candidate count) on every series case; a wider and a
    narrower store zone; the tie cases, whose exact correlation ties reach
    the ceiling; and chunks of 7 rows, unbroken and reseeded, over all rows
    and over a fragment."""
    matrix = [
        (rows, reseed, capacity, case)
        for case in sorted(SERIES_CASES)
        for capacity in (4, 16)
        for reseed in (None, 17)
        for rows in ("full", "partial")
    ]
    matrix += [
        ("full", None, capacity, case)
        for case in sorted(SERIES_CASES)
        for capacity in (1, "all")
    ]
    matrix += [
        ("full", None, capacity, case)
        for case in ("walk_zone2", "noise_zone8")
        for capacity in (4, 16)
    ]
    matrix += [
        ("full", reseed, capacity, case)
        for case in sorted(TIE_CASES)
        for capacity, reseed in ((1, None), (5, 5), (8, None), ("all", None))
    ]
    matrix += [
        (rows, reseed, 4, f"{case}_chunk7")
        for case in ("noise", "shift", "walk")
        for reseed in (None, 17)
        for rows in ("full", "partial")
    ]
    return matrix


@pytest.mark.parametrize("rows, reseed, capacity, case", _store_matrix())
def test_store_ingest_bit_equal_across_kernels(
    rows, reseed, capacity, case, monkeypatch, _scalar_rows_cache
):
    """Oracle, numpy and native sweeps build the same store (or fragment),
    every retention array equal byte for byte; the native base pass on both
    row paths (this machine's build and the ``-DREPRO_SCALAR_ROWS`` one)."""
    args, values, exclusion_factor, chunk_rows = _store_case(case)
    window, count = args[1], args[3].size
    if chunk_rows is not None:
        monkeypatch.setattr(kernels, "_RETAIN_CHUNK_ROWS", chunk_rows)
    if capacity == "all":
        capacity = count
    start, stop = (0, count) if rows == "full" else (count // 3, min(count, count // 3 + 123))

    def build(kernel):
        store = PartialProfileStore(
            values, SlidingStats(values), window, capacity, exclusion_factor=exclusion_factor
        )
        target = store if rows == "full" else store.split((start, stop))
        run_sweep(*args, start, stop, kernel=kernel, reseed_interval=reseed, ingest=target)
        assert target.export_state()["populated"].all()
        return target

    reference = build("oracle")
    for kernel in FAST_KERNELS:
        _assert_stores_identical(build(kernel), reference)
    if "native" in FAST_KERNELS:
        with _scalar_rows_build(monkeypatch, _scalar_rows_cache):
            _assert_stores_identical(build("native"), reference)


@pytest.mark.parametrize("kernel", ["oracle", *FAST_KERNELS])
def test_store_retention_breaks_ties_by_offset(kernel):
    """More tied candidates than ``p``: the rule, not a sort, picks them.

    A flat run yields dozens of constant windows, each pinned at
    correlation 1.0 against any non-constant query.  Every such row must
    keep the ``p`` lowest constant offsets outside its trivial-match zone,
    in offset order, with the pruned ceiling at 1.0 and the row marked
    unbounded (a constant neighbour went unretained).
    """
    window, capacity = 16, 4
    values = _walk(260, seed=21)
    values[40:100] = values[40]
    args = _sweep_args(values, window)
    stds, radius, count = args[4], args[2], args[3].size
    store = _empty_store(values, window, capacity)
    run_sweep(*args, 0, count, kernel=kernel, ingest=store)
    state = store.export_state()
    constant = np.flatnonzero(stds == 0.0)
    checked = 0
    for row in np.flatnonzero(stds > 0.0):
        tied = constant[np.abs(constant - row) > radius]
        if tied.size <= capacity:
            continue
        checked += 1
        assert state["neighbors"][row].tolist() == tied[:capacity].tolist(), row
        assert np.all(state["base_correlations"][row] == 1.0)
        assert state["pruned_correlation_ceiling"][row] == 1.0
        assert state["unbounded"][row]
    assert checked > 100
    # Constant queries retain nothing and disable pruning.
    assert np.all(state["unbounded"][constant])
    assert np.all(state["neighbors"][constant] == -1)


@pytest.mark.skipif("native" not in FAST_KERNELS, reason="no compiled kernel")
def test_native_ingest_keeps_store_checks():
    """The C ingest raises the per-row errors of ingest_centered_profile."""
    values, window = SERIES_CASES["walk"]
    args = _sweep_args(values, window)
    count = args[3].size
    store = _empty_store(values, window, 4)
    run_sweep(*args, 0, 10, kernel="native", ingest=store)
    with pytest.raises(InvalidParameterError, match="profile 5 was already ingested"):
        run_sweep(*args, 5, 20, kernel="native", ingest=store)
    fragment = _empty_store(values, window, 4).split((30, 60))
    with pytest.raises(InvalidParameterError, match="profile 60 is outside"):
        run_sweep(*args, 40, 70, kernel="native", ingest=fragment)
    with pytest.raises(InvalidParameterError, match="profile 20 is outside"):
        run_sweep(*args, 20, 40, kernel="native", ingest=fragment)
    short = _empty_store(values[:-1], window, 4)
    with pytest.raises(InvalidParameterError, match="dot products"):
        run_sweep(*args, 0, 10, kernel="native", ingest=short)


@pytest.mark.skipif("native" not in FAST_KERNELS, reason="no compiled kernel")
@pytest.mark.parametrize("case", sorted(SERIES_CASES))
def test_store_evaluate_bit_equal_native_vs_numpy(case):
    """Advance + evaluate in C vs numpy, length by length, every output
    array equal byte for byte — the ``shift`` case on the compensated
    branches."""
    values, window = SERIES_CASES[case]
    stores = {}
    for kernel in ("numpy", "native"):
        store = _empty_store(values, window, 8, kernel=kernel)
        assert store.kernel == kernel
        stomp(values, window, stats=store._stats, ingest_store=store, kernel=kernel)
        stores[kernel] = store
    last = min(values.size, window + 24)
    for length in range(window, last + 1):
        numpy_eval = stores["numpy"].evaluate(length)
        native_eval = stores["native"].evaluate(length)
        for field in ("min_distances", "min_indices", "max_lower_bounds", "valid"):
            assert (
                getattr(numpy_eval, field).tobytes() == getattr(native_eval, field).tobytes()
            ), (length, field)
    assert (
        stores["numpy"]._dot_products.tobytes() == stores["native"]._dot_products.tobytes()
    )


@pytest.mark.parametrize("case", sorted(SERIES_CASES))
def test_valmod_identical_across_kernels(case):
    """VALMOD end to end: same pairs (distance bits included) and the same
    pruning statistics on every kernel."""
    values, window = SERIES_CASES[case]
    results = {
        kernel: valmod(values, window, window + 4, profile_capacity=4, kernel=kernel)
        for kernel in ("oracle", *FAST_KERNELS)
    }
    reference = results["oracle"]
    for kernel, result in results.items():
        for length, outcome in reference.length_results.items():
            got = result.length_results[length]
            assert [
                (p.offset_a, p.offset_b, p.distance.hex()) for p in got.motifs
            ] == [(p.offset_a, p.offset_b, p.distance.hex()) for p in outcome.motifs], (
                kernel,
                length,
            )
            assert got.pruning == outcome.pruning, (kernel, length)


@pytest.mark.skipif("native" not in FAST_KERNELS, reason="no compiled kernel")
def test_native_first_load_is_serialised(tmp_path, monkeypatch):
    """Threads racing the first compile all get the library and nobody
    warns: the second caller waits for the first attempt's outcome."""
    monkeypatch.setenv(_native.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(kernels, "_warned_native_fallback", False)
    _native.reset()
    barrier = threading.Barrier(2)
    resolved = [None, None]

    def resolve(slot):
        barrier.wait()
        resolved[slot] = resolve_kernel("native")

    try:
        threads = [threading.Thread(target=resolve, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert resolved == ["native", "native"]
        assert not kernels._warned_native_fallback
        assert _native.unavailable_reason() is None
    finally:
        _native.reset()


# --------------------------------------------------------------------- #
# zero-variance conventions (satellite: std == 0 asymmetries)
# --------------------------------------------------------------------- #
def test_distance_conventions_for_constant_subsequences():
    window = 8
    qt = np.zeros(4)
    means = np.array([0.0, 1.0, -2.0, 0.5])
    stds = np.array([0.0, 1.0, 0.0, 2.0])

    # Constant query: 0 against constant targets, sqrt(m) elsewhere.
    constant_query = distances_from_dot_products(qt, window, 0.0, 0.0, means, stds)
    np.testing.assert_array_equal(
        constant_query,
        np.where(stds == 0.0, 0.0, np.sqrt(window)),
    )

    # Non-constant query: sqrt(m) exactly at constant target columns.
    mixed = distances_from_dot_products(qt, window, 0.0, 1.5, means, stds)
    np.testing.assert_array_equal(
        mixed[stds == 0.0], np.full(2, np.sqrt(window))
    )
    assert np.all(np.isfinite(mixed))


def test_flat_series_profile_is_all_zero_for_every_kernel():
    values, window = SERIES_CASES["flat"]
    for kernel in ("oracle", *FAST_KERNELS):
        profile = stomp(values, window, kernel=kernel)
        # Every subsequence is constant: distance 0 to any non-excluded one.
        np.testing.assert_array_equal(profile.distances, np.zeros(len(profile)))
        assert np.all(profile.indices >= 0)


def test_near_flat_seam_profiles_finite_and_conventional():
    values, window = SERIES_CASES["seam"]
    stats = SlidingStats(values)
    _, stds = stats.centered_mean_std(window)
    constant_rows = np.flatnonzero(stds == 0.0)
    assert constant_rows.size > 0  # the fixture must exercise the case
    for kernel in ("oracle", *FAST_KERNELS):
        profile = partitioned_stomp(
            values, window, executor="serial", block_size=128, kernel=kernel
        )
        assert np.all(np.isfinite(profile.distances))
        # Two disjoint flat runs exist, so every constant row has an exact
        # constant partner: distance exactly 0, matched to a constant row.
        np.testing.assert_array_equal(
            profile.distances[constant_rows], np.zeros(constant_rows.size)
        )
        assert np.all(stds[profile.indices[constant_rows]] == 0.0)


# --------------------------------------------------------------------- #
# selection, fallback and configuration plumbing
# --------------------------------------------------------------------- #
def test_validate_kernel_rejects_unknown_names():
    with pytest.raises(InvalidParameterError):
        kernels.validate_kernel("fortran")
    with pytest.raises(InvalidParameterError):
        run_sweep(*_sweep_args(_walk(60), 8), 0, 1, kernel="fortran")
    with pytest.raises(InvalidParameterError):
        EngineConfig(kernel="fortran")


def test_engine_config_kernel_roundtrip():
    config = EngineConfig(executor="serial", kernel="numpy")
    assert config.as_dict()["kernel"] == "numpy"
    assert EngineConfig.from_dict(config.as_dict()).kernel == "numpy"
    assert EngineConfig.from_dict({"executor": None}).kernel is None


def test_kernel_env_override(monkeypatch):
    monkeypatch.setenv(kernels.KERNEL_ENV, "oracle")
    assert resolve_kernel(None) == "oracle"
    monkeypatch.setenv(kernels.KERNEL_ENV, "")
    assert resolve_kernel(None) in ("numpy", "native")


@pytest.fixture
def _native_reset():
    """Restore the native loader's cached probe state around env flips."""
    yield
    _native.reset()


def test_native_fallback_warns_once_and_degrades(monkeypatch, _native_reset):
    monkeypatch.setenv(_native.DISABLE_ENV, "1")
    _native.reset()
    monkeypatch.setattr(kernels, "_warned_native_fallback", False)

    assert "native" not in available_kernels()
    assert resolve_kernel("auto") == "numpy"
    with pytest.warns(RuntimeWarning, match="falling back"):
        assert resolve_kernel("native") == "numpy"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the warning fires once per process
        assert resolve_kernel("native") == "numpy"

    # An explicit native request still computes (on the numpy kernel).
    values, window = SERIES_CASES["tiny"]
    fast = stomp(values, window, kernel="native")
    reference = stomp(values, window, kernel="oracle")
    np.testing.assert_array_equal(fast.distances, reference.distances)
