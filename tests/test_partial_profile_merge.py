"""Split/merge semantics of the mean-centered partial-profile store.

The tentpole claim of the mergeable-store refactor, pinned here:

* fragments ingested from the same per-row centered dot products merge
  into a store **bit-for-bit** identical to the serially-ingested one
  (randomized split points, seeded workloads);
* the engine's block-local ingest (each block builds a fragment inside
  its task, fragments merge in block order) reproduces the serial-sweep
  store — pairs identical, distances within 1e-12 — and the parallel
  executor path is bit-identical to the serial executor path for the
  same block plan, on the numpy kernel and (with a C compiler) on the
  native kernel, whose fragments are retained in C;
* the centered store closes the last accuracy gap: VALMOD's reported
  distances at offset 1e6 now sit at ~1e-6 versus brute force (pinned at
  1e-5; the raw store contract carried ~1e-3).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.core.partial_profile import PartialProfileStore
from repro.engine.executor import ParallelExecutor
from repro.engine.partition import partitioned_stomp
from repro.exceptions import InvalidParameterError
from repro.matrix_profile.brute_force import brute_force_matrix_profile
from repro.matrix_profile.exclusion import default_exclusion_radius
from repro.matrix_profile.kernels import available_kernels
from repro.matrix_profile.stomp import stomp
from repro.stats.sliding import SlidingStats

BASE = 20
CAPACITY = 8
#: Kernels that fill engine-block fragments: numpy feeds row views, native
#: retains in C; both must build the same fragments.
BLOCK_KERNELS = [name for name in ("numpy", "native") if name in available_kernels()]


def _series(seed: int, n: int = 320, offset: float = 0.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return offset + np.cumsum(rng.normal(size=n))


class _RowRecorder:
    """Per-row ingest hook that keeps a copy of every row, in row order."""

    def __init__(self):
        self.rows = []

    def require_ready_for_ingest(self, window):
        pass

    def ingest_centered_profile(self, offset, dot_products):
        self.rows.append(np.array(dot_products))


def _captured_rows(values: np.ndarray, stats: SlidingStats) -> list:
    """Per-row centered dot products of the serial sweep, in row order."""
    recorder = _RowRecorder()
    stomp(values, BASE, stats=stats, kernel="oracle", ingest_store=recorder)
    return recorder.rows


def _ingested(store: PartialProfileStore, rows) -> PartialProfileStore:
    for offset, qt in enumerate(rows):
        store.ingest_centered_profile(offset, qt)
    return store


def _assert_states_identical(first: PartialProfileStore, second: PartialProfileStore):
    state_a, state_b = first.export_state(), second.export_state()
    assert state_a.keys() == state_b.keys()
    for key, value in state_a.items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(value, state_b[key], err_msg=key)
        else:
            assert value == state_b[key], key


class TestSplitMergeEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_split_merge_is_bit_for_bit_serial(self, seed):
        """Fragments fed the same rows merge into the exact serial store."""
        values = _series(seed)
        stats = SlidingStats(values)
        rows = _captured_rows(values, stats)

        serial = _ingested(PartialProfileStore(values, stats, BASE, CAPACITY), rows)

        merged = PartialProfileStore(values, SlidingStats(values), BASE, CAPACITY)
        rng = np.random.default_rng(100 + seed)
        cuts = np.sort(rng.choice(np.arange(1, merged.num_profiles), 3, replace=False))
        edges = [0, *cuts.tolist(), merged.num_profiles]
        fragments = [
            merged.split((start, stop)) for start, stop in zip(edges, edges[1:])
        ]
        # Merge out of order on purpose: disjoint rows make order irrelevant.
        for fragment in reversed(fragments):
            start, stop = fragment.row_range
            for offset in range(start, stop):
                fragment.ingest_centered_profile(offset, rows[offset])
            merged.merge(fragment)

        _assert_states_identical(serial, merged)
        for length in (BASE + 2, BASE + 9):
            eval_serial = serial.evaluate(length)
            eval_merged = merged.evaluate(length)
            np.testing.assert_array_equal(eval_serial.min_indices, eval_merged.min_indices)
            np.testing.assert_array_equal(
                eval_serial.min_distances, eval_merged.min_distances
            )
            np.testing.assert_array_equal(eval_serial.valid, eval_merged.valid)

    @pytest.mark.parametrize("seed,block_size", [(5, 37), (6, 64), (7, 200)])
    def test_engine_block_ingest_matches_serial_sweep(self, seed, block_size):
        """Block-local ingest + merge vs the serial single-chain sweep:
        identical pairs, distances within 1e-11.  The two sweeps carry the
        same rows through different recurrence chains (a block starts from
        a fresh FFT seed, the monolithic sweep never does), so their dot
        products differ by a few ulps of accumulated drift; identical-plan
        comparisons — the actual merge claim — are bit-for-bit above."""
        values = _series(seed)
        stats = SlidingStats(values)
        serial = PartialProfileStore(values, stats, BASE, CAPACITY)
        stomp(values, BASE, stats=stats, ingest_store=serial)

        blocked_stores = {}
        for kernel in BLOCK_KERNELS:
            stats_blocked = SlidingStats(values)
            blocked = PartialProfileStore(
                values, stats_blocked, BASE, CAPACITY, kernel=kernel
            )
            partitioned_stomp(
                values,
                BASE,
                stats=stats_blocked,
                executor="serial",
                block_size=block_size,
                ingest_store=blocked,
                kernel=kernel,
            )
            blocked_stores[kernel] = blocked
        # Same block plan, different kernels: the same store bit for bit.
        for blocked in blocked_stores.values():
            _assert_states_identical(blocked, blocked_stores["numpy"])

        for length in (BASE, BASE + 4, BASE + 12):
            eval_serial = serial.evaluate(length)
            for blocked in blocked_stores.values():
                eval_blocked = blocked.evaluate(length)
                np.testing.assert_array_equal(
                    eval_serial.min_indices, eval_blocked.min_indices
                )
                finite = np.isfinite(eval_serial.min_distances)
                np.testing.assert_array_equal(
                    finite, np.isfinite(eval_blocked.min_distances)
                )
                np.testing.assert_allclose(
                    eval_serial.min_distances[finite],
                    eval_blocked.min_distances[finite],
                    atol=1e-11,
                    rtol=0,
                )

    def test_parallel_executor_ingest_is_bit_identical_to_serial_executor(self):
        """Same block plan through the process pool (worker-side fragments,
        shared-memory transport when available) and through the serial
        executor: the merged stores must match bit for bit.  On machines
        where the pool cannot start, the executor degrades to serial and
        the comparison still holds."""
        values = _series(11, n=500)
        block_size = 83

        stats_serial = SlidingStats(values)
        serial_store = PartialProfileStore(values, stats_serial, BASE, CAPACITY)
        partitioned_stomp(
            values,
            BASE,
            stats=stats_serial,
            executor="serial",
            block_size=block_size,
            ingest_store=serial_store,
            kernel="numpy",
        )

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with ParallelExecutor(n_jobs=2) as executor:
                for kernel in BLOCK_KERNELS:
                    stats_parallel = SlidingStats(values)
                    parallel_store = PartialProfileStore(
                        values, stats_parallel, BASE, CAPACITY
                    )
                    partitioned_stomp(
                        values,
                        BASE,
                        stats=stats_parallel,
                        executor=executor,
                        block_size=block_size,
                        ingest_store=parallel_store,
                        kernel=kernel,
                    )
                    _assert_states_identical(parallel_store, serial_store)


class TestMergeValidation:
    def _store(self, values) -> PartialProfileStore:
        return PartialProfileStore(values, SlidingStats(values), BASE, CAPACITY)

    def test_fragment_cannot_evaluate(self):
        values = _series(20)
        fragment = self._store(values).split((0, 5))
        with pytest.raises(InvalidParameterError, match="fragment"):
            fragment.evaluate(BASE + 1)

    def test_split_range_validated(self):
        values = _series(21)
        store = self._store(values)
        with pytest.raises(InvalidParameterError):
            store.split((5, store.num_profiles + 1))

    def test_merge_rejects_overlapping_rows(self):
        values = _series(22)
        stats = SlidingStats(values)
        store = PartialProfileStore(values, stats, BASE, CAPACITY)
        stomp(values, BASE, stats=stats, ingest_store=store)
        fragment = PartialProfileStore(
            values, SlidingStats(values), BASE, CAPACITY
        ).split((0, 4))
        with pytest.raises(InvalidParameterError, match="already ingested"):
            store.merge(fragment)

    def test_merge_rejects_mismatched_configuration(self):
        values = _series(23)
        store = self._store(values)
        other = PartialProfileStore(values, SlidingStats(values), BASE, CAPACITY + 1)
        with pytest.raises(InvalidParameterError, match="capacity"):
            store.merge(other.split((0, 3)))

    def test_merge_rejects_advanced_stores(self):
        values = _series(24)
        stats = SlidingStats(values)
        store = PartialProfileStore(values, stats, BASE, CAPACITY)
        stomp(values, BASE, stats=stats, ingest_store=store)
        store.advance_to(BASE + 2)
        fragment = PartialProfileStore(
            values, SlidingStats(values), BASE, CAPACITY
        ).split((0, 3))
        with pytest.raises(InvalidParameterError, match="advanced"):
            store.merge(fragment)

    def test_split_after_advance_raises(self):
        values = _series(25)
        stats = SlidingStats(values)
        store = PartialProfileStore(values, stats, BASE, CAPACITY)
        stomp(values, BASE, stats=stats, ingest_store=store)
        store.advance_to(BASE + 1)
        with pytest.raises(InvalidParameterError, match="advanced"):
            store.split((0, 4))

    def test_ingest_outside_fragment_rows_raises(self):
        values = _series(26)
        fragment = self._store(values).split((4, 9))
        with pytest.raises(InvalidParameterError, match="row range"):
            fragment.ingest_centered_profile(2, np.zeros(fragment.num_profiles))


class TestCenteredStoreAccuracy:
    """The offset-1e6 drift regression of the acceptance criteria."""

    OFFSET = 1e6

    @pytest.fixture(scope="class")
    def offset_series(self) -> np.ndarray:
        rng = np.random.default_rng(2018)
        return self.OFFSET + np.cumsum(rng.normal(size=700))

    def test_store_minima_match_brute_force_at_offset(self, offset_series):
        """Valid retained minima at offset 1e6: ≤1e-5 absolute vs brute
        force (the raw store carried ~1e-3 relative error here)."""
        stats = SlidingStats(offset_series)
        store = PartialProfileStore(offset_series, stats, 48, 16)
        stomp(offset_series, 48, stats=stats, ingest_store=store)
        for length in (50, 56, 64):
            evaluation = store.evaluate(length)
            oracle = brute_force_matrix_profile(
                offset_series, length, exclusion_radius=default_exclusion_radius(length)
            )
            valid = np.flatnonzero(evaluation.valid)
            assert valid.size > 0
            np.testing.assert_allclose(
                evaluation.min_distances[valid],
                oracle.distances[valid],
                atol=1e-5,
                rtol=0,
            )

    def test_valmod_reported_distances_at_offset(self, offset_series):
        """VALMOD end-to-end at offset 1e6: every reported pair's distance
        within 1e-5 of the definition-level distance of that pair."""
        from repro.stats.distance import znorm_euclidean

        result = repro.valmod(offset_series, 48, 52)
        for length in result.lengths:
            for pair in result.length_results[length].motifs:
                exact = znorm_euclidean(
                    offset_series[pair.offset_a : pair.offset_a + length],
                    offset_series[pair.offset_b : pair.offset_b + length],
                )
                np.testing.assert_allclose(pair.distance, exact, atol=1e-5, rtol=1e-6)

    def test_engine_valmod_matches_serial_at_offset(self, offset_series):
        """The engine-routed base pass discovers the same pairs with the
        same distances as the serial oracle at the hostile offset."""
        serial = repro.valmod(offset_series, 48, 51)
        engine = repro.valmod(offset_series, 48, 51, engine="serial", block_size=128)
        for length in serial.lengths:
            best_serial = serial.length_results[length].motifs[0]
            best_engine = engine.length_results[length].motifs[0]
            assert {best_serial.offset_a, best_serial.offset_b} == {
                best_engine.offset_a,
                best_engine.offset_b,
            }, length
            np.testing.assert_allclose(
                best_serial.distance, best_engine.distance, rtol=1e-9
            )
