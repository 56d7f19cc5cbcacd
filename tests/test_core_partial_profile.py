"""Tests of the partial-profile store (VALMOD's cross-length memory)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.partial_profile import _STATE_FIELDS, PartialProfileStore
from repro.exceptions import InvalidParameterError
from repro.matrix_profile.brute_force import brute_force_matrix_profile
from repro.matrix_profile.exclusion import default_exclusion_radius
from repro.matrix_profile.kernels import available_kernels
from repro.matrix_profile.stomp import stomp
from repro.stats.sliding import SlidingStats

#: The two store paths: numpy always, native when a compiler is present.
STORE_KERNELS = [name for name in ("numpy", "native") if name in available_kernels()]


def _build_store(
    values: np.ndarray, base_length: int, capacity: int, kernel: str | None = None
) -> PartialProfileStore:
    stats = SlidingStats(values)
    store = PartialProfileStore(values, stats, base_length, capacity, kernel=kernel)
    stomp(values, base_length, stats=stats, ingest_store=store, kernel=kernel)
    return store


def _advance_stepwise(store: PartialProfileStore, length: int) -> None:
    """The historical one-length-per-pass advance: the reference that
    ``advance_to`` (numpy and native) must match bit for bit."""
    values = store._values
    n = values.size
    while store._current_length < length:
        current = store._current_length
        new_length = current + 1
        # Rows whose query subsequence still fits at the new length.
        local_stop = min(store._row_stop, n - new_length + 1)
        if local_stop > store._row_start:
            local = slice(0, local_stop - store._row_start)
            rows = np.arange(store._row_start, local_stop)
            neighbors = store._neighbors[local]
            applicable = (neighbors >= 0) & (neighbors <= n - new_length)
            if applicable.any():
                query_tail = values[rows + current][:, np.newaxis]
                neighbor_tail = np.where(
                    applicable, values[np.clip(neighbors + current, 0, n - 1)], 0.0
                )
                store._dot_products[local] += np.where(
                    applicable, query_tail * neighbor_tail, 0.0
                )
        store._current_length = new_length


class TestConstruction:
    def test_capacity_must_be_positive(self, small_random_series):
        stats = SlidingStats(small_random_series)
        with pytest.raises(InvalidParameterError):
            PartialProfileStore(small_random_series, stats, 16, 0)

    def test_double_ingest_raises(self, small_random_series):
        stats = SlidingStats(small_random_series)
        store = PartialProfileStore(small_random_series, stats, 16, 4)
        qt = np.zeros(store.num_profiles)
        store.ingest_centered_profile(0, qt)
        with pytest.raises(InvalidParameterError):
            store.ingest_centered_profile(0, qt)

    def test_wrong_profile_length_raises(self, small_random_series):
        stats = SlidingStats(small_random_series)
        store = PartialProfileStore(small_random_series, stats, 16, 4)
        with pytest.raises(InvalidParameterError):
            store.ingest_centered_profile(0, np.zeros(5))

    def test_malformed_block_raises(self, small_random_series):
        """A block of retained rows must match the store's arrays in shape
        and dtype: a narrower field would otherwise broadcast into every
        row's ``capacity`` entries."""
        state = _build_store(small_random_series, 16, 4).export_state()
        good = {field: state[field][:3] for field in _STATE_FIELDS}
        bad_blocks = [
            {**good, "neighbors": good["neighbors"][:, :1]},
            {**good, "dot_products": good["dot_products"].astype(np.float32)},
            {**good, "pruned_correlation_ceiling": good["pruned_correlation_ceiling"][:2]},
        ]
        stats = SlidingStats(small_random_series)
        store = PartialProfileStore(small_random_series, stats, 16, 4)
        for block in bad_blocks:
            with pytest.raises(InvalidParameterError, match="block field"):
                store.ingest_centered_profile(0, block)
        assert not store.export_state()["populated"].any()
        store.ingest_centered_profile(0, good)
        assert store.export_state()["populated"][:3].all()

    def test_properties(self, small_random_series):
        store = _build_store(small_random_series, 16, 8)
        assert store.base_length == 16
        assert store.capacity == 8
        assert store.num_profiles == small_random_series.size - 16 + 1
        assert store.current_length == 16


class TestAdvance:
    def test_cannot_shrink(self, small_random_series):
        for kernel in STORE_KERNELS:
            store = _build_store(small_random_series, 16, 4, kernel)
            store.advance_to(20)
            with pytest.raises(InvalidParameterError, match="shrink"):
                store.advance_to(18)

    def test_cannot_exceed_series(self, small_random_series):
        for kernel in STORE_KERNELS:
            store = _build_store(small_random_series, 16, 4, kernel)
            with pytest.raises(InvalidParameterError, match="exceeds"):
                store.advance_to(small_random_series.size + 1)

    def test_evaluate_below_base_raises(self, small_random_series):
        for kernel in STORE_KERNELS:
            store = _build_store(small_random_series, 16, 4, kernel)
            with pytest.raises(InvalidParameterError, match="smaller than the base"):
                store.evaluate(10)

    @pytest.mark.parametrize(
        "size,base,capacity", [(200, 16, 4), (200, 16, 32), (257, 24, 8)]
    )
    def test_blocked_advance_is_bitwise_stepwise(self, size, base, capacity):
        """The blocked multi-step tail update — numpy and native — must be
        *bit-for-bit* equal to the per-step reference loop, including
        multi-stage resumes and an advance to the full series length."""
        values = np.cumsum(np.random.default_rng(size + capacity).normal(size=size))
        advanced = {
            kernel: _build_store(values, base, capacity, kernel) for kernel in STORE_KERNELS
        }
        stepwise = _build_store(values, base, capacity, "numpy")
        targets = [base + 1, base + 7, base + 40, size]
        for target in targets:
            _advance_stepwise(stepwise, target)
            for kernel, store in advanced.items():
                store.advance_to(target)
                assert store.current_length == stepwise.current_length == target
                assert (
                    store._dot_products.tobytes() == stepwise._dot_products.tobytes()
                ), f"{kernel} dot products diverged advancing to {target}"
        reference = stepwise.evaluate(size)
        for store in advanced.values():
            evaluated = store.evaluate(size)
            np.testing.assert_array_equal(evaluated.min_distances, reference.min_distances)
            np.testing.assert_array_equal(evaluated.min_indices, reference.min_indices)
            np.testing.assert_array_equal(evaluated.valid, reference.valid)


class TestEvaluationCorrectness:
    @pytest.mark.parametrize("capacity", [2, 8, 32])
    def test_valid_profiles_have_exact_minima(self, small_random_series, capacity):
        """For every *valid* profile, minDist must equal the true profile minimum."""
        values = small_random_series
        base = 16
        store = _build_store(values, base, capacity)
        for length in (17, 20, 28):
            evaluation = store.evaluate(length)
            oracle = brute_force_matrix_profile(
                values, length, exclusion_radius=default_exclusion_radius(length)
            )
            valid = np.flatnonzero(evaluation.valid)
            if capacity >= 8:
                # with a reasonable capacity the vast majority of profiles
                # just above the base length should stay valid
                assert valid.size > 0
            np.testing.assert_allclose(
                evaluation.min_distances[valid], oracle.distances[valid], atol=1e-5
            )

    @pytest.mark.parametrize("capacity", [2, 8])
    def test_max_lb_bounds_true_minimum_of_non_valid_profiles(
        self, small_random_series, capacity
    ):
        """For *non-valid* profiles maxLB is a certified floor on the true minimum.

        (For valid profiles the retained minimum may legitimately sit below
        maxLB — that is precisely what makes them valid.)
        """
        values = small_random_series
        store = _build_store(values, 16, capacity)
        for length in (18, 24, 32):
            evaluation = store.evaluate(length)
            oracle = brute_force_matrix_profile(
                values, length, exclusion_radius=default_exclusion_radius(length)
            )
            non_valid = ~evaluation.valid & np.isfinite(oracle.distances)
            assert np.all(
                evaluation.max_lower_bounds[non_valid]
                <= oracle.distances[non_valid] + 1e-6
            )

    def test_min_distances_are_upper_bounds(self, small_random_series):
        """minDist (from retained entries) can never be below the true minimum."""
        values = small_random_series
        store = _build_store(values, 16, 4)
        for length in (18, 26):
            evaluation = store.evaluate(length)
            oracle = brute_force_matrix_profile(
                values, length, exclusion_radius=default_exclusion_radius(length)
            )
            finite = np.isfinite(evaluation.min_distances) & np.isfinite(oracle.distances)
            assert np.all(
                evaluation.min_distances[finite] >= oracle.distances[finite] - 1e-6
            )

    def test_larger_capacity_never_reduces_validity(self, small_random_series):
        small = _build_store(small_random_series, 16, 2)
        large = _build_store(small_random_series, 16, 24)
        evaluation_small = small.evaluate(28)
        evaluation_large = large.evaluate(28)
        assert evaluation_large.num_valid >= evaluation_small.num_valid

    def test_evaluation_statistics_consistency(self, small_random_series):
        store = _build_store(small_random_series, 16, 8)
        evaluation = store.evaluate(22)
        assert evaluation.num_valid + evaluation.num_non_valid == evaluation.valid.size
        if evaluation.num_non_valid:
            assert np.isfinite(evaluation.min_lb_abs)
        else:
            assert evaluation.min_lb_abs == np.inf

    def test_flat_series_never_prunes_incorrectly(self):
        """A series with constant stretches must still produce exact valid minima."""
        values = np.concatenate(
            [np.zeros(40), np.sin(np.linspace(0, 20, 150)), np.zeros(40), np.ones(30)]
        )
        store = _build_store(values, 12, 4)
        for length in (14, 18):
            evaluation = store.evaluate(length)
            oracle = brute_force_matrix_profile(
                values, length, exclusion_radius=default_exclusion_radius(length)
            )
            valid = np.flatnonzero(evaluation.valid)
            np.testing.assert_allclose(
                evaluation.min_distances[valid], oracle.distances[valid], atol=1e-5
            )
