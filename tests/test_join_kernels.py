"""Join/anytime-tier kernel pins: AB-join recurrence and SCRIMP diagonals.

The kernelization PR promised that the fast join kernels are *bit-for-bit*
equal to the historical per-subsequence MASS loop (now ``kernel="oracle"``)
whenever reseeding is disabled, and that the compiled SCRIMP diagonal sweep
is bit-identical to the one-diagonal-at-a-time oracle for **every**
fraction and resume point.  Each promise is pinned here:

* ``ab_join``/``join_sweep_rows``: numpy and native kernels at
  ``reseed_interval=0`` match the oracle exactly — distances AND indices —
  across uneven lengths, flat runs / zero-variance windows on either side,
  a window equal to the shorter series, and an entirely constant series;
* at the default reseed interval the fast kernels agree with each other
  bitwise, and with the oracle on indices (distances to 1e-8);
* row-range partitioning and the ``engine=`` path reproduce the serial
  sweep;
* ``scrimp``/``scrimp_pp`` and ``run_diagonal_sweep``: all kernels
  bitwise identical for full or partial fractions, for a diagonal order
  folded in one call or in chunks, and from resumed states;
* ``mpdist`` rides the same guarantees through ``ab_join_both``;
* an explicit ``kernel="native"`` request degrades to numpy with a single
  RuntimeWarning when no compiler is available.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.matrix_profile import _native, kernels
from repro.matrix_profile.ab_join import JoinProfile, ab_join, ab_join_both, join_sweep_rows
from repro.matrix_profile.exclusion import default_exclusion_radius
from repro.matrix_profile.kernels import available_kernels, run_diagonal_sweep
from repro.matrix_profile.mpdist import mpdist
from repro.matrix_profile.scrimp import ScrimpState, pre_scrimp, scrimp, scrimp_pp
from repro.stats.sliding import SlidingStats

FAST_KERNELS = [name for name in ("numpy", "native") if name in available_kernels()]


def _walk(n: int, seed: int) -> np.ndarray:
    return np.cumsum(np.random.default_rng(seed).normal(size=n))


def _flat_patched(n: int, seed: int, runs) -> np.ndarray:
    values = _walk(n, seed)
    for start, stop in runs:
        values[start:stop] = values[start]
    return values


#: (series_a, series_b, window) triples covering the equality matrix.
JOIN_CASES = {
    "uneven_lengths": (_walk(300, 1), _walk(451, 2), 24),
    "flat_runs_in_a": (_flat_patched(256, 3, [(40, 90), (200, 230)]), _walk(180, 4), 16),
    "flat_runs_in_b": (_walk(180, 5), _flat_patched(256, 6, [(10, 60), (150, 200)]), 16),
    "flat_in_both": (
        _flat_patched(200, 7, [(0, 40)]),
        _flat_patched(240, 8, [(100, 160)]),
        12,
    ),
    # The largest window the validator allows: the shorter series holds
    # exactly two subsequences.
    "window_at_shorter_series_limit": (_walk(200, 9), _walk(49, 10), 48),
    "all_flat_b": (_walk(150, 11), np.full(96, 3.25), 16),
    "tiny": (_walk(20, 12), _walk(17, 13), 5),
}


def _assert_joins_equal(result: JoinProfile, reference: JoinProfile) -> None:
    np.testing.assert_array_equal(result.indices, reference.indices)
    np.testing.assert_array_equal(result.distances, reference.distances)


class TestJoinEqualityMatrix:
    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    @pytest.mark.parametrize("case", sorted(JOIN_CASES))
    def test_reseed_zero_is_bitwise_oracle(self, kernel, case):
        values_a, values_b, window = JOIN_CASES[case]
        oracle = ab_join(values_a, values_b, window, kernel="oracle")
        fast = ab_join(values_a, values_b, window, kernel=kernel, reseed_interval=0)
        _assert_joins_equal(fast, oracle)

    @pytest.mark.parametrize("case", sorted(JOIN_CASES))
    @pytest.mark.parametrize("reseed", [None, 7])
    def test_fast_kernels_agree_bitwise(self, case, reseed):
        if "native" not in FAST_KERNELS:
            pytest.skip("native kernel unavailable (no compiler)")
        values_a, values_b, window = JOIN_CASES[case]
        numpy_join = ab_join(
            values_a, values_b, window, kernel="numpy", reseed_interval=reseed
        )
        native_join = ab_join(
            values_a, values_b, window, kernel="native", reseed_interval=reseed
        )
        _assert_joins_equal(native_join, numpy_join)

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_default_reseed_close_to_oracle(self, kernel):
        values_a, values_b, window = JOIN_CASES["uneven_lengths"]
        oracle = ab_join(values_a, values_b, window, kernel="oracle")
        fast = ab_join(values_a, values_b, window, kernel=kernel)
        np.testing.assert_array_equal(fast.indices, oracle.indices)
        np.testing.assert_allclose(fast.distances, oracle.distances, atol=1e-8)

    def test_negative_reseed_interval_raises(self):
        values_a, values_b, window = JOIN_CASES["tiny"]
        with pytest.raises(InvalidParameterError):
            ab_join(values_a, values_b, window, kernel="numpy", reseed_interval=-1)

    def test_unknown_kernel_raises(self):
        values_a, values_b, window = JOIN_CASES["tiny"]
        with pytest.raises(InvalidParameterError):
            ab_join(values_a, values_b, window, kernel="fortran")


class TestJoinPartitioning:
    @pytest.mark.parametrize("kernel", ["oracle"] + FAST_KERNELS)
    def test_row_ranges_concatenate_to_full_sweep(self, kernel):
        values_a, values_b, window = JOIN_CASES["uneven_lengths"]
        stats_a = SlidingStats(values_a)
        stats_b = SlidingStats(values_b)
        count_a = values_a.size - window + 1
        full = join_sweep_rows(
            values_a,
            values_b,
            window,
            0,
            count_a,
            stats_a=stats_a,
            stats_b=stats_b,
            kernel=kernel,
            reseed_interval=0,
        )
        pieces = [
            join_sweep_rows(
                values_a,
                values_b,
                window,
                start,
                min(start + 50, count_a),
                stats_a=stats_a,
                stats_b=stats_b,
                kernel=kernel,
                reseed_interval=0,
            )
            for start in range(0, count_a, 50)
        ]
        np.testing.assert_array_equal(
            np.concatenate([piece.distances for piece in pieces]), full.distances
        )
        np.testing.assert_array_equal(
            np.concatenate([piece.indices for piece in pieces]), full.indices
        )

    def test_engine_path_matches_serial(self):
        values_a, values_b, window = JOIN_CASES["uneven_lengths"]
        oracle = ab_join(values_a, values_b, window, kernel="oracle")
        engined = ab_join(
            values_a,
            values_b,
            window,
            kernel="numpy",
            reseed_interval=0,
            engine="parallel",
            n_jobs=2,
            block_size=64,
        )
        _assert_joins_equal(engined, oracle)

    def test_engine_path_default_kernel(self):
        # At the default reseed interval every engine block starts from a
        # fresh FFT seed, so the recurrence rounding differs slightly from
        # the serial sweep: indices agree, distances to 1e-8.
        values_a, values_b, window = JOIN_CASES["flat_runs_in_b"]
        serial = ab_join(values_a, values_b, window)
        engined = ab_join(
            values_a, values_b, window, engine="parallel", n_jobs=2, block_size=50
        )
        np.testing.assert_array_equal(engined.indices, serial.indices)
        np.testing.assert_allclose(engined.distances, serial.distances, atol=1e-8)


class TestStatsPassthrough:
    def test_precomputed_stats_change_nothing(self):
        values_a, values_b, window = JOIN_CASES["flat_runs_in_a"]
        stats_a = SlidingStats(values_a)
        stats_b = SlidingStats(values_b)
        plain = ab_join(values_a, values_b, window, kernel="oracle")
        seeded = ab_join(
            values_a, values_b, window, stats_a=stats_a, stats_b=stats_b, kernel="oracle"
        )
        _assert_joins_equal(seeded, plain)

        fwd_plain, bwd_plain = ab_join_both(values_a, values_b, window, kernel="oracle")
        fwd, bwd = ab_join_both(
            values_a, values_b, window, stats_a=stats_a, stats_b=stats_b, kernel="oracle"
        )
        _assert_joins_equal(fwd, fwd_plain)
        _assert_joins_equal(bwd, bwd_plain)

        assert mpdist(
            values_a, values_b, window, stats_a=stats_a, stats_b=stats_b
        ) == mpdist(values_a, values_b, window)

    def test_ab_join_both_matches_two_one_sided_joins(self):
        values_a, values_b, window = JOIN_CASES["uneven_lengths"]
        forward, backward = ab_join_both(values_a, values_b, window, kernel="oracle")
        _assert_joins_equal(forward, ab_join(values_a, values_b, window, kernel="oracle"))
        _assert_joins_equal(backward, ab_join(values_b, values_a, window, kernel="oracle"))


class TestMpdistKernels:
    #: Pairs exercising the MPdist properties the module docstring promises.
    CORPUS = [
        (_walk(200, 20), _walk(200, 21), 20),
        (_walk(150, 22), _walk(260, 23), 16),
        (_flat_patched(180, 24, [(30, 80)]), _walk(140, 25), 12),
    ]

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_fast_equals_oracle_at_reseed_zero(self, kernel):
        for values_a, values_b, window in self.CORPUS:
            oracle = mpdist(values_a, values_b, window, kernel="oracle")
            fast = mpdist(values_a, values_b, window, kernel=kernel, reseed_interval=0)
            assert fast == oracle

    def test_default_close_to_oracle_and_symmetric(self):
        for values_a, values_b, window in self.CORPUS:
            oracle = mpdist(values_a, values_b, window, kernel="oracle")
            fast = mpdist(values_a, values_b, window)
            assert fast == pytest.approx(oracle, abs=1e-8)
            assert mpdist(values_a, values_b, window) == mpdist(
                values_b, values_a, window
            )
        values_a, _, window = self.CORPUS[0]
        assert mpdist(values_a, values_a, window) == pytest.approx(0.0, abs=1e-9)


class TestScrimpKernels:
    SERIES = _flat_patched(400, 30, [(120, 160)])
    WINDOW = 24

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    @pytest.mark.parametrize("fraction", [1.0, 0.35])
    @pytest.mark.parametrize("chunk", [None, 1, 3, 10**6])
    def test_bitwise_equal_to_oracle(self, kernel, fraction, chunk):
        """A randomized diagonal order folded by ``kernel`` — in one call
        (``None``) or ``chunk`` diagonals per call, as an interrupted and
        resumed run would — leaves the oracle's state bit for bit."""
        means, stds = SlidingStats(self.SERIES).mean_std(self.WINDOW)
        count = means.size
        diagonals = np.arange(default_exclusion_radius(self.WINDOW) + 1, count)
        order = np.random.default_rng(11).permutation(diagonals)
        order = order[: max(1, round(fraction * order.size))]

        def fold(name, width):
            distances = np.full(count, np.inf)
            indices = np.full(count, -1, dtype=np.int64)
            for start in range(0, order.size, width):
                run_diagonal_sweep(
                    self.SERIES,
                    self.WINDOW,
                    means,
                    stds,
                    order[start : start + width],
                    distances,
                    indices,
                    kernel=name,
                )
            return distances, indices

        oracle = fold("oracle", order.size)
        fast = fold(kernel, chunk or order.size)
        np.testing.assert_array_equal(fast[0], oracle[0])
        np.testing.assert_array_equal(fast[1], oracle[1])

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_resume_from_seeded_state_bitwise(self, kernel):
        seeded = pre_scrimp(self.SERIES, self.WINDOW, random_state=5)
        count = self.SERIES.size - self.WINDOW + 1

        def fresh_state():
            return ScrimpState(
                distances=np.array(seeded.distances),
                indices=np.array(seeded.indices),
                window=self.WINDOW,
                exclusion_radius=seeded.exclusion_radius,
                diagonals_done=0,
                diagonals_total=max(count - seeded.exclusion_radius - 1, 0),
            )

        oracle = scrimp(
            self.SERIES,
            self.WINDOW,
            fraction=0.6,
            random_state=7,
            state=fresh_state(),
            kernel="oracle",
        )
        fast = scrimp(
            self.SERIES,
            self.WINDOW,
            fraction=0.6,
            random_state=7,
            state=fresh_state(),
            kernel=kernel,
        )
        np.testing.assert_array_equal(fast.distances, oracle.distances)
        np.testing.assert_array_equal(fast.indices, oracle.indices)

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_scrimp_pp_bitwise(self, kernel):
        oracle = scrimp_pp(
            self.SERIES, self.WINDOW, fraction=0.8, random_state=9, kernel="oracle"
        )
        fast = scrimp_pp(
            self.SERIES, self.WINDOW, fraction=0.8, random_state=9, kernel=kernel
        )
        np.testing.assert_array_equal(fast.distances, oracle.distances)
        np.testing.assert_array_equal(fast.indices, oracle.indices)


@pytest.fixture
def _native_reset():
    """Restore the native loader's cached probe state around env flips."""
    yield
    _native.reset()


def test_native_fallback_covers_join_kernels(monkeypatch, _native_reset):
    monkeypatch.setenv(_native.DISABLE_ENV, "1")
    _native.reset()
    monkeypatch.setattr(kernels, "_warned_native_fallback", False)

    values_a, values_b, window = JOIN_CASES["tiny"]
    with pytest.warns(RuntimeWarning, match="falling back"):
        degraded = ab_join(values_a, values_b, window, kernel="native", reseed_interval=0)
    oracle = ab_join(values_a, values_b, window, kernel="oracle")
    _assert_joins_equal(degraded, oracle)

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the warning fires once per process
        fast = scrimp(values_a, window, kernel="native")
    reference = scrimp(values_a, window, kernel="oracle")
    np.testing.assert_array_equal(fast.distances, reference.distances)
