"""Unit tests for repro.stats.fft (sliding dot products)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import InvalidParameterError
from repro.stats.fft import _next_fast_len, sliding_dot_product, sliding_dot_product_naive

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


class TestNaive:
    def test_simple_case(self):
        series = np.array([1.0, 2.0, 3.0, 4.0])
        query = np.array([1.0, 1.0])
        np.testing.assert_allclose(
            sliding_dot_product_naive(query, series), np.array([3.0, 5.0, 7.0])
        )

    def test_query_equal_to_series(self):
        series = np.array([1.0, -2.0, 3.0])
        result = sliding_dot_product_naive(series, series)
        assert result.shape == (1,)
        assert result[0] == pytest.approx(float(series @ series))

    def test_rejects_long_query(self):
        with pytest.raises(InvalidParameterError):
            sliding_dot_product_naive(np.ones(5), np.ones(3))

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            sliding_dot_product_naive(np.array([]), np.ones(3))

    def test_rejects_2d(self):
        with pytest.raises(InvalidParameterError):
            sliding_dot_product_naive(np.ones((2, 2)), np.ones(5))


class TestFFT:
    def test_matches_naive_long_query(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=500)
        query = rng.normal(size=64)
        np.testing.assert_allclose(
            sliding_dot_product(query, series),
            sliding_dot_product_naive(query, series),
            atol=1e-8,
        )

    def test_matches_naive_short_query(self):
        rng = np.random.default_rng(1)
        series = rng.normal(size=100)
        query = rng.normal(size=4)  # below the naive cutoff
        np.testing.assert_allclose(
            sliding_dot_product(query, series),
            sliding_dot_product_naive(query, series),
            atol=1e-10,
        )

    def test_output_length(self):
        result = sliding_dot_product(np.ones(30), np.ones(100))
        assert result.shape == (71,)

    def test_query_longer_than_series_raises(self):
        with pytest.raises(InvalidParameterError):
            sliding_dot_product(np.ones(11), np.ones(10))

    @settings(max_examples=30, deadline=None)
    @given(
        series=hnp.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=20, max_value=120),
            elements=st.floats(min_value=-100, max_value=100, allow_nan=False, width=64),
        ),
        query_length=st.integers(min_value=2, max_value=40),
    )
    def test_property_fft_equals_naive(self, series, query_length):
        query_length = min(query_length, series.size)
        query = series[:query_length]
        np.testing.assert_allclose(
            sliding_dot_product(query, series),
            sliding_dot_product_naive(query, series),
            atol=1e-6 * max(1.0, np.abs(series).max() ** 2 * query_length),
        )


class TestNextFastLen:
    """The FFT size: the smallest 5-smooth number at or above the target."""

    @pytest.mark.parametrize(
        "target, size", [(1, 1), (7, 8), (2163, 2187), (4223, 4320), (32895, 33750)]
    )
    def test_known_sizes(self, target, size):
        assert _next_fast_len(target) == size

    def test_smallest_five_smooth_at_or_above_every_target(self):
        limit = 20000
        smooth = sorted(
            2**a * 3**b * 5**c
            for a in range(16)
            for b in range(10)
            for c in range(8)
            if 2**a * 3**b * 5**c <= 2 * limit
        )
        position = 0
        for target in range(1, limit + 1):
            while smooth[position] < target:
                position += 1
            assert _next_fast_len(target) == smooth[position], target

    def test_matches_scipy(self):
        scipy_fft = pytest.importorskip("scipy.fft")
        for target in range(1, 20001):
            assert _next_fast_len(target) == scipy_fft.next_fast_len(target, real=True), target

    @pytest.mark.parametrize(
        "n, m", [(300, 17), (1024, 48), (2047, 133), (4096, 128), (32768, 100)]
    )
    def test_products_bit_identical_to_scipy(self, n, m):
        scipy_fft = pytest.importorskip("scipy.fft")
        rng = np.random.default_rng(n + m)
        series = np.cumsum(rng.standard_normal(n))
        query = rng.standard_normal(m)
        size = scipy_fft.next_fast_len(n + m - 1, real=True)
        full = scipy_fft.irfft(
            scipy_fft.rfft(series, size) * scipy_fft.rfft(query[::-1], size), size
        )
        assert sliding_dot_product(query, series).tobytes() == full[m - 1 : n].tobytes()


def test_package_loads_no_scipy():
    """``import repro``, a VALMOD run and a STOMP run load no ``scipy``
    module: the package depends on numpy alone."""
    script = (
        "import sys, numpy as np, repro\n"
        "values = np.cumsum(np.random.default_rng(0).standard_normal(500))\n"
        "repro.valmod(values, 16, 40)\n"
        "repro.stomp(values, 64)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]", run.stdout
