"""Differential test: VALMOD against the brute-force oracle on random shapes.

Hypothesis draws a series shape, a length range of up to 24 lengths,
``top_k``, the profile capacity, the sweep kernel and the executor; each
example is tagged by whether the run re-based its store (most wide ranges
do, most narrow ones do not).  VALMOD's pairs must have the
offsets of :func:`~repro.baselines.brute_force_range.brute_force_range`
and its distances within 1e-8 (1e-5 at offset 1e6, the pin
``tests/test_stomp_centered.py`` documents for that offset; see
:func:`_assert_matches_brute_force` for ties below that pin).  The shapes
cover the numerically awkward cases: an exactly flat run longer than the
longest window (constant subsequences), a level shift, a large offset, and
a flat run at that offset.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force_range import brute_force_range
from repro.core.valmod import valmod
from repro.matrix_profile.kernels import available_kernels
from repro.stats.distance import znorm_euclidean

SHAPES = ("walk", "flat", "shift", "offset", "flat_offset")
OFFSET = 1e6


def _series(seed: int, size: int, shape: str, max_length: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.standard_normal(size))
    if shape in ("flat", "flat_offset"):
        run = int(rng.integers(max_length + 1, 2 * max_length + 1))
        start = int(rng.integers(0, size - run + 1))
        values[start : start + run] = values[start]
    elif shape == "shift":
        values[int(rng.integers(1, size)) :] += rng.choice([-1.0, 1.0]) * rng.uniform(5, 50)
    if shape in ("offset", "flat_offset"):
        values += OFFSET
    return values


@st.composite
def _cases(draw):
    min_length = draw(st.integers(8, 24))
    max_length = min_length + draw(st.integers(0, 23))
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "size": draw(st.integers(120, 320)),
        "shape": draw(st.sampled_from(SHAPES)),
        "min_length": min_length,
        "max_length": max_length,
        "top_k": draw(st.integers(1, 3)),
        "profile_capacity": draw(st.integers(1, 4)),
        "kernel": draw(st.sampled_from(available_kernels())),
        "engine": draw(st.sampled_from([None, "serial"])),
    }


def _assert_matches_brute_force(values, min_length, max_length, top_k, *, offset, **kwargs):
    """Pairs equal brute force's, distances within the tolerance.

    At offset 1e6 two pairs closer than the 1e-5 tolerance are a tie the
    window statistics cannot order.  There a different pair passes if its
    distance by definition is within the tolerance of brute force's, and
    the rest of that length goes unchecked: the greedy selection, with its
    exclusion zones, legitimately diverges after it.  Returns VALMOD's
    result.
    """
    tolerance = 1e-5 if offset else 1e-8
    result = valmod(values, min_length, max_length, top_k=top_k, **kwargs)
    oracle = brute_force_range(values, min_length, max_length, top_k=top_k)
    for length in oracle.lengths:
        expected = oracle.motifs_at(length)
        observed = result.motifs_at(length)
        assert len(observed) == len(expected), length
        for got, want in zip(observed, expected):
            if offset and got.offsets != want.offsets:
                a, b = got.offsets
                true = znorm_euclidean(values[a : a + length], values[b : b + length])
                assert abs(true - want.distance) <= tolerance, (length, got, want)
                assert abs(got.distance - true) <= tolerance, (length, got, true)
                break
            assert got.offsets == want.offsets, (length, got, want)
            assert abs(got.distance - want.distance) <= tolerance, (length, got, want)
    return result


@settings(max_examples=150, deadline=None)
@given(case=_cases())
def test_valmod_matches_brute_force(case):
    values = _series(case["seed"], case["size"], case["shape"], case["max_length"])
    result = _assert_matches_brute_force(
        values,
        case["min_length"],
        case["max_length"],
        case["top_k"],
        offset=case["shape"] in ("offset", "flat_offset"),
        profile_capacity=case["profile_capacity"],
        kernel=case["kernel"],
        engine=case["engine"],
    )
    rebased = any(
        entry.pruning.num_valid == 0 and entry.pruning.num_recomputed == entry.pruning.num_profiles
        for length, entry in result.length_results.items()
        if length > case["min_length"]
    )
    event("re-based" if rebased else "no re-base")


@pytest.mark.parametrize("kernel", available_kernels())
def test_flat_run_windows_are_constant(kernel):
    """Windows inside an exactly flat run of a random walk are constant:
    their pairs sit at distance 0, as the brute force finds them."""
    rng = np.random.default_rng(5)
    rng.standard_normal(300)
    values = np.cumsum(rng.standard_normal(300))
    values[100:160] = values[100]
    result = valmod(values, 16, 24, top_k=3, kernel=kernel)
    assert result.motifs_at(16)[0].offsets == (100, 105)
    assert result.motifs_at(16)[0].distance == 0.0
    _assert_matches_brute_force(values, 16, 24, 3, offset=False, kernel=kernel)


def test_flat_run_at_large_offset():
    rng = np.random.default_rng(61)
    values = np.cumsum(rng.standard_normal(160))
    values[40:52] = values[40]
    values += OFFSET
    _assert_matches_brute_force(values, 8, 10, 3, offset=True)
