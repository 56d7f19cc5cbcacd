"""Randomized-oracle property tests for the block-partitioned engine.

Strategy: draw ~50 random ``(generator, n, m, block_size)`` configurations
from a seeded generator and assert that the block-partitioned profile
matches the serial :func:`~repro.matrix_profile.stomp.stomp` sweep — the
library's certified oracle — to ``1e-8`` in distances and **exactly** in
indices.  A handful of small configurations are additionally cross-checked
against the definitional :func:`brute_force_matrix_profile`, and a subset
re-runs through a shared two-worker :class:`ProcessPoolExecutor`-backed
:class:`~repro.engine.executor.ParallelExecutor` to cover the pickling /
ordering path.

The random block sizes deliberately include the degenerate shapes the
merge must survive: blocks of a single row, blocks smaller than the
window, a single block covering everything, and block boundaries falling
inside an exclusion zone (block_size near the exclusion radius).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ParallelExecutor, partitioned_stomp, plan_blocks
from repro.engine.partition import default_block_size
from repro.exceptions import InvalidParameterError
from repro.generators import generate_planted_motifs, generate_random_walk
from repro.matrix_profile.brute_force import brute_force_matrix_profile
from repro.matrix_profile.exclusion import default_exclusion_radius
from repro.matrix_profile.stomp import stomp

DISTANCE_TOL = 1e-8
NUM_RANDOM_CONFIGS = 50


def _random_config(rng: np.random.Generator, index: int):
    """One random (series, window, block_size) oracle configuration."""
    n = int(rng.integers(120, 600))
    m = int(rng.integers(4, max(5, min(64, n // 3))))
    count = n - m + 1
    kind = ["random_walk", "planted"][index % 2]
    seed = int(rng.integers(0, 2**31))
    series = None
    if kind == "planted":
        motif_length = max(8, min(2 * m, n // 8))
        try:
            planted, _ = generate_planted_motifs(
                n,
                motif_lengths=(motif_length,),
                copies_per_motif=2,
                distortion=0.02,
                random_state=seed,
            )
            series = np.array(planted.values)
        except InvalidParameterError:
            series = None  # placement can fail for tight draws; fall back
    if series is None:
        series = np.array(generate_random_walk(n, random_state=seed).values)
    # Block sizes biased toward the tricky shapes: single-row blocks,
    # blocks below the window length, near the exclusion radius (so a
    # boundary straddles an exclusion zone), and whole-range blocks.
    radius = default_exclusion_radius(m)
    block_choices = [1, max(1, m // 2), radius, m, int(rng.integers(1, count + 1)), count, count + 50]
    block_size = int(block_choices[int(rng.integers(0, len(block_choices)))])
    return series, m, max(1, block_size)


@pytest.fixture(scope="module")
def configs():
    rng = np.random.default_rng(20180611)
    return [_random_config(rng, index) for index in range(NUM_RANDOM_CONFIGS)]


def _assert_matches(reference, candidate, context: str) -> None:
    assert np.array_equal(reference.indices, candidate.indices), context
    deviation = float(np.max(np.abs(reference.distances - candidate.distances)))
    assert deviation <= DISTANCE_TOL, f"{context}: max deviation {deviation}"


def test_blocked_matches_serial_oracle_over_random_configs(configs):
    for index, (series, window, block_size) in enumerate(configs):
        reference = stomp(series, window)
        blocked = partitioned_stomp(
            series, window, executor="serial", block_size=block_size
        )
        _assert_matches(
            reference,
            blocked,
            f"config {index}: n={series.size} m={window} block={block_size}",
        )


def test_blocked_matches_brute_force_on_small_configs(configs):
    small = [cfg for cfg in configs if cfg[0].size <= 220][:4]
    assert small, "the seeded draw should produce small configurations"
    for series, window, block_size in small:
        oracle = brute_force_matrix_profile(series, window)
        blocked = partitioned_stomp(
            series, window, executor="serial", block_size=block_size
        )
        assert np.array_equal(oracle.indices, blocked.indices)
        assert np.max(np.abs(oracle.distances - blocked.distances)) <= 1e-6


def test_parallel_matches_serial_oracle(configs):
    with ParallelExecutor(n_jobs=2) as executor:
        for series, window, block_size in configs[:8]:
            reference = stomp(series, window)
            parallel = partitioned_stomp(
                series, window, executor=executor, block_size=block_size
            )
            _assert_matches(
                reference,
                parallel,
                f"parallel: n={series.size} m={window} block={block_size}",
            )


def test_edge_blocks_explicitly():
    """The shapes called out in the issue, pinned (not left to the draw)."""
    series = np.array(generate_random_walk(300, random_state=11).values)
    window = 32
    count = series.size - window + 1
    radius = default_exclusion_radius(window)
    reference = stomp(series, window)
    for block_size in (1, window // 2, radius, radius + 1, count, count + 10):
        blocked = partitioned_stomp(
            series, window, executor="serial", block_size=block_size
        )
        _assert_matches(reference, blocked, f"edge block_size={block_size}")


def test_exclusion_zone_straddling_block_boundary():
    """A best match just across a block seam must survive the merge.

    With planted copies at known offsets and a block boundary placed
    between a query row and its (nearby but non-trivial) match, the
    blocked result must still find the identical match.
    """
    series, truth = generate_planted_motifs(
        400, motif_lengths=(24,), copies_per_motif=2, distortion=0.01, random_state=5
    )
    values = np.array(series.values)
    window = 24
    reference = stomp(values, window)
    # Boundaries at and around the planted offsets, including mid-exclusion-zone.
    planted = truth[0].offsets[0]
    for block_size in (max(1, planted - 3), planted, planted + 5):
        blocked = partitioned_stomp(
            values, window, executor="serial", block_size=block_size
        )
        _assert_matches(reference, blocked, f"straddle block_size={block_size}")


def test_plan_blocks_partitions_exactly():
    for count, block_size in ((1, 1), (10, 3), (100, 100), (100, 101), (7, 1)):
        blocks = plan_blocks(count, block_size)
        rows = [row for start, stop in blocks for row in range(start, stop)]
        assert rows == list(range(count))
    with pytest.raises(InvalidParameterError):
        plan_blocks(0, 4)
    with pytest.raises(InvalidParameterError):
        plan_blocks(4, 0)


def test_default_block_size_bounds():
    assert default_block_size(10, 4) >= 1
    for count, jobs in ((100, 1), (10**5, 8), (8192, 2), (10**6, 1)):
        size = default_block_size(count, jobs)
        assert 1 <= size <= count
        # Four blocks per worker (load balancing) unless that would
        # produce seed-dominated slivers.
        assert len(plan_blocks(count, size)) <= max(4 * jobs, count // 64 + 1)


def test_engine_knob_on_stomp_rejects_unknown_engine():
    series = np.array(generate_random_walk(120, random_state=1).values)
    with pytest.raises(InvalidParameterError):
        stomp(series, 16, engine="gpu")
