"""Tests of the batch API: order, equivalence, isolation, stats reuse."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    JobOutcome,
    ParallelExecutor,
    ProfileJob,
    SerialExecutor,
    compute_profiles,
)
from repro.exceptions import InvalidParameterError, SubsequenceLengthError
from repro.generators import generate_ecg, generate_random_walk
from repro.matrix_profile.stomp import stomp


@pytest.fixture(scope="module")
def walk():
    return np.array(generate_random_walk(400, random_state=21).values)


@pytest.fixture(scope="module")
def ecg():
    return generate_ecg(350, beat_period=50, random_state=2)


def _assert_profile_equal(reference, candidate) -> None:
    assert np.array_equal(reference.indices, candidate.indices)
    assert np.max(np.abs(reference.distances - candidate.distances)) <= 1e-8


def test_batch_matches_individual_calls_and_preserves_order(walk, ecg):
    jobs = [
        ProfileJob(walk, window=32),
        ProfileJob(ecg, window=50),
        ProfileJob(walk, window=24),
        ProfileJob(walk, window=8),
    ]
    outcomes = compute_profiles(jobs, executor="serial")
    assert [outcome.index for outcome in outcomes] == [0, 1, 2, 3]
    assert [outcome.job for outcome in outcomes] == jobs
    assert all(outcome.ok for outcome in outcomes)

    _assert_profile_equal(stomp(walk, 32), outcomes[0].unwrap())
    _assert_profile_equal(stomp(ecg, 50), outcomes[1].unwrap())
    _assert_profile_equal(stomp(walk, 24), outcomes[2].unwrap())
    _assert_profile_equal(stomp(walk, 8), outcomes[3].unwrap())


def test_batch_parallel_matches_serial(walk):
    jobs = [ProfileJob(walk, window=window) for window in (12, 20, 28, 36)]
    serial = compute_profiles(jobs, executor="serial")
    with ParallelExecutor(n_jobs=2) as executor:
        parallel = compute_profiles(jobs, executor=executor)
    for left, right in zip(serial, parallel):
        _assert_profile_equal(left.unwrap(), right.unwrap())


@pytest.mark.parametrize("executor", ["serial", "parallel"])
def test_per_job_exceptions_do_not_kill_the_batch(walk, executor):
    kwargs = {"n_jobs": 2} if executor == "parallel" else {}
    jobs = [
        ProfileJob(walk, window=16),
        ProfileJob(walk, window=10**6),  # window longer than the series
        ProfileJob(walk, window=24),
    ]
    outcomes = compute_profiles(jobs, executor=executor, **kwargs)
    assert [outcome.ok for outcome in outcomes] == [True, False, True]
    assert isinstance(outcomes[1].error, SubsequenceLengthError)
    with pytest.raises(SubsequenceLengthError):
        outcomes[1].unwrap()
    _assert_profile_equal(stomp(walk, 16), outcomes[0].unwrap())
    _assert_profile_equal(stomp(walk, 24), outcomes[2].unwrap())


def test_job_validation():
    series = np.arange(50, dtype=float)
    with pytest.raises(InvalidParameterError):
        ProfileJob(series)  # no window
    with pytest.raises(InvalidParameterError):
        ProfileJob(series, window=8, series_b=series, query_offset=3)  # join + offset
    with pytest.raises(InvalidParameterError):
        ProfileJob(series, window=8, row_range=(0, 4))  # row block without a join
    with pytest.raises(InvalidParameterError):
        compute_profiles([object()])  # not a ProfileJob


def test_empty_batch_returns_empty_list():
    assert compute_profiles([]) == []


def test_job_name_defaults_to_dataseries_name(ecg):
    job = ProfileJob(ecg, window=40)
    assert job.name == ecg.name
    named = ProfileJob(ecg, window=40, name="override")
    assert named.name == "override"


def test_serial_batch_shares_sliding_stats(walk, monkeypatch):
    """Jobs over the same series build the prefix sums exactly once."""
    from repro.engine import batch as batch_module
    from repro.stats.sliding import SlidingStats

    created = []
    real_init = SlidingStats.__init__

    def counting_init(self, series):
        created.append(1)
        real_init(self, series)

    monkeypatch.setattr(SlidingStats, "__init__", counting_init)
    jobs = [ProfileJob(walk, window=w) for w in (12, 18, 26)]
    outcomes = compute_profiles(jobs, executor=SerialExecutor())
    assert all(outcome.ok for outcome in outcomes)
    assert len(created) == 1


def test_outcome_is_frozen(walk):
    outcome = compute_profiles([ProfileJob(walk, window=16)], executor="serial")[0]
    assert isinstance(outcome, JobOutcome)
    with pytest.raises(AttributeError):
        outcome.result = None


def test_query_offset_jobs_match_distance_profile(walk):
    """Single-offset jobs are MASS calls, mixable with full-profile jobs."""
    from repro.matrix_profile.distance_profile import distance_profile

    jobs = [
        ProfileJob(walk, window=24, query_offset=10, exclusion_radius=6),
        ProfileJob(walk, window=32),
        ProfileJob(walk, window=24, query_offset=77, exclusion_radius=6),
    ]
    outcomes = compute_profiles(jobs, executor="serial")
    assert all(outcome.ok for outcome in outcomes)
    np.testing.assert_allclose(
        outcomes[0].unwrap(),
        distance_profile(walk, 10, 24, exclusion_radius=6),
        atol=1e-12,
    )
    _assert_profile_equal(stomp(walk, 32), outcomes[1].unwrap())
    np.testing.assert_allclose(
        outcomes[2].unwrap(),
        distance_profile(walk, 77, 24, exclusion_radius=6),
        atol=1e-12,
    )


def test_query_offset_jobs_parallel_match_serial(walk):
    jobs = [
        ProfileJob(walk, window=20, query_offset=offset, exclusion_radius=5)
        for offset in (0, 13, 200, 350)
    ]
    serial = compute_profiles(jobs, executor="serial")
    with ParallelExecutor(n_jobs=2) as executor:
        parallel = compute_profiles(jobs, executor=executor)
    for left, right in zip(serial, parallel):
        np.testing.assert_allclose(left.unwrap(), right.unwrap(), atol=1e-12)


def test_query_offset_requires_window(walk):
    with pytest.raises(InvalidParameterError):
        ProfileJob(walk, query_offset=3)


def test_query_offset_without_exclusion_returns_raw_profile(walk):
    outcome = compute_profiles(
        [ProfileJob(walk, window=24, query_offset=40)], executor="serial"
    )[0]
    profile = outcome.unwrap()
    # No exclusion: the self-match is present (and ~0; sqrt() amplifies
    # eps-level correlation noise, hence the loose absolute tolerance).
    assert profile[40] == pytest.approx(0.0, abs=1e-4)
