"""Integration and exactness tests for the VALMOD algorithm itself."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.baselines.brute_force_range import brute_force_range
from repro.baselines.stomp_range import stomp_range
from repro.core.valmod import valmod, valmod_with_config
from repro.core.config import ValmodConfig
from repro.core.partial_profile import PartialProfileStore
from repro.core.results import PruningStats
from repro.engine import ParallelExecutor
from repro.exceptions import InvalidParameterError, LengthRangeError
from repro.generators import generate_planted_motifs
from repro.harness.workloads import build_workload
from repro.matrix_profile.distance_profile import distance_profile
from repro.matrix_profile.exclusion import apply_exclusion_zone, default_exclusion_radius
from repro.matrix_profile.kernels import available_kernels
from repro.matrix_profile.profile import MotifPair
from repro.matrix_profile.stomp import stomp
from repro.stats.sliding import SlidingStats


class TestExactness:
    """VALMOD must return exactly the same motif distances as the oracles."""

    def test_matches_stomp_range_on_random_walk(self, small_random_series):
        result = valmod(small_random_series, 16, 40, top_k=2)
        oracle = stomp_range(small_random_series, 16, 40, top_k=2)
        for length in oracle.lengths:
            expected = [pair.distance for pair in oracle.motifs_at(length)]
            observed = [pair.distance for pair in result.motifs_at(length)]
            np.testing.assert_allclose(observed, expected, atol=1e-6)

    def test_matches_stomp_range_on_ecg(self, small_ecg_series):
        result = valmod(small_ecg_series, 24, 48, top_k=3)
        oracle = stomp_range(small_ecg_series, 24, 48, top_k=3)
        for length in oracle.lengths:
            expected = [pair.distance for pair in oracle.motifs_at(length)]
            observed = [pair.distance for pair in result.motifs_at(length)]
            np.testing.assert_allclose(observed, expected, atol=1e-6)

    def test_matches_brute_force_on_planted(self, planted_series):
        series, _ = planted_series
        result = valmod(series, 32, 56, top_k=1)
        oracle = brute_force_range(series, 32, 56, top_k=1)
        for length in oracle.lengths:
            assert result.motifs_at(length)[0].distance == pytest.approx(
                oracle.motifs_at(length)[0].distance, abs=1e-6
            )

    @pytest.mark.parametrize("capacity", [1, 4, 64])
    def test_exact_for_any_profile_capacity(self, small_random_series, capacity):
        result = valmod(small_random_series, 16, 28, top_k=1, profile_capacity=capacity)
        oracle = stomp_range(small_random_series, 16, 28, top_k=1)
        for length in oracle.lengths:
            assert result.motifs_at(length)[0].distance == pytest.approx(
                oracle.best_at(length).distance, abs=1e-6
            )

    @pytest.mark.parametrize("kind", ["tight", "paper"])
    def test_exact_for_both_lower_bounds(self, small_random_series, kind):
        result = valmod(small_random_series, 16, 28, top_k=1, lower_bound_kind=kind)
        oracle = stomp_range(small_random_series, 16, 28, top_k=1)
        for length in oracle.lengths:
            assert result.motifs_at(length)[0].distance == pytest.approx(
                oracle.best_at(length).distance, abs=1e-6
            )

    def test_exact_on_series_with_flat_regions(self):
        values = np.concatenate(
            [np.zeros(60), np.sin(np.linspace(0, 25, 200)), np.full(50, 2.0)]
        )
        result = valmod(values, 12, 24, top_k=1)
        oracle = stomp_range(values, 12, 24, top_k=1)
        for length in oracle.lengths:
            assert result.motifs_at(length)[0].distance == pytest.approx(
                oracle.best_at(length).distance, abs=1e-6
            )


class TestResultStructure:
    def test_lengths_and_motif_counts(self, small_random_series):
        result = valmod(small_random_series, 16, 24, top_k=2)
        assert result.lengths == list(range(16, 25))
        for length in result.lengths:
            motifs = result.motifs_at(length)
            assert 1 <= len(motifs) <= 2
            assert all(pair.window == length for pair in motifs)

    def test_unknown_length_raises(self, small_random_series):
        result = valmod(small_random_series, 16, 20, top_k=1)
        with pytest.raises(InvalidParameterError):
            result.motifs_at(99)

    def test_top_motifs_sorted_by_normalized_distance(self, small_ecg_series):
        result = valmod(small_ecg_series, 24, 40, top_k=2)
        ranked = result.top_motifs(5, distinct_events=False)
        normalized = [pair.normalized_distance for pair in ranked]
        assert normalized == sorted(normalized)

    def test_best_motif_is_global_minimum(self, small_ecg_series):
        result = valmod(small_ecg_series, 24, 40, top_k=2)
        best = result.best_motif()
        assert best.normalized_distance <= min(
            pair.normalized_distance for pair in result.all_motifs()
        ) + 1e-12

    def test_valmap_consistency_with_base_profile(self, small_random_series):
        result = valmod(small_random_series, 16, 24, top_k=1)
        valmap = result.valmap
        base = result.base_profile
        assert len(valmap) == len(base)
        # every VALMAP entry is at least as good as the base profile entry
        assert np.all(
            valmap.normalized_profile <= base.normalized_distances + 1e-9
        )
        # entries never updated still carry the base length
        never_updated = valmap.length_profile == 16
        np.testing.assert_allclose(
            valmap.normalized_profile[never_updated],
            base.normalized_distances[never_updated],
            atol=1e-9,
        )

    def test_valmap_entries_match_reported_pairs(self, small_random_series):
        result = valmod(small_random_series, 16, 30, top_k=2)
        valmap = result.valmap
        for checkpoint in valmap.checkpoints:
            pairs = result.motifs_at(checkpoint.length)
            assert any(
                checkpoint.offset in pair.offsets
                and checkpoint.normalized_distance == pytest.approx(
                    pair.normalized_distance, abs=1e-9
                )
                for pair in pairs
            )

    def test_pruning_statistics_accounting(self, small_random_series):
        result = valmod(small_random_series, 16, 32, top_k=1)
        for length in result.lengths:
            stats = result.length_results[length].pruning
            assert stats.num_valid + stats.num_non_valid == stats.num_profiles
            assert 0 <= stats.num_recomputed <= stats.num_non_valid + 1
            assert 0.0 <= stats.valid_fraction <= 1.0
        summary = result.pruning_summary()
        assert summary["lengths_evaluated"] == len(result.lengths) - 1
        assert 0.0 <= summary["recomputed_fraction"] <= 1.0

    def test_elapsed_time_recorded(self, small_random_series):
        result = valmod(small_random_series, 16, 20, top_k=1)
        assert result.elapsed_seconds > 0.0

    def test_length_step(self, small_random_series):
        result = valmod(small_random_series, 16, 30, top_k=1, length_step=5)
        assert result.lengths == [16, 21, 26, 30]

    def test_with_config_object(self, small_random_series):
        config = ValmodConfig(min_length=16, max_length=20, top_k=1)
        result = valmod_with_config(small_random_series, config)
        assert result.config == config

    def test_as_dict_is_json_friendly(self, small_random_series):
        import json

        result = valmod(small_random_series, 16, 20, top_k=1)
        payload = result.as_dict()
        text = json.dumps(payload)
        assert "valmap" in text


class TestParameterValidation:
    def test_range_exceeding_series_raises(self, small_random_series):
        with pytest.raises(LengthRangeError):
            valmod(small_random_series, 16, small_random_series.size)

    def test_min_length_too_small_raises(self, small_random_series):
        with pytest.raises(LengthRangeError):
            valmod(small_random_series, 2, 20)

    def test_nan_series_raises(self):
        from repro.exceptions import InvalidSeriesError

        values = np.ones(100)
        values[10] = np.nan
        with pytest.raises(InvalidSeriesError):
            valmod(values, 8, 16)


class TestGroundTruthRecovery:
    def test_planted_motif_recovered(self, planted_series):
        series, truth = planted_series
        planted = truth[0]
        result = valmod(series, 32, 64, top_k=2)
        best = result.best_motif()
        tolerance = planted.length
        assert min(abs(best.offset_a - offset) for offset in planted.offsets) <= tolerance
        assert min(abs(best.offset_b - offset) for offset in planted.offsets) <= tolerance

    def test_two_planted_lengths_both_found(self, two_length_planted_series):
        series, truth = two_length_planted_series
        result = valmod(series, 28, 88, top_k=2, length_step=4)
        ranked = result.top_motifs(6)
        from repro.analysis.evaluation import recall_of_planted_motifs

        assert recall_of_planted_motifs(ranked, truth, coverage=0.4) == 1.0


class TestEngineBatchedRecomputations:
    """engine= runs the base pass on the engine; the exact recomputations
    run in-process on one rule, so results and Figure 2 counts match the
    engine-free run."""

    @pytest.mark.parametrize("engine", ["serial", "parallel"])
    def test_engine_routed_valmod_matches_serial_oracle(
        self, small_random_series, engine
    ):
        kwargs = {"n_jobs": 2} if engine == "parallel" else {}
        oracle = valmod(small_random_series, 16, 40, top_k=2)
        routed = valmod(small_random_series, 16, 40, top_k=2, engine=engine, **kwargs)
        for length in oracle.lengths:
            expected = [(p.offsets, p.distance) for p in oracle.motifs_at(length)]
            observed = [(p.offsets, p.distance) for p in routed.motifs_at(length)]
            assert [o for o, _ in observed] == [o for o, _ in expected]
            np.testing.assert_allclose(
                [d for _, d in observed], [d for _, d in expected], atol=1e-8
            )

    def test_figure2_counts_match_on_every_executor(self):
        values = np.cumsum(np.random.default_rng(0).normal(size=400))
        kwargs = {"top_k": 3, "profile_capacity": 2}
        oracle = valmod(values, 16, 32, **kwargs)
        with ParallelExecutor(n_jobs=2) as pool:
            routed = [
                valmod(values, 16, 32, engine=engine, **kwargs)
                for engine in ("serial", pool)
            ]
        counts = ("num_profiles", "num_valid", "num_non_valid", "num_recomputed")
        for result in routed:
            for length in oracle.lengths:
                expected = oracle.length_results[length]
                observed = result.length_results[length]
                assert [p.offsets for p in observed.motifs] == [
                    p.offsets for p in expected.motifs
                ]
                np.testing.assert_allclose(
                    [p.distance for p in observed.motifs],
                    [p.distance for p in expected.motifs],
                    atol=1e-8,
                )
                for name in counts:
                    assert getattr(observed.pruning, name) == getattr(
                        expected.pruning, name
                    ), (length, name)
                # Engine blocks seed their rows differently, which moves the
                # bound by ~1e-13.
                assert observed.pruning.min_lb_abs == pytest.approx(
                    expected.pruning.min_lb_abs, abs=1e-8
                )
            assert result.pruning_summary() == oracle.pruning_summary()


class TestPruningTelemetry:
    """Pruning power reaches the registry as one gauge, however many
    distinct lengths the process has run; per-length figures stay on the
    result."""

    def test_no_metric_name_per_length(self, small_random_series):
        was_enabled = obs.metrics_enabled()
        obs.set_metrics_enabled(True)
        try:
            valmod(small_random_series, 16, 20)
            result = valmod(small_random_series, 30, 34)
        finally:
            obs.set_metrics_enabled(was_enabled)
        snapshot = obs.snapshot()
        names = [
            name
            for section in ("counters", "gauges", "histograms")
            for name in snapshot[section]
        ]
        assert not [name for name in names if "pruning_power.len" in name]
        stats = [entry.pruning for entry in result.length_results.values()]
        overall = sum(s.num_valid for s in stats) / sum(s.num_profiles for s in stats)
        assert snapshot["gauges"]["valmod.pruning_power.overall"] == pytest.approx(overall)


class TestPhaseSpans:
    """The paper's cost split, visible in a trace: one base-pass span, one
    evaluate span per length and at most one recompute span per length,
    each tagged with the kernel that ran."""

    @pytest.mark.parametrize("kernel", available_kernels())
    def test_spans_name_each_phase_and_the_kernel_that_ran(
        self, small_random_series, kernel
    ):
        with obs.trace() as collector:
            result = valmod(small_random_series, 16, 22, profile_capacity=2, kernel=kernel)
        spans = {}
        for event in collector.spans():
            spans.setdefault(event["name"], []).append(event)

        (base,) = spans["valmod.base_pass"]
        assert base["args"]["kernel"] == kernel
        (sweep,) = spans["kernel.sweep"]
        assert sweep["parent_id"] == base["span_id"]

        evaluations = spans["valmod.evaluate"]
        assert [event["args"]["length"] for event in evaluations] == list(range(17, 23))
        store_kernel = "native" if kernel == "native" else "numpy"
        assert {event["args"]["kernel"] for event in evaluations} == {store_kernel}

        recomputes = spans["valmod.recompute"]
        assert len({event["args"]["length"] for event in recomputes}) == len(recomputes)
        assert {event["args"]["kernel"] for event in recomputes} == {kernel}
        assert all(event["args"]["rows"] >= event["args"]["profiles"] for event in recomputes)
        assert sum(event["args"]["profiles"] for event in recomputes) == int(
            result.extra["total_recomputed_profiles"]
        )


def _mass_reference(values, config):
    """VALMOD's selection loop with one MASS distance profile per needed
    profile, the recompute the row-run sweeps replaced.  It re-bases by the
    run's rule, on the rows a row run would cover, counted here from the
    loop's own ``exact`` and ``working`` arrays.  Returns, per length above
    the base, ``(pairs, pruning)``, and the rows swept in all (runs and
    re-base passes)."""
    stats = SlidingStats(values)

    def base_pass(length):
        store = PartialProfileStore(
            values,
            stats,
            length,
            config.profile_capacity,
            exclusion_factor=config.exclusion_factor,
            lower_bound_kind=config.lower_bound_kind,
        )
        profile = stomp(
            values,
            length,
            exclusion_radius=default_exclusion_radius(length, config.exclusion_factor),
            stats=stats,
            ingest_store=store,
        )
        return store, profile

    store, _ = base_pass(config.min_length)
    results = {}
    total_rows = 0
    rows_before = 0
    lengths = config.lengths
    for length in lengths[1:]:
        count = values.size - length + 1
        if rows_before * len(lengths[lengths.index(length) :]) >= count:
            store, profile = base_pass(length)
            pruning = PruningStats(length, count, 0, count, count, float("inf"))
            results[length] = (profile.motifs(config.top_k), pruning)
            total_rows += count
            rows_before = 0
            continue
        evaluation = store.evaluate(length)
        radius = default_exclusion_radius(length, config.exclusion_factor)
        exact = np.array(evaluation.valid, dtype=bool)
        min_distances = np.array(evaluation.min_distances, dtype=np.float64)
        nearest = np.array(evaluation.min_indices, dtype=np.int64)
        working = np.where(exact, min_distances, evaluation.max_lower_bounds)
        swept = np.zeros(count, dtype=bool)
        pairs = []
        recomputed = 0
        while len(pairs) < config.top_k:
            candidate = int(np.argmin(working))
            if not np.isfinite(working[candidate]):
                break
            if not exact[candidate]:
                if not swept[candidate]:
                    # The run of open rows (neither exact nor swept, not
                    # closed by a zone) around the candidate.
                    open_rows = ~(exact | swept) & np.isfinite(working)
                    lo, hi = candidate, candidate + 1
                    while lo > 0 and open_rows[lo - 1]:
                        lo -= 1
                    while hi < count and open_rows[hi]:
                        hi += 1
                    swept[lo:hi] = True
                profile = distance_profile(
                    values, candidate, length, stats=stats, exclusion_radius=radius
                )
                best = int(np.argmin(profile))
                finite = np.isfinite(profile[best])
                min_distances[candidate] = profile[best] if finite else np.inf
                nearest[candidate] = best if finite else -1
                exact[candidate] = True
                working[candidate] = min_distances[candidate]
                recomputed += 1
                continue
            if nearest[candidate] < 0:
                apply_exclusion_zone(working, candidate, radius)
                continue
            pairs.append(
                MotifPair(
                    distance=float(min_distances[candidate]),
                    offset_a=candidate,
                    offset_b=int(nearest[candidate]),
                    window=length,
                )
            )
            apply_exclusion_zone(working, candidate, radius)
            apply_exclusion_zone(working, int(nearest[candidate]), radius)
        results[length] = (
            pairs,
            PruningStats(
                length=length,
                num_profiles=int(evaluation.valid.size),
                num_valid=evaluation.num_valid,
                num_non_valid=evaluation.num_non_valid,
                num_recomputed=recomputed,
                min_lb_abs=evaluation.min_lb_abs,
            ),
        )
        rows_before = int(swept.sum())
        total_rows += rows_before
    return results, total_rows


# (series, l_min, l_max, profile capacity, the lengths the run re-bases at)
_REFERENCE_CASES = {
    "ecg": (lambda: build_workload("ecg", 1024, random_state=0).values, 48, 64, 16, []),
    "walk_a": (
        lambda: np.cumsum(np.random.default_rng(0).normal(size=400)), 16, 32, 2, [20, 25]
    ),
    "walk_b": (lambda: np.cumsum(np.random.default_rng(21).normal(size=600)), 24, 36, 2, [29]),
}


def _rebased_lengths(pruning_by_length):
    return [
        length
        for length, pruning in pruning_by_length.items()
        if pruning.num_valid == 0 and pruning.num_recomputed == pruning.num_profiles
    ]


@pytest.fixture(scope="module")
def reference_runs():
    runs = {}
    for name, (make, low, high, capacity, _) in _REFERENCE_CASES.items():
        values = make()
        config = ValmodConfig(low, high, top_k=3, profile_capacity=capacity)
        runs[name] = (values, config, *_mass_reference(values, config))
    return runs


@pytest.fixture(scope="module")
def pool():
    with ParallelExecutor(n_jobs=2) as executor:
        yield executor


class TestRowRunRecompute:
    """The row-run recompute against the MASS loop it replaced: the same
    pairs, the same re-base schedule and Figure 2 counts, the same rows
    swept, distances within 1e-8, on every kernel and executor."""

    @pytest.mark.parametrize("engine", [None, "serial", "pool"])
    @pytest.mark.parametrize("kernel", available_kernels())
    @pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
    def test_matches_the_mass_loop(self, reference_runs, pool, case, kernel, engine):
        values, config, reference, reference_rows = reference_runs[case]
        result = valmod_with_config(
            values, config, kernel=kernel, engine=pool if engine == "pool" else engine
        )
        schedule = _REFERENCE_CASES[case][-1]
        assert _rebased_lengths({n: p for n, (_, p) in reference.items()}) == schedule
        assert (
            _rebased_lengths({n: result.length_results[n].pruning for n in reference})
            == schedule
        )
        for length, (pairs, pruning) in reference.items():
            observed = result.length_results[length]
            assert [p.offsets for p in observed.motifs] == [p.offsets for p in pairs], length
            np.testing.assert_allclose(
                [p.distance for p in observed.motifs],
                [p.distance for p in pairs],
                rtol=0,
                atol=1e-8,
            )
            for name in ("num_profiles", "num_valid", "num_non_valid", "num_recomputed"):
                assert getattr(observed.pruning, name) == getattr(pruning, name), (length, name)
            if engine is None:
                assert observed.pruning.min_lb_abs == pruning.min_lb_abs, length
            else:
                # Engine blocks seed their rows differently, which moves the
                # bound by ~1e-13.
                assert observed.pruning.min_lb_abs == pytest.approx(
                    pruning.min_lb_abs, abs=1e-8
                ), length
        recomputed = sum(p.num_recomputed for _, p in reference.values())
        assert result.extra["total_recomputed_profiles"] == recomputed
        assert result.extra["total_rows_swept"] == reference_rows
        if case == "ecg":
            assert recomputed == 174

    def test_bit_identical_pairs_on_every_kernel(self, reference_runs, pool):
        """On each executor the kernels agree bit for bit, with no re-base
        (ecg) and with two (walk_a)."""
        for case in ("ecg", "walk_a"):
            values, config, _, _ = reference_runs[case]
            for engine in (None, "serial", pool):
                runs = [
                    valmod_with_config(values, config, kernel=k, engine=engine)
                    for k in available_kernels()
                ]
                bits = [
                    [
                        (length, p.offset_a, p.offset_b, p.distance.hex())
                        for length in run.lengths
                        for p in run.length_results[length].motifs
                    ]
                    for run in runs
                ]
                assert all(b == bits[0] for b in bits[1:]), (case, engine)
                assert len({run.extra["total_rows_swept"] for run in runs}) == 1


class TestRebase:
    """Once the recompute runs would sweep more rows than one full pass, the
    run re-bases: a base pass at that length builds a new store.  On this
    ECG, lengths 48-80 re-base once, at 60."""

    @pytest.fixture(scope="class")
    def ecg(self):
        return build_workload("ecg", 1024, random_state=0).values

    def test_rebased_length_reports_every_profile_computed(self, ecg):
        with obs.trace() as collector:
            result = valmod(ecg, 48, 80)
        spans = {}
        for event in collector.spans():
            spans.setdefault(event["name"], []).append(event["args"])

        count = ecg.size - 60 + 1
        assert result.length_results[60].pruning == PruningStats(
            60, count, 0, count, count, float("inf")
        )
        assert _rebased_lengths(
            {n: result.length_results[n].pruning for n in result.lengths[1:]}
        ) == [60]
        assert [args["length"] for args in spans["valmod.base_pass"]] == [48, 60]
        assert [args["length"] for args in spans["valmod.evaluate"]] == [
            n for n in range(49, 81) if n != 60
        ]
        run_rows = sum(args["rows"] for args in spans["valmod.recompute"])
        assert result.extra["total_rows_swept"] == run_rows + count
        assert result.extra["total_recomputed_profiles"] == sum(
            result.length_results[n].pruning.num_recomputed for n in result.lengths
        )
        radius = default_exclusion_radius(60, 4)
        assert result.motifs_at(60) == stomp(ecg, 60, exclusion_radius=radius).motifs(3)

    def test_rebase_reuses_the_runs_pool(self, ecg):
        was_enabled = obs.metrics_enabled()
        obs.set_metrics_enabled(True)
        try:
            before = obs.snapshot()["counters"].get("engine.executor.pool_spawns", 0)
            result = valmod(ecg, 48, 80, engine="parallel", n_jobs=2)
            spawned = obs.snapshot()["counters"]["engine.executor.pool_spawns"] - before
        finally:
            obs.set_metrics_enabled(was_enabled)
        assert _rebased_lengths(
            {n: result.length_results[n].pruning for n in result.lengths[1:]}
        ) == [60]
        assert spawned == 1
