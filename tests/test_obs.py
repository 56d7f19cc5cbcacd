"""The cross-layer observability subsystem (:mod:`repro.obs`).

Covers the metrics registry (snapshot / delta / associative merge, the
cheap-when-disabled fast path), the freezable clock, hierarchical trace
propagation through the service for **both** worker kinds, the windowed
``GET /metrics`` document, pool prewarming, the catalog's v1→v2
``ingested_at`` migration with ``since=`` / ``until=`` time windows, and
the harness table flattener's two document generations.
"""

from __future__ import annotations

import gc
import sqlite3
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import obs
from repro.api.requests import AnalysisRequest
from repro.engine.executor import ParallelExecutor
from repro.harness.tables import metrics_rows
from repro.index import IndexRecord, MotifIndex, QuerySpec
from repro.service import BackgroundService, ServiceClient, ServiceConfig


def _process_pools_work() -> bool:
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(int, 1).result(timeout=60) == 1
    except Exception:
        return False


@pytest.fixture(scope="module")
def values() -> np.ndarray:
    return np.cumsum(np.random.default_rng(7).standard_normal(512))


# --------------------------------------------------------------------- #
# the metrics registry
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_metrics_are_idempotent_by_name(self):
        registry = obs.MetricsRegistry(enabled=True)
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.gauge("a.g") is registry.gauge("a.g")
        assert registry.histogram("a.h") is registry.histogram("a.h")
        scope = registry.scope("a")
        assert scope.counter("b") is registry.counter("a.b")

    def test_snapshot_and_delta(self):
        registry = obs.MetricsRegistry(enabled=True)
        counter = registry.counter("layer.events")
        gauge = registry.gauge("layer.level")
        hist = registry.histogram("layer.seconds")
        counter.inc(3)
        gauge.set(1.5)
        hist.observe(0.01)
        first = registry.snapshot()
        counter.inc(2)
        gauge.set(9.0)
        hist.observe(0.02)
        hist.observe(0.03)
        second = registry.snapshot()
        delta = obs.snapshot_delta(second, first)
        # Counters and histograms subtract; gauges stay current-value.
        assert delta["counters"]["layer.events"] == 2
        assert delta["gauges"]["layer.level"] == 9.0
        assert delta["histograms"]["layer.seconds"]["count"] == 2
        assert delta["since"] == first["at"]
        # A gauge untouched inside the window stays out of the delta, so
        # merging a worker's delta can never clobber a parent-set gauge
        # with the worker's import-time 0.0.
        registry.gauge("layer.idle").set(0.0)  # declared, never re-set
        third = registry.snapshot()
        quiet = obs.snapshot_delta(registry.snapshot(), third)
        assert "layer.idle" not in quiet["gauges"]
        parent = obs.MetricsRegistry(enabled=True)
        parent.gauge("layer.idle").set(42.0)
        parent.merge_snapshot(quiet)
        assert parent.snapshot()["gauges"]["layer.idle"] == 42.0
        # A delta against nothing is the full snapshot.
        full = obs.snapshot_delta(second, None)
        assert full["counters"]["layer.events"] == 5

    def test_merge_is_associative(self):
        def snap(events, level, observations):
            registry = obs.MetricsRegistry(enabled=True)
            registry.counter("c.events").inc(events)
            registry.gauge("g.level").set(level)
            hist = registry.histogram("h.seconds")
            for value in observations:
                hist.observe(value)
            return registry.snapshot()

        a = snap(1, 0.5, [0.001])
        b = snap(10, 1.5, [0.01, 0.1])
        c = snap(100, 2.5, [1.0])
        left = obs.merge_snapshots(obs.merge_snapshots(a, b), c)
        right = obs.merge_snapshots(a, obs.merge_snapshots(b, c))
        assert left == right
        assert left["counters"]["c.events"] == 111
        assert left["gauges"]["g.level"] == 2.5
        assert left["histograms"]["h.seconds"]["count"] == 4

    def test_merge_snapshot_folds_a_worker_delta_into_the_live_registry(self):
        parent = obs.MetricsRegistry(enabled=True)
        parent.counter("w.done").inc(1)
        worker = obs.MetricsRegistry(enabled=True)
        worker.counter("w.done").inc(4)
        worker.gauge("w.rate").set(7.5)
        worker.histogram("w.seconds").observe(0.2)
        parent.merge_snapshot(worker.snapshot())
        merged = parent.snapshot()
        assert merged["counters"]["w.done"] == 5
        assert merged["gauges"]["w.rate"] == 7.5
        assert merged["histograms"]["w.seconds"]["count"] == 1

    def test_group_families_splits_on_the_first_dot(self):
        registry = obs.MetricsRegistry(enabled=True)
        registry.counter("engine.executor.pool_spawns").inc()
        registry.gauge("valmod.pruning_power.overall").set(0.9)
        families = obs.group_families(registry.snapshot())
        assert families["engine"]["counters"]["executor.pool_spawns"] == 1
        assert families["valmod"]["gauges"]["pruning_power.overall"] == 0.9

    def test_disabled_recording_allocates_nothing(self):
        registry = obs.MetricsRegistry(enabled=False)
        counter = registry.counter("quiet.count")
        gauge = registry.gauge("quiet.level")
        hist = registry.histogram("quiet.seconds")
        level = 1.25
        # Warm every code path once, then measure.
        counter.inc()
        gauge.set(level)
        hist.observe(level)
        gc.collect()
        before = sys.getallocatedblocks()
        counter.inc()
        counter.inc(2)
        gauge.set(level)
        hist.observe(level)
        counter.inc()
        after = sys.getallocatedblocks()
        # The ``before`` int is itself one live heap block at measurement
        # time; the recording calls must add nothing on top of it.
        assert after - before <= 1
        # And nothing was recorded.
        assert counter.value == 0
        assert gauge.value == 0.0
        assert hist.count == 0

    def test_reenabling_records_again(self):
        registry = obs.MetricsRegistry(enabled=False)
        counter = registry.counter("toggled")
        counter.inc()
        assert counter.value == 0
        registry.set_enabled(True)
        counter.inc()
        assert counter.value == 1


# --------------------------------------------------------------------- #
# the freezable clock
# --------------------------------------------------------------------- #
class TestClock:
    def test_freeze_and_unfreeze(self):
        obs.freeze(1234.5)
        try:
            assert obs.now() == 1234.5
        finally:
            obs.unfreeze()
        assert abs(obs.now() - time.time()) < 5.0

    def test_frozen_context_manager(self):
        with obs.frozen(99.0):
            assert obs.now() == 99.0
        assert obs.now() != 99.0


# --------------------------------------------------------------------- #
# trace plumbing
# --------------------------------------------------------------------- #
class TestTraceHeader:
    def test_round_trip(self):
        with obs.trace() as collector:
            with obs.span("root"):
                header = obs.format_trace_header(obs.current_payload())
                assert header is not None
                payload = obs.parse_trace_header(header)
        assert payload is not None
        want_trace, trace_id, parent, _, pid = payload
        assert want_trace is True
        assert pid is None  # the far side of HTTP is never "same process"
        (event,) = collector.spans()
        assert event["trace_id"] == trace_id
        assert event["span_id"] == parent

    def test_absent_and_malformed_headers_parse_to_none(self):
        assert obs.parse_trace_header(None) is None
        assert obs.parse_trace_header("") is None
        assert obs.parse_trace_header("no-slash") is None


def _ancestor_names(events, leaf):
    """Span names from ``leaf`` up to its root, leaf first."""
    by_id = {event["span_id"]: event for event in events}
    names = []
    current = leaf
    seen = set()
    while current is not None and current["span_id"] not in seen:
        seen.add(current["span_id"])
        names.append(current["name"])
        parent = current.get("parent_id")
        current = by_id.get(parent) if parent is not None else None
    return names


class TestServiceTracePropagation:
    def _run_traced_request(self, config, values):
        with obs.trace() as collector:
            with BackgroundService(config) as background:
                client = ServiceClient(port=background.port, timeout=300)
                request = AnalysisRequest(
                    kind="matrix_profile", params={"window": 16}
                )
                client.analyze(values, request)
                worker_kind = client.stats()["worker_kind"]
        return collector.spans(), worker_kind

    def _assert_single_tree(self, events, *, expect_names):
        assert events, "tracing produced no spans"
        trace_ids = {event["trace_id"] for event in events}
        assert len(trace_ids) == 1, f"expected one trace tree, got {trace_ids}"
        names = {event["name"] for event in events}
        for expected in expect_names:
            assert expected in names, f"missing span {expected!r} in {sorted(names)}"
        # Every kernel sweep must chain up to the client's root span.
        sweeps = [event for event in events if event["name"] == "kernel.sweep"]
        assert sweeps
        for sweep in sweeps:
            chain = _ancestor_names(events, sweep)
            assert chain[-1] == "client.analyze", chain

    def test_thread_workers_join_the_client_trace(self, values):
        events, worker_kind = self._run_traced_request(
            ServiceConfig(port=0, workers=1), values
        )
        assert worker_kind == "thread"
        self._assert_single_tree(
            events,
            expect_names=(
                "client.analyze",
                "service.request",
                "service.queue",
                "service.encode",
                "session.run",
                "kernel.sweep",
            ),
        )

    @pytest.mark.skipif(
        not _process_pools_work(), reason="process pools unavailable here"
    )
    def test_process_workers_join_the_client_trace(self, values):
        events, worker_kind = self._run_traced_request(
            ServiceConfig(port=0, workers=1, worker_kind="process"), values
        )
        if worker_kind != "process":
            pytest.skip("the service degraded to thread workers")
        self._assert_single_tree(
            events,
            expect_names=(
                "client.analyze",
                "service.request",
                "service.worker",
                "service.encode",
                "session.run",
                "kernel.sweep",
            ),
        )
        # The whole point of propagation: spans from more than one process
        # in one tree.
        assert len({event["pid"] for event in events}) >= 2

    def test_chrome_document_shape(self, values):
        with obs.trace() as collector:
            with obs.span("outer"):
                with obs.span("inner", detail=1):
                    pass
        document = collector.chrome_document()
        assert {event["ph"] for event in document["traceEvents"]} == {"X"}
        names = {event["name"] for event in document["traceEvents"]}
        assert names == {"outer", "inner"}


# --------------------------------------------------------------------- #
# the windowed /metrics document
# --------------------------------------------------------------------- #
class TestMetricsWindowing:
    def test_since_token_yields_a_delta(self, values):
        with BackgroundService(ServiceConfig(port=0, workers=1)) as background:
            client = ServiceClient(port=background.port, timeout=300)
            first = client.metrics()
            assert first["window"] == "full"
            assert first["token"]
            # The PR 8 shape is intact alongside the registry view.
            assert len(first["bounds"]) == 25
            assert "families" in first
            client.analyze(
                values, AnalysisRequest(kind="matrix_profile", params={"window": 16})
            )
            second = client.metrics(since=first["token"])
            assert second["window"] == "delta"
            service = second["families"]["service"]
            # Exactly one job completed inside the window.
            assert service["counters"]["requests_completed"] == 1
            # An unknown/expired token degrades to the full view.
            third = client.metrics(since="not-a-token")
            assert third["window"] == "full"
            assert (
                third["families"]["service"]["counters"]["requests_completed"]
                >= 1
            )

    def test_latency_histograms_are_per_service_instance(self, values):
        request = AnalysisRequest(kind="matrix_profile", params={"window": 16})
        with BackgroundService(ServiceConfig(port=0, workers=1)) as background:
            ServiceClient(port=background.port, timeout=300).analyze(
                values, request
            )
        # A second, fresh service must not see the first one's counts.
        with BackgroundService(ServiceConfig(port=0, workers=1)) as background:
            client = ServiceClient(port=background.port, timeout=300)
            client.analyze(values, request)
            document = client.metrics()
            assert document["kinds"]["matrix_profile"]["total"]["count"] == 1


# --------------------------------------------------------------------- #
# pool prewarming
# --------------------------------------------------------------------- #
class TestPrewarm:
    @pytest.mark.skipif(
        not _process_pools_work(), reason="process pools unavailable here"
    )
    def test_executor_prewarm_spawns_the_pool(self):
        executor = ParallelExecutor(2)
        try:
            if not executor.uses_processes:
                pytest.skip("no process pool on this platform")
            elapsed = executor.prewarm()
            assert elapsed > 0.0
            assert (
                obs.snapshot()["gauges"].get("engine.executor.prewarm_seconds", 0.0)
                > 0.0
            )
        finally:
            executor.close()

    @pytest.mark.skipif(
        not _process_pools_work(), reason="process pools unavailable here"
    )
    def test_service_prewarm_config(self, values):
        config = ServiceConfig(
            port=0, workers=1, worker_kind="process", prewarm=True
        )
        with BackgroundService(config) as background:
            client = ServiceClient(port=background.port, timeout=300)
            stats = client.stats()
            if stats["worker_kind"] != "process":
                pytest.skip("the service degraded to thread workers")
            # A job first: the worker's harvested metrics delta must not
            # clobber the parent-set gauge with its own untouched 0.0.
            client.analyze(
                values,
                AnalysisRequest(kind="matrix_profile", params={"window": 16}),
            )
            document = client.metrics()
            assert (
                document["families"]["service"]["gauges"]["prewarm_seconds"] > 0.0
            )

    def test_thread_services_ignore_prewarm(self):
        # prewarm with thread workers is a documented no-op, not an error.
        with BackgroundService(
            ServiceConfig(port=0, workers=1, prewarm=True)
        ) as background:
            client = ServiceClient(port=background.port, timeout=60)
            assert client.stats()["worker_kind"] == "thread"


# --------------------------------------------------------------------- #
# catalog time windows + v1 -> v2 migration
# --------------------------------------------------------------------- #
def _record(digest="a" * 40, kind="motif", length=32, score=1.0, start=0, **over):
    fields = {
        "series_digest": digest,
        "series_name": "series",
        "kind": kind,
        "length": length,
        "score": score,
        "start": start,
        "end": start + length,
        "partner": start + 100,
        "distance": score * np.sqrt(length),
        "algorithm": "stomp",
        "result_key": "key",
    }
    fields.update(over)
    return IndexRecord(**fields)


class TestCatalogTimeWindows:
    def test_rows_are_stamped_with_the_freezable_clock(self, tmp_path):
        with MotifIndex(tmp_path / "catalog.db") as index:
            with obs.frozen(1000.0):
                index.add([_record(start=0)])
            with obs.frozen(2000.0):
                index.add([_record(start=300)])
            rows = index.query(QuerySpec())
            assert {row["ingested_at"] for row in rows} == {1000.0, 2000.0}
            early = index.query(QuerySpec(since=500.0, until=1500.0))
            assert [row["start"] for row in early] == [0]
            late = index.query(QuerySpec(since=1500.0))
            assert [row["start"] for row in late] == [300]
            assert index.query(QuerySpec(until=500.0)) == []

    def test_reingesting_keeps_the_original_stamp(self, tmp_path):
        with MotifIndex(tmp_path / "catalog.db") as index:
            with obs.frozen(1000.0):
                assert index.add([_record()]) == 1
            with obs.frozen(2000.0):
                assert index.add([_record()]) == 0  # duplicate row identity
            (row,) = index.query(QuerySpec())
            assert row["ingested_at"] == 1000.0

    def test_since_until_parse_and_validate(self):
        spec = QuerySpec.from_params({"since": "1000", "until": "2000"})
        assert spec.since == 1000.0 and spec.until == 2000.0
        iso = QuerySpec.from_params({"since": "2026-08-07"})
        assert iso.since is not None and iso.since > 0
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            QuerySpec(since=2.0, until=1.0)
        with pytest.raises(InvalidParameterError):
            QuerySpec.from_params({"since": "not-a-time"})

    def test_v1_catalog_migrates_in_place(self, tmp_path):
        path = tmp_path / "catalog.db"
        with MotifIndex(path) as index:
            index.add([_record()])
        # Downgrade the file to the v1 shape: no ingested_at column.
        conn = sqlite3.connect(path)
        conn.execute("ALTER TABLE records DROP COLUMN ingested_at")
        conn.execute("UPDATE meta SET value='1' WHERE key='schema_version'")
        conn.commit()
        conn.close()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with MotifIndex(path) as index:
                # The corpus survives the migration...
                assert index.count() == 1
                (row,) = index.query(QuerySpec())
                # ...with an unknown (NULL) ingest time...
                assert row["ingested_at"] is None
                # ...which every time window excludes by SQL comparison
                # semantics.
                assert index.query(QuerySpec(since=0.0)) == []
                # New rows are stamped normally alongside migrated ones.
                with obs.frozen(5000.0):
                    index.add([_record(start=700)])
                stamped = index.query(QuerySpec(since=4000.0))
                assert [row["start"] for row in stamped] == [700]


# --------------------------------------------------------------------- #
# harness table flattening: both document generations
# --------------------------------------------------------------------- #
class TestMetricsRows:
    _OLD_DOCUMENT = {
        "bounds": [0.1, 1.0],
        "phases": ["total"],
        "kinds": {"matrix_profile": {"total": {"count": 2, "sum": 0.4, "counts": [2, 0, 0]}}},
    }

    def test_old_shape_still_flattens(self):
        rows = metrics_rows(self._OLD_DOCUMENT)
        assert [(row["kind"], row["phase"], row["count"]) for row in rows] == [
            ("matrix_profile", "total", 2)
        ]

    def test_extended_shape_is_backwards_compatible_by_default(self):
        document = {
            **self._OLD_DOCUMENT,
            "families": {
                "session": {
                    "counters": {},
                    "gauges": {},
                    "histograms": {
                        "compute_seconds": {
                            "bounds": [0.5],
                            "count": 1,
                            "sum": 0.2,
                            "counts": [1, 0],
                        }
                    },
                }
            },
        }
        default_rows = metrics_rows(document)
        assert {row["phase"] for row in default_rows} == {"total"}
        extended = metrics_rows(document, include_families=True)
        assert ("session", "compute_seconds") in {
            (row["kind"], row["phase"]) for row in extended
        }
        session_row = next(row for row in extended if row["kind"] == "session")
        # Quantiles come from the histogram's own bounds.
        assert session_row["p50"] == 0.5

    def test_service_family_is_not_duplicated(self):
        document = {
            **self._OLD_DOCUMENT,
            "families": {
                "service": {
                    "counters": {},
                    "gauges": {},
                    "histograms": {
                        "matrix_profile.total": {
                            "bounds": [0.1, 1.0],
                            "count": 2,
                            "sum": 0.4,
                            "counts": [2, 0, 0],
                        }
                    },
                }
            },
        }
        rows = metrics_rows(document, include_families=True)
        assert len(rows) == 1  # the kinds row only
