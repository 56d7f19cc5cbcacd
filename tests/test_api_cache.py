"""Cache-semantics substrate: LRU eviction, byte accounting, persistence.

Covers the replacement of PR 2's unbounded session dictionary:

* :class:`~repro.api.cache.LRUResultCache` — eviction order, promotion on
  access, byte-size accounting, oversized-entry rejection;
* the session integration — bounded entries/bytes observable through
  ``cache_info``, eviction forcing recomputation;
* :class:`~repro.api.cache.PersistentResultCache` — hits across two
  sessions *and* across two separate processes, corrupted/stale spill
  files degrading to misses (never to crashes or wrong results).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api.cache import (
    CacheConfig,
    LRUResultCache,
    PersistentResultCache,
    series_digest,
)
from repro.api.requests import AnalysisRequest
from repro.exceptions import InvalidParameterError

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def values() -> np.ndarray:
    return np.cumsum(np.random.default_rng(17).standard_normal(300))


def _request(window: int) -> AnalysisRequest:
    return AnalysisRequest(kind="matrix_profile", params={"window": window})


# --------------------------------------------------------------------- #
# LRUResultCache unit behaviour
# --------------------------------------------------------------------- #
class TestLRUResultCache:
    def test_evicts_least_recently_used_first(self):
        cache = LRUResultCache(max_entries=3, max_bytes=10_000)
        for key in ("a", "b", "c"):
            cache.put(key, f"result-{key}", 10)
        cache.put("d", "result-d", 10)
        assert cache.keys() == ["b", "c", "d"]
        assert cache.get("a") is None
        assert cache.evictions == 1

    def test_get_promotes_entry(self):
        cache = LRUResultCache(max_entries=3, max_bytes=10_000)
        for key in ("a", "b", "c"):
            cache.put(key, key, 10)
        assert cache.get("a") == "a"  # 'a' becomes most recent
        cache.put("d", "d", 10)
        assert cache.keys() == ["c", "a", "d"]
        assert cache.get("b") is None

    def test_contains_does_not_promote(self):
        cache = LRUResultCache(max_entries=2, max_bytes=10_000)
        cache.put("a", "a", 10)
        cache.put("b", "b", 10)
        assert "a" in cache  # membership probe must not reorder
        cache.put("c", "c", 10)
        assert cache.get("a") is None and cache.get("b") == "b"

    def test_byte_accounting_and_byte_bound_eviction(self):
        cache = LRUResultCache(max_entries=100, max_bytes=100)
        cache.put("a", "a", 40)
        cache.put("b", "b", 40)
        assert cache.total_bytes == 80
        cache.put("c", "c", 40)  # 120 > 100: 'a' must go
        assert cache.total_bytes == 80
        assert cache.keys() == ["b", "c"]

    def test_replacing_a_key_updates_the_byte_total(self):
        cache = LRUResultCache(max_entries=10, max_bytes=1_000)
        cache.put("a", "small", 10)
        cache.put("a", "bigger", 90)
        assert cache.total_bytes == 90
        assert len(cache) == 1

    def test_oversized_entry_is_rejected_not_cached(self):
        cache = LRUResultCache(max_entries=10, max_bytes=100)
        cache.put("small", "x", 50)
        assert not cache.put("huge", "y", 101)
        assert "huge" not in cache
        assert "small" in cache  # the oversized entry evicted nothing
        assert cache.total_bytes == 50

    def test_bounds_are_validated(self):
        with pytest.raises(InvalidParameterError):
            LRUResultCache(max_entries=0, max_bytes=100)
        with pytest.raises(InvalidParameterError):
            LRUResultCache(max_entries=1, max_bytes=0)
        with pytest.raises(InvalidParameterError):
            CacheConfig(max_entries=0)


# --------------------------------------------------------------------- #
# session integration
# --------------------------------------------------------------------- #
class TestSessionCacheBounds:
    def test_entry_bound_forces_recomputation(self, values):
        session = repro.analyze(
            values, cache_config=CacheConfig(max_entries=2, max_bytes=10**8)
        )
        session.run(_request(16))
        session.run(_request(20))
        session.run(_request(24))  # evicts window=16
        info = session.cache_info()
        assert info["entries"] == 2 and info["evictions"] == 1
        session.run(_request(16))  # gone → recomputed
        assert session.cache_info()["misses"] == 4
        assert session.cache_info()["hits"] == 0

    def test_byte_accounting_matches_serialised_size(self, values):
        session = repro.analyze(values)
        result = session.run(_request(16))
        expected = len(result.to_json().encode("utf-8"))
        assert session.cache_info()["bytes"] == expected

    def test_byte_bound_keeps_session_under_budget(self, values):
        profile_bytes = len(
            repro.analyze(values).run(_request(16)).to_json().encode("utf-8")
        )
        budget = int(profile_bytes * 2.5)  # room for two profiles, not three
        session = repro.analyze(
            values, cache_config=CacheConfig(max_entries=100, max_bytes=budget)
        )
        for window in (16, 20, 24):
            session.run(_request(window))
        info = session.cache_info()
        assert info["bytes"] <= budget
        assert info["entries"] == 2 and info["evictions"] == 1


# --------------------------------------------------------------------- #
# persistent cache
# --------------------------------------------------------------------- #
class TestPersistentCache:
    def test_hit_across_two_sessions(self, values, tmp_path):
        config = CacheConfig(persist_dir=tmp_path / "spill")
        first = repro.analyze(values, cache_config=config)
        computed, source = first.run_with_info(_request(24))
        assert source == "computed"

        second = repro.analyze(values, cache_config=config)
        revived, source = second.run_with_info(_request(24))
        assert source == "persistent"
        assert second.cache_info()["persistent_hits"] == 1
        np.testing.assert_allclose(
            revived.profile().distances, computed.profile().distances
        )
        np.testing.assert_array_equal(
            revived.profile().indices, computed.profile().indices
        )
        # After the spill hit the envelope sits in memory: third call is free.
        _, source = second.run_with_info(_request(24))
        assert source == "memory"

    def test_hit_across_two_processes(self, values, tmp_path):
        spill = tmp_path / "spill"
        script = (
            "import sys, numpy as np, repro\n"
            "from repro.api.cache import CacheConfig\n"
            "from repro.api.requests import AnalysisRequest\n"
            "values = np.cumsum(np.random.default_rng(17).standard_normal(300))\n"
            "session = repro.analyze(values, cache_config=CacheConfig("
            f"persist_dir={str(spill)!r}))\n"
            "request = AnalysisRequest(kind='matrix_profile', params={'window': 24})\n"
            "result, source = session.run_with_info(request)\n"
            "print(source)\n"
            "print(float(result.profile().distances.min()))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
        first = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert first.returncode == 0, first.stderr
        second = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert second.returncode == 0, second.stderr
        first_source, first_min = first.stdout.split()
        second_source, second_min = second.stdout.split()
        assert first_source == "computed"
        assert second_source == "persistent"
        assert first_min == second_min

    def test_run_many_batch_path_probes_the_spill(self, values, tmp_path):
        config = CacheConfig(persist_dir=tmp_path / "spill")
        requests = [_request(16), _request(24)]
        first = repro.analyze(values, cache_config=config)
        first.run_many(requests)

        second = repro.analyze(values, cache_config=config)
        revived = second.run_many(requests)
        info = second.cache_info()
        assert info["persistent_hits"] == 2
        assert info["misses"] == 0  # nothing recomputed
        for fresh, computed in zip(revived, first.run_many(requests)):
            np.testing.assert_allclose(
                fresh.profile().distances, computed.profile().distances
            )

    def test_different_series_do_not_share_slots(self, values, tmp_path):
        config = CacheConfig(persist_dir=tmp_path / "spill")
        repro.analyze(values, cache_config=config).run(_request(24))
        shifted = repro.analyze(values + 1.0, cache_config=config)
        _, source = shifted.run_with_info(_request(24))
        assert source == "computed"

    def test_corrupted_spill_file_is_a_miss_not_a_crash(self, values, tmp_path):
        spill = tmp_path / "spill"
        config = CacheConfig(persist_dir=spill)
        first = repro.analyze(values, cache_config=config)
        first.run(_request(24))
        spill_files = list(spill.rglob("*.json"))
        assert len(spill_files) == 1
        spill_files[0].write_text("{ not json at all", encoding="utf-8")

        second = repro.analyze(values, cache_config=config)
        result, source = second.run_with_info(_request(24))
        assert source == "computed"  # recomputed, no exception
        # the corrupted file was removed and the slot re-spilled
        third = repro.analyze(values, cache_config=config)
        _, source = third.run_with_info(_request(24))
        assert source == "persistent"
        np.testing.assert_allclose(
            result.profile().distances,
            third.run(_request(24)).profile().distances,
        )

    def test_spill_hit_counts_the_bytes_of_the_computed_result(self, tmp_path):
        """The spill slot is the computed envelope's own JSON text, wrapped
        in its kind/cache_key object, so a promoted hit counts the bytes
        the computed result counted."""
        series = np.cumsum(np.random.default_rng(5).standard_normal(4096))
        config = CacheConfig(persist_dir=tmp_path / "spill")
        first = repro.analyze(series, cache_config=config)
        computed = first.run(_request(128))
        counted = first.cache_info()["bytes"]
        assert counted == len(computed.to_json().encode("utf-8"))

        second = repro.analyze(series, cache_config=config)
        _, source = second.run_with_info(_request(128))
        assert source == "persistent"
        assert second.cache_info()["bytes"] == counted

        (slot,) = (tmp_path / "spill").rglob("*.json")
        text = slot.read_text(encoding="utf-8")
        assert text.endswith(f', "result": {computed.to_json()}}}')
        assert "\n" not in text

    def test_stale_key_mismatch_is_a_miss(self, values, tmp_path):
        cache = PersistentResultCache(tmp_path / "spill")
        digest = series_digest(values)
        session = repro.analyze(values)
        result = session.run(_request(24))
        cache.store(digest, "the-real-key", result)
        # A file whose recorded key disagrees with the slot asked for —
        # e.g. a filename-hash collision — must read back as a miss.
        path = cache.path_for(digest, "another-key")
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.loads(
            cache.path_for(digest, "the-real-key").read_text(encoding="utf-8")
        )
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.load(digest, "another-key") is None
        assert cache.load(digest, "the-real-key") is not None

    def test_unserialisable_request_bypasses_the_spill(self, values, tmp_path):
        spill = tmp_path / "spill"
        session = repro.analyze(
            values, cache_config=CacheConfig(persist_dir=spill)
        )
        session.run(_request(16))
        # exactly one slot: the cacheable request
        assert len(list(spill.rglob("*.json"))) == 1


def test_series_digest_is_content_only(values):
    named = repro.DataSeries(np.array(values), name="alpha")
    renamed = repro.DataSeries(np.array(values), name="beta")
    assert named.digest() == renamed.digest() == series_digest(values)
    assert repro.analyze(values).series_digest == series_digest(values)
    assert series_digest(values + 1.0) != series_digest(values)
