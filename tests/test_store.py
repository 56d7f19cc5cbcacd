"""The content-addressed series store: identity, bounds, degradation.

Covers LRU eviction order and byte bounds, atomic-write crash simulation,
digest-mismatch and corrupted-blob degradation, chunked-ingest equivalence
with the one-shot put, and store objects and processes sharing one root.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

import repro
from repro.exceptions import InvalidParameterError, StoreError
from repro.store import RESULTS_SUBDIR, SERIES_SUBDIR, SeriesStore, open_data_root


def _walk(n: int, seed: int = 0) -> np.ndarray:
    return np.cumsum(np.random.default_rng(seed).standard_normal(n))


def _blob_bytes_on_disk(root) -> int:
    return sum(path.stat().st_size for path in root.glob("blobs/*/*.f64"))


def _put_named_batch(root: str, worker: int, barrier) -> None:
    """Body of one spawned writer: 25 distinct named series into ``root``."""
    barrier.wait(timeout=120)
    store = SeriesStore(root)
    for item in range(25):
        store.put(_walk(16, seed=1000 * worker + item), name=f"w{worker}-{item}")


@pytest.fixture()
def store(tmp_path) -> SeriesStore:
    return SeriesStore(tmp_path / "store")


class TestRoundTrip:
    def test_put_get_round_trip(self, store):
        values = _walk(64)
        digest = store.put(values, name="walk")
        assert digest == repro.DataSeries(values).digest()
        got = store.get(digest)
        np.testing.assert_array_equal(got, values)
        assert not got.flags.writeable  # memory-mapped, read-only

    def test_load_wraps_as_dataseries_with_name(self, store):
        digest = store.put(repro.DataSeries(_walk(32), name="labelled"))
        series = store.load(digest)
        assert isinstance(series, repro.DataSeries)
        assert series.name == "labelled"

    def test_get_unknown_digest_is_a_miss(self, store):
        assert store.get("0" * 40) is None
        assert store.get("not-a-digest") is None
        assert store.load("0" * 40) is None

    def test_put_is_idempotent(self, store):
        values = _walk(48)
        assert store.put(values) == store.put(values)
        assert len(store) == 1

    def test_analyze_accepts_store_backed_digest(self, store):
        values = _walk(128)
        digest = store.put(values, name="catalogued")
        session = repro.analyze(digest, store=store)
        assert session.name == "catalogued"
        direct = repro.analyze(values).matrix_profile(16).profile()
        via_store = session.matrix_profile(16).profile()
        np.testing.assert_allclose(via_store.distances, direct.distances)

    def test_analyze_digest_without_store_fails_loudly(self, store):
        digest = store.put(_walk(32))
        with pytest.raises(InvalidParameterError, match="no store="):
            repro.analyze(digest)
        with pytest.raises(InvalidParameterError, match="not in the store"):
            repro.analyze("f" * 40, store=store)


class TestChunkedIngest:
    def test_chunked_equals_one_shot(self, store):
        """Any chunking — by values, by bytes, unaligned — lands the same
        digest and the same blob as a one-shot put."""
        values = _walk(100, seed=5)
        one_shot = store.put(values)
        blob = store.blob_path(one_shot).read_bytes()

        ingest = store.begin(name="chunks")
        ingest.append_chunk(values[:33])
        rest = values[33:].tobytes()
        ingest.append_bytes(rest[:101])  # deliberately not 8-byte aligned
        ingest.append_bytes(rest[101:])
        assert ingest.finalize() == one_shot
        assert store.blob_path(one_shot).read_bytes() == blob

    def test_expected_digest_verifies(self, store):
        values = _walk(40, seed=6)
        digest = repro.DataSeries(values).digest()
        ingest = store.begin(expected_digest=digest)
        ingest.append_chunk(values)
        assert ingest.finalize() == digest

    def test_digest_mismatch_raises_and_leaves_no_trace(self, store):
        values = _walk(40, seed=7)
        wrong = "a" * 40
        ingest = store.begin(expected_digest=wrong)
        ingest.append_chunk(values)
        with pytest.raises(StoreError, match="digest mismatch"):
            ingest.finalize()
        assert wrong not in store
        assert len(store) == 0
        assert not list(store.root.glob(".ingest.*.tmp"))

    def test_empty_and_misaligned_ingests_are_rejected(self, store):
        ingest = store.begin()
        with pytest.raises(StoreError, match="non-empty"):
            ingest.finalize()
        ingest = store.begin()
        ingest.append_bytes(b"12345")  # not a float64 multiple
        with pytest.raises(StoreError, match="multiple of 8"):
            ingest.finalize()

    def test_finalised_ingest_rejects_further_use(self, store):
        ingest = store.begin()
        ingest.append_chunk(_walk(16))
        ingest.finalize()
        with pytest.raises(StoreError, match="already finalised"):
            ingest.append_bytes(b"x" * 8)

    def test_abort_removes_the_temp_file(self, store):
        ingest = store.begin()
        ingest.append_chunk(_walk(16))
        ingest.abort()
        assert not list(store.root.glob(".ingest.*.tmp"))
        assert len(store) == 0


class TestEvictionAndBounds:
    def test_byte_cap_holds_and_evicts_lru(self, tmp_path):
        # 25 floats = 200 bytes per series; cap of 500 holds two.
        store = SeriesStore(tmp_path / "s", max_bytes=500)
        first = store.put(_walk(25, seed=1))
        second = store.put(_walk(25, seed=2))
        assert store.get(first) is not None  # touch: first is now hotter
        third = store.put(_walk(25, seed=3))
        assert store.total_bytes <= 500
        assert store.get(second) is None  # the cold entry went
        assert store.get(first) is not None
        assert store.get(third) is not None
        assert not store.blob_path(second).exists()

    def test_newest_entry_survives_even_over_budget(self, tmp_path):
        store = SeriesStore(tmp_path / "s", max_bytes=100)
        digest = store.put(_walk(50, seed=4))  # 400 bytes > cap
        assert store.get(digest) is not None

    def test_ls_orders_hottest_first(self, store):
        first = store.put(_walk(16, seed=1))
        second = store.put(_walk(16, seed=2))
        assert [row["digest"] for row in store.ls()] == [second, first]
        store.get(first)
        assert [row["digest"] for row in store.ls()] == [first, second]

    def test_rm(self, store):
        digest = store.put(_walk(16))
        assert store.rm(digest)
        assert store.get(digest) is None
        assert not store.rm(digest)


class TestDegradation:
    def test_corrupted_blob_degrades_to_miss_and_heals(self, store):
        values = _walk(32, seed=9)
        digest = store.put(values)
        store.blob_path(digest).write_bytes(b"garbage!" * 8)
        assert store.get(digest) is None  # digest verification caught it
        assert not store.blob_path(digest).exists()  # slot healed
        assert store.put(values) == digest  # and is usable again
        assert store.get(digest) is not None

    def test_truncated_blob_degrades_to_miss(self, store):
        digest = store.put(_walk(32, seed=10))
        blob = store.blob_path(digest)
        blob.write_bytes(blob.read_bytes()[:-8])
        assert store.get(digest) is None

    def test_an_older_manifest_json_is_ignored(self, tmp_path):
        """The blob directory is the catalog: a garbage ``manifest.json``
        (as an older store may leave) changes nothing."""
        store = SeriesStore(tmp_path / "s")
        digests = {store.put(_walk(24, seed=s)) for s in range(3)}
        (tmp_path / "s" / "manifest.json").write_text("{not json at all")
        fresh = SeriesStore(tmp_path / "s")
        assert len(fresh) == 3
        assert {row["digest"] for row in fresh.ls()} == digests
        assert all(fresh.get(digest) is not None for digest in digests)

    def test_crash_simulation_leaves_store_coherent(self, store):
        """A writer that dies mid-ingest leaves only a temp file: the
        already-stored blobs are untouched (writes go through a unique temp
        + rename, never in place) and gc removes the debris."""
        values = _walk(64, seed=11)
        digest = store.put(values)
        blob_bytes = store.blob_path(digest).read_bytes()

        crashed = store.begin(name="crash")
        crashed.append_chunk(_walk(64, seed=12))
        # ... the process dies here: no finalize, no abort.  (A real crash
        # runs no destructor either, so the GC safety net is disarmed.)
        crashed._handle.close()
        crashed._done = True

        assert store.blob_path(digest).read_bytes() == blob_bytes
        np.testing.assert_array_equal(store.get(digest), values)
        leftovers = list(store.root.glob(".ingest.*.tmp"))
        assert leftovers  # the debris is visible...
        report = store.gc()
        assert report["temp_files"] >= 1  # ...and gc removes it
        assert not list(store.root.glob(".ingest.*.tmp"))
        assert len(store) == 1

    def test_blob_deleted_behind_the_store_drops_out_at_once(self, store):
        kept = store.put(_walk(16, seed=1))
        digest = store.put(_walk(16, seed=2), name="doomed")
        store.blob_path(digest).unlink()
        assert len(store) == 1
        assert digest not in store
        assert store.entry(digest) is None
        assert [row["digest"] for row in store.ls()] == [kept]
        # Its name file is now an orphan, which gc removes.
        assert store.gc()["orphan_names"] == 1
        assert not list(store.root.glob("blobs/*/*.name"))

    def test_gc_removes_blobs_that_fail_verification(self, store):
        digest = store.put(_walk(16))
        # Forge a blob whose content does not match its name.
        forged = store.blob_path("b" * 40)
        forged.parent.mkdir(parents=True, exist_ok=True)
        forged.write_bytes(b"\x00" * 16)
        fresh = SeriesStore(store.root)
        report = fresh.gc()
        assert report["corrupted"] == 1
        assert not forged.exists()
        assert fresh.get(digest) is not None


class TestSharedRoot:
    """Store objects and processes sharing one root see one catalog."""

    def test_processes_sharing_a_root_lose_no_entries(self, tmp_path):
        root = tmp_path / "s"
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(4)
        writers = [
            context.Process(target=_put_named_batch, args=(str(root), worker, barrier))
            for worker in range(4)
        ]
        try:
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(timeout=180)
            assert [writer.exitcode for writer in writers] == [0, 0, 0, 0]
        finally:
            for writer in writers:
                if writer.is_alive():
                    writer.kill()
        fresh = SeriesStore(root)
        rows = fresh.ls()
        assert len(rows) == 100
        assert {row["name"] for row in rows} == {
            f"w{worker}-{item}" for worker in range(4) for item in range(25)
        }
        assert fresh.total_bytes == _blob_bytes_on_disk(root)

    def test_byte_cap_counts_blobs_from_every_object(self, tmp_path):
        # 25 floats = 200 bytes per series; a cap of 500 holds two.
        first = SeriesStore(tmp_path / "s", max_bytes=500)
        second = SeriesStore(tmp_path / "s", max_bytes=500)
        for seed, store in zip((1, 2, 3), (first, second, first)):
            store.put(_walk(25, seed=seed))
        on_disk = _blob_bytes_on_disk(tmp_path / "s")
        assert on_disk <= 500
        assert first.total_bytes == second.total_bytes == on_disk

    def test_ls_order_follows_every_object(self, tmp_path):
        first = SeriesStore(tmp_path / "s")
        second = SeriesStore(tmp_path / "s")
        a = first.put(_walk(16, seed=1))
        b = second.put(_walk(16, seed=2))
        c = first.put(_walk(16, seed=3))

        def orders():
            return [[row["digest"] for row in store.ls()] for store in (first, second)]

        assert orders() == [[c, b, a]] * 2
        second.get(a)
        assert orders() == [[a, c, b]] * 2
        first.put(_walk(16, seed=2))
        assert orders() == [[b, a, c]] * 2


class TestDataRoot:
    def test_open_data_root_shares_one_namespace(self, tmp_path):
        store, cache_config = repro.open_data_root(tmp_path / "root")
        assert store.root == tmp_path / "root" / SERIES_SUBDIR
        assert cache_config.persist_dir == tmp_path / "root" / RESULTS_SUBDIR
        values = _walk(200, seed=13)
        digest = store.put(values)
        # One digest keys both halves: the session resolves its series from
        # the catalog and spills its results next to it.
        session = repro.analyze(digest, store=store, cache_config=cache_config)
        session.matrix_profile(24)
        spilled = list((tmp_path / "root" / RESULTS_SUBDIR).rglob("*.json"))
        assert any(digest in str(path) for path in spilled)

    def test_invalid_max_bytes_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            SeriesStore(tmp_path, max_bytes=0)
