"""Injected faults, each with a defined outcome.

The worker-kill cases live beside the code they exercise:
``test_engine_executor.py`` (pool respawn) and ``test_service_dataplane.py``
(a dead worker fails one request, then the pool respawns).
"""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

from repro.exceptions import StoreError
from repro.store import SeriesStore


def _walk(n: int, seed: int) -> np.ndarray:
    return np.cumsum(np.random.default_rng(seed).standard_normal(n))


def test_failed_rename_while_adopting_a_blob_leaves_the_store_unchanged(
    tmp_path, monkeypatch
):
    """``os.replace`` fails once while a new blob moves into its content
    address: ``put`` raises, leaves no temp or name file behind and no
    catalog change, and the same ``put`` then succeeds."""
    store = SeriesStore(tmp_path / "s")
    kept = store.put(_walk(16, seed=1), name="kept")
    before = store.ls()
    real_replace = os.replace
    failures = []

    def replace_failing_once(src, dst):
        if not failures:
            failures.append(dst)
            raise OSError(errno.EIO, "injected rename failure")
        return real_replace(src, dst)

    monkeypatch.setattr("repro.store.series_store.os.replace", replace_failing_once)
    values = _walk(16, seed=2)
    with pytest.raises(StoreError, match="injected rename failure"):
        store.put(values, name="new")
    assert failures
    assert not list(store.root.glob(".ingest.*.tmp"))
    assert list(store.root.glob("blobs/*/*.name")) == [
        store.blob_path(kept).with_suffix(".name")
    ]
    assert store.ls() == before

    digest = store.put(values, name="new")
    assert store.entry(digest)["name"] == "new"
    np.testing.assert_array_equal(store.get(digest), values)


def test_gc_from_another_store_object_spares_a_streaming_upload(tmp_path):
    """An upload streams through one store object while another object over
    the same root runs ``gc``: the upload's temp file is locked, so gc
    leaves it, and the upload then finalizes."""
    writer = SeriesStore(tmp_path / "s")
    values = _walk(64, seed=3)
    ingest = writer.begin(name="streaming")
    ingest.append_chunk(values[:40])
    report = SeriesStore(tmp_path / "s").gc()
    assert report["temp_files"] == 0
    ingest.append_chunk(values[40:])
    digest = ingest.finalize()
    np.testing.assert_array_equal(writer.get(digest), values)
    assert writer.entry(digest)["name"] == "streaming"


def _abandon_upload(root: str) -> None:
    """Start an upload and exit without finalizing or aborting it."""
    ingest = SeriesStore(root).begin(name="crash")
    ingest.append_chunk(_walk(64, seed=4))
    os._exit(0)


def test_gc_removes_the_temp_file_of_a_dead_writer(tmp_path):
    """A writer process that dies mid-upload takes its lock with it: the
    temp file it left is swept by the next ``gc``."""
    import multiprocessing

    root = tmp_path / "s"
    kept = SeriesStore(root).put(_walk(16, seed=5))
    process = multiprocessing.get_context("spawn").Process(
        target=_abandon_upload, args=(str(root),)
    )
    process.start()
    process.join(60)
    assert process.exitcode == 0
    assert list(root.glob(".ingest.*.tmp"))
    store = SeriesStore(root)
    assert store.gc()["temp_files"] == 1
    assert not list(root.glob(".ingest.*.tmp"))
    assert [row["digest"] for row in store.ls()] == [kept]
