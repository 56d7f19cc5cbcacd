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
