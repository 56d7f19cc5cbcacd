"""The queryable motif/discord index (``repro.index``).

Covers the subsystem's contracts end to end: extraction determinism
(index-vs-recompute oracle across three registry algorithms), ingest
hooks and cache-hit dedup, backfill idempotency and live-vs-backfill row
equality, tolerant loading of older sidecars, catalog corruption healing,
store-removal pruning, concurrent ingest-while-query, the query grammar,
and the HTTP/CLI front ends (identical JSON, URL-unsafe names, /stats
counters).
"""

from __future__ import annotations

import json
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.api.cache import CacheConfig, series_digest
from repro.api.requests import AnalysisRequest
from repro.api.session import analyze
from repro.cli import main
from repro.core.discords import variable_length_discords
from repro.core.motif_sets import expand_motif_pair
from repro.core.valmod import valmod
from repro.exceptions import InvalidParameterError
from repro.index import (
    IndexRecord,
    MotifIndex,
    QuerySpec,
    catalog_path,
    extract_records,
    open_motif_index,
    records_from_motif_set,
)
from repro.index.extract import load_sidecar_view
from repro.matrix_profile.stomp import stomp
from repro.service.client import ServiceClient
from repro.service.server import BackgroundService, ServiceConfig
from repro.store import SeriesStore


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


def _row_identity(row: dict):
    return (
        row["kind"],
        row["length"],
        row["start"],
        row["end"],
        row["partner"],
        round(row["score"], 10),
        round(row["distance"], 10),
    )


# --------------------------------------------------------------------- #
# the query grammar
# --------------------------------------------------------------------- #
def test_query_spec_parses_the_cli_grammar():
    spec = QuerySpec.parse("kind=motif length=64..128 score=..1.5 top=5 trim=true")
    assert spec.kind == "motif"
    assert (spec.min_length, spec.max_length) == (64, 128)
    assert (spec.min_score, spec.max_score) == (None, 1.5)
    assert spec.top == 5
    assert spec.trim_overlaps is True
    assert spec.effective_order == "score"
    # an empty query matches everything
    assert QuerySpec.parse("") == QuerySpec()
    # discords rank strongest-first by default
    assert QuerySpec.parse("kind=discord").effective_order == "-score"


@pytest.mark.parametrize(
    "text",
    [
        "bogus=1",
        "kind=nonsense",
        "length=128..64",
        "top=0",
        "order=sideways",
        "length",  # no '='
        "length=64 min_length=32",  # conflicting range forms
    ],
)
def test_query_spec_rejects_malformed_queries(text):
    with pytest.raises(InvalidParameterError):
        QuerySpec.parse(text)


# --------------------------------------------------------------------- #
# catalog basics: dedup, ordering, trimming, pruning
# --------------------------------------------------------------------- #
def test_add_is_idempotent_and_remove_prunes(tmp_path):
    with MotifIndex(tmp_path) as index:
        record = _record()
        assert index.add([record]) == 1
        assert index.add([record]) == 0  # the UNIQUE identity dedupes
        assert index.count() == 1
        other = _record(digest="b" * 40)
        index.add([other])
        assert index.series_count() == 2
        assert index.remove_series("a" * 40) == 1
        assert [row["series_digest"] for row in index.query("")] == ["b" * 40]


def test_query_ordering_and_overlap_trim(tmp_path):
    with MotifIndex(tmp_path) as index:
        index.add(
            [
                _record(start=0, score=0.5),
                _record(start=8, score=0.9),  # covers >half of the first span
                _record(start=200, score=1.2),
                _record(kind="discord", start=300, score=3.0),
                _record(kind="discord", start=400, score=2.0),
            ]
        )
        scores = [row["score"] for row in index.query("kind=motif")]
        assert scores == sorted(scores)
        # discords come strongest-first without an explicit order
        assert [r["score"] for r in index.query("kind=discord")] == [3.0, 2.0]
        trimmed = index.query("kind=motif trim=true top=5")
        assert [row["start"] for row in trimmed] == [0, 200]
        assert index.query("kind=motif length=64..128") == []
        assert len(index.query("score=1.0..")) == 3


def test_answer_document_shape(tmp_path):
    with MotifIndex(tmp_path) as index:
        index.add([_record()])
        document = index.answer("kind=motif top=1")
        assert set(document) == {"spec", "count", "rows"}
        assert document["count"] == 1
        assert document["spec"]["kind"] == "motif"
        assert document["rows"][0]["start"] == 0
        # the document is JSON-clean
        json.dumps(document)


def test_motif_set_records(tmp_path, planted_series):
    series, _ = planted_series
    pair = stomp(series, 48).motifs(1)[0]
    motif_set = expand_motif_pair(series, pair, radius_factor=2.0)
    records = records_from_motif_set(
        motif_set, series_digest="c" * 40, result_key="motif-set:48"
    )
    assert records, "the planted motif must yield occurrences"
    with MotifIndex(tmp_path) as index:
        index.add(records)
        rows = index.query("kind=motif_set")
        assert len(rows) == len(records)
        assert all(row["length"] == 48 for row in rows)


# --------------------------------------------------------------------- #
# the index-vs-recompute oracle (three registry algorithms)
# --------------------------------------------------------------------- #
def _oracle_case(which, values):
    if which == "stomp":
        request = AnalysisRequest(
            kind="matrix_profile", algo="stomp", params={"window": 48}
        )
        flat = lambda: stomp(values, 48)  # noqa: E731
    elif which == "valmod":
        request = AnalysisRequest(
            kind="motifs", algo="valmod", params={"min_length": 32, "max_length": 48}
        )
        flat = lambda: valmod(values, 32, 48)  # noqa: E731
    else:
        request = AnalysisRequest(
            kind="discords", algo="exact", params={"min_length": 32, "max_length": 40}
        )
        flat = lambda: variable_length_discords(values, 32, 40)  # noqa: E731
    return request, flat


@pytest.mark.parametrize("which", ["stomp", "valmod", "discords"])
def test_index_matches_recompute_oracle(tmp_path, small_random_series, which):
    """Rows answered from the catalog == rows extracted from a fresh
    recomputation through the flat functions — the index adds retrieval,
    never different answers."""
    values = small_random_series
    request, flat = _oracle_case(which, values)
    with open_motif_index(tmp_path) as index:
        with analyze(values, name="walk", index=index) as session:
            result = session.run(request)
            digest = session.series_digest

        class _Fresh:
            series_name = "walk"
            algo = result.algo
            payload = flat()

        expected = [
            record.as_dict()
            for record in extract_records(
                _Fresh(), series_digest=digest, result_key="oracle"
            )
        ]
        assert expected, f"the {which} oracle produced no rows"
        rows = index.query(QuerySpec(algorithm=result.algo))
        assert sorted(map(_row_identity, rows)) == sorted(
            map(_row_identity, expected)
        )


def test_cache_hits_do_not_reingest(tmp_path, small_random_series):
    request = AnalysisRequest(
        kind="matrix_profile", algo="stomp", params={"window": 32}
    )
    with open_motif_index(tmp_path) as index:
        with analyze(small_random_series, index=index) as session:
            session.run(request)
            added = index.count()
            session.run(request)  # memory hit
        assert index.count() == added
        assert index.stats()["ingested_results"] == 1


# --------------------------------------------------------------------- #
# backfill
# --------------------------------------------------------------------- #
def _populate_corpus(root: Path, values) -> str:
    cache = CacheConfig(persist_dir=root / "results")
    with open_motif_index(root) as live:
        with analyze(values, name="walk", cache_config=cache, index=live) as session:
            session.run(
                AnalysisRequest(
                    kind="matrix_profile", algo="stomp", params={"window": 48}
                )
            )
            session.run(
                AnalysisRequest(
                    kind="motifs",
                    algo="valmod",
                    params={"min_length": 32, "max_length": 48},
                )
            )
            return session.series_digest


def test_backfill_populates_live_ingest_rows_and_is_idempotent(
    tmp_path, small_random_series
):
    _populate_corpus(tmp_path, small_random_series)
    with open_motif_index(tmp_path) as live:
        live_rows = sorted(
            (row["result_key"], _row_identity(row)) for row in live.query("")
        )
        assert live_rows
    # A cold catalog rebuilt purely from the on-disk corpus must hold the
    # very same rows, under the very same keys.
    rebuilt = MotifIndex(tmp_path / "rebuilt.db")
    report = rebuilt.backfill(tmp_path)
    assert report["envelopes"] == 2 and report["skipped"] == 0
    rebuilt_rows = sorted(
        (row["result_key"], _row_identity(row)) for row in rebuilt.query("")
    )
    assert rebuilt_rows == live_rows
    # idempotency: a second walk adds zero duplicate rows
    again = rebuilt.backfill(tmp_path)
    assert again["rows_added"] == 0
    assert sorted(
        (row["result_key"], _row_identity(row)) for row in rebuilt.query("")
    ) == live_rows
    rebuilt.close()


def test_backfill_walks_older_sidecars_missing_optional_fields(
    tmp_path, small_random_series
):
    """An orphaned pre-upgrade sidecar (no envelope, no ``base_profile``)
    still contributes its per-length motifs through the degraded view."""
    _populate_corpus(tmp_path, small_random_series)
    sidecars = list((tmp_path / "results").glob("*/*/*.valmod.json"))
    assert len(sidecars) == 1
    sidecar = sidecars[0]
    payload = json.loads(sidecar.read_text())
    del payload["base_profile"]
    sidecar.write_text(json.dumps(payload))
    # orphan it: the envelope under the same key is gone
    sidecar.with_name(sidecar.name[: -len(".valmod.json")] + ".json").unlink()

    view = load_sidecar_view(payload)
    assert view.lengths, "the degraded view keeps the per-length motifs"

    with MotifIndex(tmp_path / "rebuilt.db") as rebuilt:
        report = rebuilt.backfill(tmp_path)
        assert report["sidecars"] == 1 and report["skipped"] == 0
        rows = rebuilt.query(QuerySpec(algorithm="valmod"))
        assert rows
        assert all(row["result_key"].startswith("sidecar:") for row in rows)


def test_rehydrate_keeps_older_sidecar_but_unlinks_corrupt_one(
    tmp_path, small_random_series
):
    cache = CacheConfig(persist_dir=tmp_path / "results")
    request = AnalysisRequest(
        kind="motifs", algo="valmod", params={"min_length": 32, "max_length": 40}
    )
    with analyze(small_random_series, cache_config=cache) as session:
        session.run(request)
    (sidecar,) = (tmp_path / "results").glob("*/*/*.valmod.json")
    payload = json.loads(sidecar.read_text())
    del payload["base_profile"]
    sidecar.write_text(json.dumps(payload))
    with analyze(small_random_series, cache_config=cache) as session:
        result, source = session.run_with_info(request)
        assert source == "persistent"
        assert result.is_envelope_view  # degraded, not raised
    assert sidecar.is_file(), "an older-format sidecar must survive for backfill"
    sidecar.write_text("not json at all")
    with analyze(small_random_series, cache_config=cache) as session:
        result, source = session.run_with_info(request)
        assert source == "persistent"
    assert not sidecar.is_file(), "a corrupt sidecar is removed so the slot heals"


# --------------------------------------------------------------------- #
# degradation and pruning
# --------------------------------------------------------------------- #
def test_corrupt_catalog_heals_to_empty_with_tagged_warning(tmp_path):
    path = catalog_path(tmp_path)
    with MotifIndex(path) as index:
        index.add([_record()])
    path.write_bytes(b"this is not a sqlite database, not even close")
    with MotifIndex(path) as index:
        with pytest.warns(RuntimeWarning, match=r"\[repro\.index\]"):
            assert index.count() == 0
        assert index.stats()["heals"] == 1
        # the healed catalog is fully usable again
        index.add([_record()])
        assert index.count() == 1
    with MotifIndex(path) as index:  # and it persists
        assert index.count() == 1


def test_ingest_never_raises_on_broken_payloads(tmp_path):
    with MotifIndex(tmp_path) as index:

        class _Hostile:
            series_name = "x"
            algo = "stomp"

            @property
            def payload(self):
                raise RuntimeError("boom")

        with pytest.warns(RuntimeWarning, match=r"\[repro\.index\]"):
            assert (
                index.ingest_result(
                    _Hostile(), series_digest="a" * 40, result_key="k"
                )
                == 0
            )
        assert index.stats()["skipped_payloads"] == 1


def test_store_removal_prunes_index_rows(tmp_path, small_random_series):
    values = np.asarray(small_random_series)
    other = values * 2.0 + 1.0
    with open_motif_index(tmp_path) as index:
        store = SeriesStore(tmp_path / "series")
        store.subscribe_removal(index.remove_series)
        digest_a = store.put(values, name="a")
        digest_b = store.put(other, name="b")
        index.add([_record(digest=digest_a), _record(digest=digest_b)])
        # rm prunes exactly the removed series' rows
        assert store.rm(digest_a)
        assert {row["series_digest"] for row in index.query("")} == {digest_b}
        # a corrupt blob found by get is healed, pruning its rows the same way
        store.blob_path(digest_b).write_bytes(b"garbage!" * 8)
        assert store.get(digest_b) is None
        assert index.count() == 0
        assert index.stats()["pruned_rows"] == 2


def test_store_eviction_prunes_index_rows(tmp_path):
    rng = np.random.default_rng(11)
    first = np.cumsum(rng.standard_normal(300))
    second = np.cumsum(rng.standard_normal(300))
    with open_motif_index(tmp_path) as index:
        store = SeriesStore(tmp_path / "series", max_bytes=3000)  # one 2400B series
        store.subscribe_removal(index.remove_series)
        digest_first = store.put(first, name="cold")
        index.add([_record(digest=digest_first)])
        store.put(second, name="hot")  # evicts the cold series over budget
        assert digest_first not in store
        assert index.count() == 0


def test_concurrent_ingest_while_query(tmp_path):
    errors: list = []
    with MotifIndex(tmp_path, timeout=30.0) as index:
        stop = threading.Event()

        def _query_loop():
            try:
                while not stop.is_set():
                    rows = index.query("kind=motif top=8")
                    assert all(row["kind"] == "motif" for row in rows)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        reader = threading.Thread(target=_query_loop)
        reader.start()
        try:
            for batch in range(20):
                index.add(
                    [
                        _record(start=batch * 500 + offset, score=float(batch))
                        for offset in range(5)
                    ]
                )
        finally:
            stop.set()
            reader.join(timeout=30)
        assert not errors
        assert index.count() == 100


# --------------------------------------------------------------------- #
# the front ends: GET /query, /stats, the CLI
# --------------------------------------------------------------------- #
@pytest.fixture()
def indexed_service(tmp_path, small_random_series):
    config = ServiceConfig(
        port=0,
        workers=1,
        backlog=32,
        cache=CacheConfig(persist_dir=tmp_path / "results"),
        store_dir=tmp_path / "series",
        index_dir=tmp_path / "index",
    )
    rng = np.random.default_rng(23)
    other = np.cumsum(rng.standard_normal(280))
    request = AnalysisRequest(
        kind="matrix_profile", algo="stomp", params={"window": 32}
    )
    with BackgroundService(config) as background:
        with ServiceClient(port=background.port) as client:
            client.analyze(
                np.asarray(small_random_series),
                request,
                series_name="walk one/α β",  # URL-unsafe on purpose
            )
            client.analyze(other, request, series_name="plain")
            yield tmp_path, background, client


def test_service_query_answers_cross_series_without_recompute(indexed_service):
    root, background, client = indexed_service
    completed_before = client.stats()["completed"]
    document = client.query("kind=motif top=5")
    assert document["count"] == 5
    assert len({row["series_digest"] for row in document["rows"]}) == 2
    scores = [row["score"] for row in document["rows"]]
    assert scores == sorted(scores)
    # answering came from the catalog, not from new /analyze work
    assert client.stats()["completed"] == completed_before


def test_service_query_handles_url_unsafe_names(indexed_service):
    _, _, client = indexed_service
    document = client.query({"name": "one/α β", "kind": "motif"})
    assert document["count"] > 0
    assert all("walk one" in row["series_name"] for row in document["rows"])
    assert document["spec"]["name"] == "one/α β"


def test_service_query_rejects_unknown_parameters(indexed_service):
    _, _, client = indexed_service
    with pytest.raises(Exception, match="unknown query parameter"):
        client.query("bogus=1")


def test_service_stats_exposes_index_counters(indexed_service):
    _, _, client = indexed_service
    index_stats = client.stats()["index"]
    assert index_stats["rows"] > 0
    assert index_stats["series"] == 2
    assert index_stats["ingested_results"] == 2
    assert index_stats["schema_version"] >= 1


def test_service_without_index_answers_404_on_query(tmp_path):
    with BackgroundService(ServiceConfig(port=0, workers=1)) as background:
        with ServiceClient(port=background.port) as client:
            with pytest.raises(Exception) as excinfo:
                client.query("kind=motif")
            assert getattr(excinfo.value, "status", None) == 404


def test_cli_and_http_query_return_identical_json(indexed_service, capsys):
    root, background, client = indexed_service
    query = "kind=motif top=5"
    http_document = client.query(query)
    assert main(["query", "--data-dir", str(root), query]) == 0
    local_document = json.loads(capsys.readouterr().out)
    assert local_document == http_document
    assert (
        main(["query", "--url", f"http://127.0.0.1:{background.port}", query]) == 0
    )
    url_document = json.loads(capsys.readouterr().out)
    assert url_document == http_document


def test_cli_index_backfill_and_stats(indexed_service, capsys):
    root, _, client = indexed_service
    rows = client.stats()["index"]["rows"]
    assert main(["index", "--data-dir", str(root), "backfill"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rows_added"] == 0  # live ingest already catalogued it all
    assert report["rows"] == rows
    assert main(["index", "--data-dir", str(root), "stats"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["rows"] == rows


def test_cli_store_rm_prunes_existing_catalog(tmp_path, capsys):
    rng = np.random.default_rng(3)
    values = np.cumsum(rng.standard_normal(300))
    store = SeriesStore(tmp_path / "series")
    digest = store.put(values, name="doomed")
    with open_motif_index(tmp_path) as index:
        index.add([_record(digest=digest)])
    assert main(["store", "--data-dir", str(tmp_path), "rm", digest]) == 0
    capsys.readouterr()
    with open_motif_index(tmp_path) as index:
        assert index.count() == 0


def test_cli_store_put_eviction_prunes_existing_catalog(tmp_path, capsys):
    """A put whose byte cap evicts an indexed series takes its rows along."""
    values = np.cumsum(np.random.default_rng(5).standard_normal(300))
    digest = SeriesStore(tmp_path / "series").put(values, name="evicted")
    with open_motif_index(tmp_path) as index:
        index.add([_record(digest=digest, start=start) for start in range(3)])
        assert len(index.query(f"digest={digest}")) == 3
    argv = ["store", "--data-dir", str(tmp_path), "--max-bytes", "3000", "put"]
    assert main([*argv, "--workload", "ecg", "--length", "301"]) == 0
    capsys.readouterr()
    assert digest not in SeriesStore(tmp_path / "series")
    with open_motif_index(tmp_path) as index:
        assert index.query(f"digest={digest}") == []


def test_cli_store_rm_without_catalog_creates_none(tmp_path, capsys):
    rng = np.random.default_rng(4)
    store = SeriesStore(tmp_path / "series")
    digest = store.put(np.cumsum(rng.standard_normal(300)), name="plain")
    assert main(["store", "--data-dir", str(tmp_path), "rm", digest]) == 0
    capsys.readouterr()
    assert not catalog_path(tmp_path).exists()


def test_live_service_ingest_equals_cli_backfill(tmp_path, small_random_series):
    """The acceptance criterion end to end: rows a fresh catalog gets from
    walking the service's persisted corpus == the rows the service indexed
    live, key for key."""
    _populate_corpus(tmp_path, small_random_series)
    with open_motif_index(tmp_path) as live:
        live_rows = {
            (row["result_key"], _row_identity(row)) for row in live.query("")
        }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no tagged degradation on this path
        with MotifIndex(tmp_path / "cold.db") as cold:
            cold.backfill(tmp_path)
            cold_rows = {
                (row["result_key"], _row_identity(row)) for row in cold.query("")
            }
    assert cold_rows == live_rows
