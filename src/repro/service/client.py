"""Blocking HTTP client for the analysis service (stdlib ``http.client``).

The counterpart of :mod:`repro.service.server`: serialises an
:class:`~repro.api.requests.AnalysisRequest` into the service's submission
document, posts it, and rebuilds the
:class:`~repro.api.requests.AnalysisResult` envelope from the response.
Deliberately synchronous — it is what the ``repro request`` CLI command,
the harness's service-backed mode and the concurrency tests (one client per
thread) need; an async client would just wrap the same calls.

Two transport behaviours distinguish it from a naive poster:

* **Connection reuse** — the server answers ``Connection: keep-alive``, and
  the client keeps one socket open across calls (re-opening transparently,
  with a single retry, when the server or an idle timeout closed it).  One
  client object therefore costs one TCP handshake for a whole conversation.
* **Digest negotiation** — :meth:`analyze` never ships the value array
  inside the submission.  It sends the series *content digest*; if the
  server does not know it (``404`` + ``unknown_digest``), the client
  uploads the raw float64 bytes **once** through ``PUT /series/<digest>``
  and retries.  The second and every later request for a series — from
  this client or any other — is a few hundred bytes.  ``analyze_raw(...,
  transport="values")`` keeps the old inline-values document for callers
  that need it (e.g. servers predating the digest protocol).
* **Binary answers** — :meth:`analyze` asks for the binary frame of
  :mod:`repro.io.frame` through ``Accept``, so a profile arrives as raw
  arrays instead of ~100 KB of JSON.  Every response is decoded by its
  ``Content-Type``, so a server that answers JSON works all the same;
  :meth:`analyze_raw` asks for nothing and gets the JSON document.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection, HTTPException
from typing import Any, Tuple
from urllib.parse import quote

import numpy as np

from repro import obs
from repro.api.cache import series_digest
from repro.api.requests import AnalysisRequest, AnalysisResult
from repro.exceptions import InvalidParameterError, SerializationError, ServiceError
from repro.io.frame import MEDIA_TYPE as FRAME_MEDIA_TYPE
from repro.io.frame import decode_frame
from repro.series.dataseries import DataSeries

__all__ = ["ServiceClient", "parse_service_url"]

#: What :meth:`ServiceClient.analyze` accepts: the frame, else JSON.
_FRAME_ACCEPT = f"{FRAME_MEDIA_TYPE}, application/json"


def _parse_server_timing(value: str) -> dict:
    """A ``Server-Timing`` header value → ``{name: milliseconds}``.

    Entries without a parseable ``dur`` are dropped."""
    timing = {}
    for entry in value.split(","):
        name, *params = (part.strip() for part in entry.split(";"))
        for param in params:
            key, _, number = param.partition("=")
            if name and key.strip().lower() == "dur":
                try:
                    timing[name] = float(number)
                except ValueError:
                    pass
    return timing


def parse_service_url(url: str) -> Tuple[str, int]:
    """``http://host:port`` (path-less) → ``(host, port)``.

    Accepts a bare ``host:port`` too; anything else —
    schemes other than http, embedded paths — raises
    :class:`~repro.exceptions.ServiceError`.
    """
    stripped = url.strip()
    if stripped.startswith("http://"):
        stripped = stripped[len("http://") :]
    elif "://" in stripped:
        raise ServiceError(f"only http:// service URLs are supported, got {url!r}")
    stripped = stripped.rstrip("/")
    if "/" in stripped:
        raise ServiceError(f"service URLs must not carry a path, got {url!r}")
    host, _, port_text = stripped.partition(":")
    if not host:
        raise ServiceError(f"service URL {url!r} has no host")
    if not port_text:
        return host, 80
    try:
        return host, int(port_text)
    except ValueError as error:
        raise ServiceError(f"service URL {url!r} has an invalid port") from error


class ServiceClient:
    """One service endpoint, one reusable connection.

    Usable as a context manager (``with ServiceClient(...) as client:``);
    :meth:`close` drops the socket, and any later call transparently opens
    a new one.

    Not thread-safe: the kept-alive connection carries one in-flight
    request at a time.  Give each thread its own client (they are cheap —
    the socket opens lazily on first use).
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8765, *, timeout: float = 60.0
    ) -> None:
        self._host = host
        self._port = int(port)
        self._timeout = float(timeout)
        self._connection: HTTPConnection | None = None
        #: The last ``Server-Timing`` header received (every ``/analyze``
        #: answer carries one), parsed to ``{phase: milliseconds}``.
        self.server_timing: dict = {}

    @classmethod
    def from_url(cls, url: str, *, timeout: float = 60.0) -> "ServiceClient":
        """Build a client from an ``http://host:port`` URL."""
        host, port = parse_service_url(url)
        return cls(host, port, timeout=timeout)

    @property
    def base_url(self) -> str:
        """The endpoint as a URL string."""
        return f"http://{self._host}:{self._port}"

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drop the kept-alive connection (idempotent)."""
        if self._connection is not None:
            try:
                self._connection.close()
            except OSError:  # pragma: no cover - teardown is best-effort
                pass
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _exchange(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        *,
        content_type: str = "application/json",
        accept: str | None = None,
    ) -> Tuple[int, Any]:
        """One request/response over the kept-alive connection.

        The response is decoded by its ``Content-Type``: a binary frame
        (asked for through ``accept``) into a document with numpy arrays,
        anything else as JSON.

        A failure on a *reused* connection (the server may have dropped it
        at the keep-alive idle timeout) is retried exactly once on a fresh
        socket; a failure on a fresh connection is the server being
        genuinely unreachable and raises.  The retry is safe for every
        endpoint this client speaks: reads are idempotent, ``/analyze`` is
        deterministic-and-cached, and ``PUT /series`` is content-addressed.
        """
        for _ in range(2):
            reused = self._connection is not None
            if self._connection is None:
                self._connection = HTTPConnection(
                    self._host, self._port, timeout=self._timeout
                )
            connection = self._connection
            try:
                headers = {"Content-Type": content_type} if body else {}
                if accept is not None:
                    headers["Accept"] = accept
                # When a trace is being collected client-side, every request
                # carries the current trace position so server-side spans
                # (queue wait, session run, engine blocks, kernel sweeps —
                # across the server's worker processes) join this client's
                # tree.
                trace_header = obs.format_trace_header(obs.current_payload())
                if trace_header is not None:
                    headers[obs.TRACE_HEADER] = trace_header
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
                status = response.status
                media_type = response.getheader("Content-Type", "")
                timing = response.getheader("Server-Timing")
                if timing is not None:
                    self.server_timing = _parse_server_timing(timing)
                if response.will_close:
                    self.close()
                break
            except (OSError, HTTPException) as error:
                self.close()
                if reused:
                    continue  # stale keep-alive socket: one fresh retry
                raise ServiceError(
                    f"cannot reach the analysis service at {self.base_url}: {error}"
                ) from error
        if media_type.split(";", 1)[0].strip().lower() == FRAME_MEDIA_TYPE:
            try:
                return status, decode_frame(raw)
            except SerializationError as error:
                raise ServiceError(
                    f"the service returned a malformed frame (status {status}): {error}"
                ) from error
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(
                f"the service returned a non-JSON response (status {status})"
            ) from error
        return status, payload

    @staticmethod
    def _raise_for_status(status: int, payload: Any, context: str) -> None:
        if status == 200:
            return
        message = (
            payload.get("error", f"status {status}")
            if isinstance(payload, dict)
            else f"status {status}"
        )
        raise ServiceError(f"{context}: {message}", status=status)

    def _get(self, path: str) -> Any:
        status, payload = self._exchange("GET", path)
        self._raise_for_status(status, payload, f"GET {path} failed")
        return payload

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """The server's liveness document (queue depth, worker count)."""
        return self._get("/health")

    def capabilities(self) -> list:
        """Capability metadata of every algorithm the server dispatches."""
        return self._get("/capabilities")["algorithms"]

    def stats(self) -> dict:
        """Server counters, completion order, per-session cache info, and
        (when a motif index is configured) the catalog's row/ingest/query
        counters under the ``"index"`` key."""
        return self._get("/stats")

    def metrics(self, *, since: str | None = None) -> dict:
        """The server's metrics document (``GET /metrics``).

        The latency-histogram half is ``{"bounds": [...], "phases": [...],
        "kinds": {kind: {phase: {"count", "sum", "counts"}}}}`` — fixed
        log-spaced buckets, so two scrapes diff (and different servers sum)
        bucket-by-bucket; :func:`repro.harness.tables.metrics_rows`
        flattens the document into harness table rows.  The registry half
        adds ``families`` (every obs counter/gauge/histogram grouped by
        layer), plus a ``token`` naming this scrape's snapshot: pass it
        back as ``since`` and the next document's ``families`` holds the
        *delta* since that scrape (``"window": "delta"``) instead of
        process-lifetime totals.
        """
        path = "/metrics" if since is None else f"/metrics?since={quote(since)}"
        return self._get(path)

    def query(self, query="") -> dict:
        """Query the server's motif/discord catalog (``GET /query``).

        ``query`` is either the CLI token string (``"kind=motif
        length=64..128 top=5"``) or a mapping of the same parameters.
        Values are percent-encoded on the wire, so URL-unsafe series names
        (spaces, slashes, unicode) travel intact.  Returns the same
        ``{"spec": ..., "count": ..., "rows": [...]}`` document ``repro
        query`` prints.  Raises :class:`~repro.exceptions.ServiceError`
        (status 404) when the server runs without an index.
        """
        from repro.index import QuerySpec

        if isinstance(query, str):
            params = QuerySpec.parse(query).as_dict()
        elif isinstance(query, QuerySpec):
            params = query.as_dict()
        else:
            params = dict(query)
        encoded = "&".join(
            f"{quote(str(key), safe='')}={quote(str(value), safe='')}"
            for key, value in params.items()
            if value is not None and value is not False
        )
        return self._get(f"/query?{encoded}" if encoded else "/query")

    def series_info(self, digest: str) -> dict | None:
        """Catalog metadata of one stored series, or ``None`` when unknown."""
        status, payload = self._exchange("GET", f"/series/{digest}")
        if status == 404:
            return None
        self._raise_for_status(status, payload, f"GET /series/{digest} failed")
        return payload

    def put_series(
        self, series, *, series_name: str | None = None, digest: str | None = None
    ) -> str:
        """Upload one series into the server's catalog; returns its digest.

        The body is the raw little-endian float64 bytes — the server streams
        them into its store's verifying chunked ingest, so the series never
        exists server-side as a JSON array.  ``digest`` may pass a
        precomputed content digest (skipping the local hash).
        """
        values, name = self._coerce_series(series, series_name)
        if digest is None:
            digest = series_digest(values)
        path = f"/series/{digest}"
        if name is not None:
            # Names come from arbitrary sources (file paths, --name flags);
            # percent-encode so a space cannot break the request line.
            path = f"{path}?name={quote(str(name), safe='')}"
        body = np.ascontiguousarray(values, dtype="<f8").tobytes()
        status, payload = self._exchange(
            "PUT", path, body, content_type="application/octet-stream"
        )
        self._raise_for_status(status, payload, "series upload failed")
        return str(payload.get("digest", digest))

    @staticmethod
    def _coerce_series(series, series_name: str | None):
        if isinstance(series, DataSeries):
            return series.values, (series.name if series_name is None else series_name)
        return np.asarray(series, dtype=np.float64), series_name

    def analyze_raw(
        self,
        series,
        request: AnalysisRequest | dict,
        *,
        series_name: str | None = None,
        request_id: str | None = None,
        transport: str = "digest",
    ) -> Tuple[int, dict]:
        """POST one submission; returns ``(status, response_document)``.

        No raising on non-200 — the backpressure test asserts on the 503
        path directly.  ``transport="digest"`` (default) negotiates the
        digest-only protocol: the submission carries ``series_digest``, and
        an ``unknown_digest`` 404 triggers one ``PUT /series`` upload plus
        one retry.  ``transport="values"`` ships the values inline like the
        pre-store protocol did.

        ``series`` may also be a **digest string** for a series the server
        already has (a prior upload, the server's store): the submission is
        digest-only, the caller never holds the values, and an unknown
        digest stays a 404 — there is nothing to upload.

        The request asks for no binary frame, so the document is the
        server's JSON, JSON-serialisable as it stands.
        """
        return self._submit(
            series,
            request,
            series_name=series_name,
            request_id=request_id,
            transport=transport,
            accept=None,
        )

    def _submit(
        self,
        series,
        request: AnalysisRequest | dict,
        *,
        series_name: str | None,
        request_id: str | None,
        transport: str,
        accept: str | None,
    ) -> Tuple[int, dict]:
        """The digest negotiation behind :meth:`analyze_raw` and
        :meth:`analyze`; ``accept`` is the ``Accept`` of every POST."""
        if transport not in ("digest", "values"):
            raise InvalidParameterError(
                f"transport must be 'digest' or 'values', got {transport!r}"
            )
        if isinstance(request, AnalysisRequest):
            request_document = request.as_dict()
        else:
            request_document = dict(request)
        document: dict = {"request": request_document}
        if isinstance(series, str):
            if transport == "values":
                raise InvalidParameterError(
                    "a digest-string series cannot use transport='values' "
                    "(the client does not hold the values)"
                )
            document["series_digest"] = series
            name = series_name
        else:
            values, name = self._coerce_series(series, series_name)
        if name is not None:
            document["series_name"] = name
        if request_id is not None:
            document["id"] = request_id
        if isinstance(series, str):
            return self._post_analyze(document, accept)
        if transport == "values":
            document["series"] = values.tolist()
            return self._post_analyze(document, accept)
        digest = series_digest(values)
        document["series_digest"] = digest
        status, payload = self._post_analyze(document, accept)
        if (
            status == 404
            and isinstance(payload, dict)
            and payload.get("unknown_digest") == digest
        ):
            # First contact for this series: upload once, retry once.  Every
            # later request (from any client) rides the digest alone.
            self.put_series(values, series_name=name, digest=digest)
            status, payload = self._post_analyze(document, accept)
        return status, payload

    def _post_analyze(self, document: dict, accept: str | None) -> Tuple[int, dict]:
        status, payload = self._exchange(
            "POST", "/analyze", json.dumps(document).encode("utf-8"), accept=accept
        )
        if isinstance(payload, dict):
            # Server-side spans ride home in the response; fold them into
            # whatever trace is being collected here.  The key is popped so
            # result parsing and cached-payload comparisons never see
            # transport metadata.
            envelope = payload.pop("trace", None)
            if isinstance(envelope, dict):
                obs.absorb_events(envelope.get("events"))
        return status, payload

    def analyze(
        self,
        series,
        request: AnalysisRequest | dict,
        *,
        series_name: str | None = None,
        request_id: str | None = None,
    ) -> Tuple[AnalysisResult, str]:
        """Submit one request; returns ``(envelope, cache_source)``.

        ``cache_source`` is the server's ``"memory"`` / ``"persistent"`` /
        ``"computed"`` marker.  The answer comes as a binary frame when the
        server offers one (JSON otherwise); the envelope's arrays are
        writeable and bit-identical either way.  Raises
        :class:`~repro.exceptions.ServiceError` (with the HTTP status) on
        any non-200 response.
        """
        kind = (
            request.kind
            if isinstance(request, AnalysisRequest)
            else dict(request).get("kind")
        )
        with obs.span("client.analyze", kind=kind):
            status, payload = self._submit(
                series,
                request,
                series_name=series_name,
                request_id=request_id,
                transport="digest",
                accept=_FRAME_ACCEPT,
            )
        self._raise_for_status(status, payload, "analysis request failed")
        try:
            result = AnalysisResult.from_dict(payload["result"])
        except (KeyError, TypeError, SerializationError) as error:
            raise ServiceError(
                f"the service returned an invalid result envelope: {error}"
            ) from error
        return result, str(payload.get("cache", "unknown"))
