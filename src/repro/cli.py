"""Command-line interface.

The original system couples a C back-end with a GUI front-end; the library's
CLI provides the equivalent head-less workflow::

    valmod discover --input series.txt --min-length 50 --max-length 200
    valmod generate --workload ecg --length 8192 --output ecg.txt
    valmod compare --workload ecg --min-length 64 --max-length 96
    valmod figure --name fig3-top
    valmod serve --port 8765 --data-dir /var/lib/valmod
    valmod request --url http://127.0.0.1:8765 --workload ecg --length 1024 \
        --kind matrix_profile --params '{"window": 64}'
    valmod store --data-dir /var/lib/valmod put --workload ecg --length 4096
    valmod store --data-dir /var/lib/valmod ls
    valmod query --data-dir /var/lib/valmod "kind=motif length=64..128 top=5"
    valmod index --data-dir /var/lib/valmod backfill

Run ``valmod <command> --help`` for the options of each sub-command.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro import obs
from repro._version import __version__
from repro.analysis.ascii_plot import render_valmap
from repro.analysis.report import result_report
from repro.api.cache import CacheConfig
from repro.api.requests import AnalysisRequest
from repro.api.session import EngineConfig, analyze
from repro.matrix_profile.kernels import KERNEL_NAMES
from repro.core.motif_sets import expand_motif_pair
from repro.exceptions import InvalidParameterError, ReproError
from repro.harness.extensions import (
    ablation_anytime_scrimp,
    extension_domains_table,
    skimp_vs_valmod,
    streaming_throughput,
)
from repro.harness.figures import (
    ablation_exactness,
    ablation_lower_bound,
    figure1_fixed_length,
    figure1_valmap,
    figure2_pruning,
    figure3_length_range,
    figure3_series_length,
)
from repro.harness.runner import ALGORITHMS, compare_algorithms
from repro.harness.tables import format_table
from repro.harness.workloads import WORKLOADS, build_workload
from repro.io.serialization import save_result, save_valmap
from repro.series.loaders import load_csv, load_npy, load_text, save_text
from repro.streaming.monitor import StreamingMotifMonitor

__all__ = ["main", "build_parser"]

_FIGURES = {
    "fig1-left": figure1_fixed_length,
    "fig1-right": figure1_valmap,
    "fig2": figure2_pruning,
    "fig3-top": figure3_length_range,
    "fig3-bottom": figure3_series_length,
    "ablation-lb": ablation_lower_bound,
    "ablation-exactness": ablation_exactness,
    "ablation-anytime": ablation_anytime_scrimp,
    "ablation-skimp": skimp_vs_valmod,
    "streaming-throughput": streaming_throughput,
    "extension-domains": extension_domains_table,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="valmod",
        description="Exact discovery of variable-length motifs in data series (VALMOD).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    discover = subparsers.add_parser("discover", help="run VALMOD on a series")
    source = discover.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="path to a text/CSV/npy series file")
    source.add_argument(
        "--workload", choices=sorted(WORKLOADS), help="generate a named synthetic workload"
    )
    discover.add_argument("--length", type=int, default=None, help="workload length (points)")
    discover.add_argument("--min-length", type=int, required=True)
    discover.add_argument("--max-length", type=int, required=True)
    discover.add_argument("--top-k", type=int, default=3)
    discover.add_argument("--profile-capacity", type=int, default=16)
    discover.add_argument("--seed", type=int, default=0, help="workload random seed")
    discover.add_argument(
        "--engine",
        choices=["serial", "parallel", "auto"],
        default=None,
        help="route the profile computations through the block-partitioned "
        "engine (default: the plain serial path)",
    )
    discover.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for --engine parallel/auto (default: all cores)",
    )
    discover.add_argument(
        "--kernel",
        choices=list(KERNEL_NAMES),
        default=None,
        help="STOMP sweep kernel (default auto: native when compilable, "
        "else numpy)",
    )
    discover.add_argument("--output", help="write the full result as JSON")
    discover.add_argument("--valmap-output", help="write the VALMAP as JSON")
    discover.add_argument(
        "--plot", action="store_true", help="print an ASCII rendering of the VALMAP"
    )
    discover.add_argument(
        "--trace",
        default=None,
        metavar="OUT.JSON",
        help="collect a hierarchical trace of the run and write it as "
        "Chrome trace-event JSON (open in chrome://tracing or Perfetto)",
    )

    generate = subparsers.add_parser("generate", help="generate a synthetic workload")
    generate.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    generate.add_argument("--length", type=int, default=8192)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True, help="output text file (one value per line)")

    compare = subparsers.add_parser("compare", help="compare VALMOD against the baselines")
    compare.add_argument("--workload", choices=sorted(WORKLOADS), default="ecg")
    compare.add_argument("--length", type=int, default=2048)
    compare.add_argument("--min-length", type=int, default=64)
    compare.add_argument("--max-length", type=int, default=79)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--engine",
        choices=["serial", "parallel", "auto"],
        default=None,
        help="execution engine for the engine-aware algorithms",
    )
    compare.add_argument(
        "--jobs", type=int, default=None, help="worker processes for the engine"
    )
    compare.add_argument(
        "--trace",
        default=None,
        metavar="OUT.JSON",
        help="collect a hierarchical trace of the comparison and write it "
        "as Chrome trace-event JSON",
    )
    compare.add_argument(
        "--kernel",
        choices=list(KERNEL_NAMES),
        default=None,
        help="STOMP sweep kernel for the kernel-aware algorithms",
    )
    compare.add_argument(
        "--algorithms",
        nargs="+",
        choices=sorted(ALGORITHMS),
        default=["valmod", "stomp-range", "moen", "quickmotif"],
    )

    figure = subparsers.add_parser("figure", help="regenerate the data behind a paper figure")
    figure.add_argument("--name", choices=sorted(_FIGURES), required=True)
    figure.add_argument("--json", action="store_true", help="print raw JSON rows")

    discords = subparsers.add_parser(
        "discords", help="find variable-length discords (anomalies) in a series"
    )
    discord_source = discords.add_mutually_exclusive_group(required=True)
    discord_source.add_argument("--input", help="path to a text/CSV/npy series file")
    discord_source.add_argument(
        "--workload", choices=sorted(WORKLOADS), help="generate a named synthetic workload"
    )
    discords.add_argument("--length", type=int, default=None, help="workload length (points)")
    discords.add_argument("--min-length", type=int, required=True)
    discords.add_argument("--max-length", type=int, required=True)
    discords.add_argument("--top-k", type=int, default=3)
    discords.add_argument("--seed", type=int, default=0, help="workload random seed")

    motif_set = subparsers.add_parser(
        "motif-set", help="expand the best variable-length motif pair into its motif set"
    )
    motif_source = motif_set.add_mutually_exclusive_group(required=True)
    motif_source.add_argument("--input", help="path to a text/CSV/npy series file")
    motif_source.add_argument(
        "--workload", choices=sorted(WORKLOADS), help="generate a named synthetic workload"
    )
    motif_set.add_argument("--length", type=int, default=None, help="workload length (points)")
    motif_set.add_argument("--min-length", type=int, required=True)
    motif_set.add_argument("--max-length", type=int, required=True)
    motif_set.add_argument(
        "--radius-factor", type=float, default=2.0, help="set radius = factor x pair distance"
    )
    motif_set.add_argument("--seed", type=int, default=0, help="workload random seed")

    stream = subparsers.add_parser(
        "stream", help="replay a workload through the streaming motif monitor"
    )
    stream.add_argument("--workload", choices=sorted(WORKLOADS), default="ecg")
    stream.add_argument("--length", type=int, default=2048, help="total points to replay")
    stream.add_argument(
        "--warmup", type=int, default=1024, help="points ingested before monitoring starts"
    )
    stream.add_argument(
        "--windows", type=int, nargs="+", default=[64], help="subsequence lengths to monitor"
    )
    stream.add_argument("--seed", type=int, default=0)

    distance = subparsers.add_parser(
        "mpdist", help="matrix-profile distance (MPdist) between two series files"
    )
    distance.add_argument("first", help="path to the first series file")
    distance.add_argument("second", help="path to the second series file")
    distance.add_argument("--window", type=int, required=True)
    distance.add_argument("--percentile", type=float, default=0.05)
    distance.add_argument(
        "--kernel",
        choices=list(KERNEL_NAMES),
        default=None,
        help="AB-join sweep kernel (default auto: native when compilable, "
        "else numpy)",
    )

    serve = subparsers.add_parser(
        "serve", help="run the asyncio analysis service over AnalysisRequest JSON"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765, help="0 picks a free port")
    serve.add_argument(
        "--workers", type=int, default=1, help="worker tasks draining the queue"
    )
    serve.add_argument(
        "--worker-kind",
        choices=["thread", "process"],
        default="thread",
        help="run computations on threads (default) or an engine process "
        "pool (CPU-bound jobs overlap without the GIL; degrades to threads "
        "where process pools are unavailable)",
    )
    serve.add_argument(
        "--backlog",
        type=int,
        default=32,
        help="queued requests beyond which submissions are answered 503",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=8, help="per-series sessions kept (LRU)"
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=256,
        help="result-cache entry bound per session",
    )
    serve.add_argument(
        "--cache-bytes",
        type=int,
        default=64 * 1024 * 1024,
        help="result-cache byte bound per session",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result-cache directory (survives restarts)",
    )
    serve.add_argument(
        "--data-dir",
        default=None,
        help="shared digest-namespace root: wires the series store to "
        "<dir>/series and the persistent result cache to <dir>/results "
        "(--store-dir / --cache-dir override the halves individually)",
    )
    serve.add_argument(
        "--store-dir",
        default=None,
        help="content-addressed series store directory (enables digest-only "
        "requests to survive restarts and session eviction)",
    )
    serve.add_argument(
        "--store-max-bytes",
        type=int,
        default=None,
        help="byte cap of the series store (default: 256 MiB)",
    )
    serve.add_argument(
        "--index-dir",
        default=None,
        help="motif/discord catalog directory (enables GET /query; wired to "
        "<data-dir>/index automatically when --data-dir is given)",
    )
    serve.add_argument(
        "--engine",
        choices=["serial", "parallel", "auto"],
        default=None,
        help="execution engine for the engine-aware algorithms",
    )
    serve.add_argument(
        "--jobs", type=int, default=None, help="worker processes for the engine"
    )
    serve.add_argument(
        "--kernel",
        choices=list(KERNEL_NAMES),
        default=None,
        help="STOMP sweep kernel for the engine-aware algorithms",
    )
    serve.add_argument(
        "--prewarm",
        action="store_true",
        help="with --worker-kind process: spawn the pool and round-trip a "
        "ping through every worker before accepting traffic, so the first "
        "request does not pay the pool start-up",
    )

    request = subparsers.add_parser(
        "request", help="post one AnalysisRequest to a running analysis service"
    )
    request.add_argument(
        "--url", default="http://127.0.0.1:8765", help="service endpoint"
    )
    request_source = request.add_mutually_exclusive_group(required=True)
    request_source.add_argument("--input", help="path to a text/CSV/npy series file")
    request_source.add_argument(
        "--workload", choices=sorted(WORKLOADS), help="generate a named synthetic workload"
    )
    request.add_argument("--length", type=int, default=None, help="workload length (points)")
    request.add_argument("--seed", type=int, default=0, help="workload random seed")
    request.add_argument(
        "--kind",
        default=None,
        help="analysis kind (matrix_profile, motifs, discords, pan_profile, ...)",
    )
    request.add_argument("--algo", default=None, help="algorithm key (kind default if omitted)")
    request.add_argument(
        "--params",
        default="{}",
        help='algorithm parameters as a JSON object, e.g. \'{"window": 64}\'',
    )
    request.add_argument(
        "--request-file",
        default=None,
        help="read the request document from a save_analysis_request JSON file "
        "instead of --kind/--algo/--params",
    )
    request.add_argument(
        "--timeout", type=float, default=300.0, help="response timeout (seconds)"
    )
    request.add_argument(
        "--transport",
        choices=["digest", "values"],
        default="digest",
        help="series transport: 'digest' (default) negotiates the "
        "digest-only protocol (upload once, then ship ~60 bytes per "
        "request); 'values' inlines the series in every submission",
    )
    request.add_argument(
        "--trace",
        default=None,
        metavar="OUT.JSON",
        help="collect a hierarchical trace of the request — including the "
        "server-side spans propagated back over X-Repro-Trace — and write "
        "it as Chrome trace-event JSON; the server's Server-Timing phases "
        "go to stderr",
    )

    metrics = subparsers.add_parser(
        "metrics",
        help="print observability metrics: scrape a running service's "
        "GET /metrics, or run VALMOD locally and report the registry "
        "(including the overall pruning-power gauge)",
    )
    metrics.add_argument(
        "--url", default=None, help="running service endpoint to scrape"
    )
    metrics.add_argument(
        "--since",
        default=None,
        help="window token from a previous scrape: report the delta since "
        "that scrape instead of process-lifetime totals (service mode)",
    )
    metrics.add_argument(
        "--family",
        default=None,
        help="print only one metric family (engine, cache, store, valmod, "
        "service, index, session, ...)",
    )
    metrics_source = metrics.add_mutually_exclusive_group(required=False)
    metrics_source.add_argument(
        "--input", help="path to a text/CSV/npy series file (local run mode)"
    )
    metrics_source.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        help="generate a named synthetic workload (local run mode)",
    )
    metrics.add_argument(
        "--length", type=int, default=None, help="workload length (points)"
    )
    metrics.add_argument("--seed", type=int, default=0, help="workload random seed")
    metrics.add_argument(
        "--min-length", type=int, default=None, help="VALMOD range lower bound"
    )
    metrics.add_argument(
        "--max-length", type=int, default=None, help="VALMOD range upper bound"
    )

    store = subparsers.add_parser(
        "store", help="manage the content-addressed series store"
    )
    store.add_argument(
        "--data-dir",
        required=True,
        help="shared digest-namespace root (the store lives in <dir>/series, "
        "next to the <dir>/results persistent result cache)",
    )
    store.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="byte cap of the store (default: 256 MiB)",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_put = store_sub.add_parser("put", help="ingest a series, print its digest")
    put_source = store_put.add_mutually_exclusive_group(required=True)
    put_source.add_argument("--input", help="path to a text/CSV/npy series file")
    put_source.add_argument(
        "--workload", choices=sorted(WORKLOADS), help="generate a named synthetic workload"
    )
    store_put.add_argument("--length", type=int, default=None, help="workload length")
    store_put.add_argument("--seed", type=int, default=0, help="workload random seed")
    store_put.add_argument("--name", default=None, help="display name override")

    store_get = store_sub.add_parser(
        "get", help="resolve a digest (verify + print, or export the values)"
    )
    store_get.add_argument("digest", help="series content digest (sha1 hex)")
    store_get.add_argument(
        "--output", default=None, help="write the values to a text file"
    )

    store_sub.add_parser("ls", help="list the catalog, hottest first")

    store_rm = store_sub.add_parser("rm", help="remove one series")
    store_rm.add_argument("digest", help="series content digest (sha1 hex)")

    store_sub.add_parser(
        "gc",
        help="remove ingest debris, orphan name files and blobs that fail "
        "verification, enforce the byte cap",
    )

    query = subparsers.add_parser(
        "query",
        help="query the motif/discord catalog (a local --data-dir index, or a "
        "running service's GET /query)",
    )
    query.add_argument(
        "query",
        nargs="?",
        default="",
        help="whitespace-separated key=value filters: kind=motif|discord|"
        "motif_set, digest=<sha1>, name=<substring>, algorithm=<key>, "
        "length=<a>..<b>, score=<a>..<b>, top=<k>, order=score|-score|"
        "length|-length, trim=true (overlap-trimmed top-k); empty matches "
        "everything",
    )
    query_target = query.add_mutually_exclusive_group(required=True)
    query_target.add_argument(
        "--data-dir", help="shared data root whose <dir>/index/catalog.db to query"
    )
    query_target.add_argument(
        "--url", help="running service endpoint (uses GET /query)"
    )

    index = subparsers.add_parser(
        "index", help="manage the motif/discord catalog of one data root"
    )
    index.add_argument(
        "--data-dir",
        required=True,
        help="shared digest-namespace root (the catalog lives in <dir>/index)",
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)
    index_sub.add_parser(
        "backfill",
        help="walk the existing <dir>/results cache envelopes and "
        ".valmod.json sidecars into the catalog (idempotent)",
    )
    index_sub.add_parser("stats", help="print catalog size and counters")

    return parser


def _load_series(path: str):
    if path.endswith(".npy"):
        return load_npy(path)
    if path.endswith(".csv"):
        return load_csv(path)
    return load_text(path)


def _command_discover(args: argparse.Namespace) -> int:
    if args.input:
        series = _load_series(args.input)
    else:
        series = build_workload(args.workload, args.length, random_state=args.seed)
    session = analyze(
        series,
        engine=EngineConfig(
            executor=args.engine, n_jobs=args.jobs, kernel=args.kernel
        ),
    )
    result = session.motifs(
        args.min_length,
        args.max_length,
        method="valmod",
        top_k=args.top_k,
        profile_capacity=args.profile_capacity,
    ).value
    print(result_report(result, top_k=args.top_k))
    if args.plot:
        print()
        print(render_valmap(result.valmap))
    if args.output:
        save_result(result, args.output)
        print(f"\nresult written to {args.output}")
    if args.valmap_output:
        save_valmap(result.valmap, args.valmap_output)
        print(f"VALMAP written to {args.valmap_output}")
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    series = build_workload(args.workload, args.length, random_state=args.seed)
    save_text(series, args.output)
    print(f"{series.name}: {len(series)} points written to {args.output}")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    series = build_workload(args.workload, args.length, random_state=args.seed)
    results = compare_algorithms(
        series,
        args.min_length,
        args.max_length,
        algorithms=args.algorithms,
        top_k=1,
        engine=args.engine,
        n_jobs=args.jobs,
        kernel=args.kernel,
    )
    print(
        f"workload={args.workload} length={len(series)} "
        f"range=[{args.min_length}, {args.max_length}]"
    )
    print(f"{'algorithm':<16}{'seconds':>10}  best pair (normalised distance)")
    for result in results:
        best = result.best_overall()
        print(
            f"{result.algorithm:<16}{result.elapsed_seconds:>10.3f}  "
            f"length={best.window} offsets=({best.offset_a}, {best.offset_b}) "
            f"dn={best.normalized_distance:.4f}"
        )
    return 0


def _jsonable(value):
    """Best-effort conversion of figure rows (may contain numpy arrays) to JSON."""
    try:
        import numpy as np

        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, (np.integer, np.floating)):
            return value.item()
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        pass
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _command_figure(args: argparse.Namespace) -> int:
    rows = _FIGURES[args.name]()
    rows = rows if isinstance(rows, list) else [rows]
    if args.json:
        print(json.dumps(_jsonable(rows), indent=2))
        return 0
    for row in rows:
        printable = {
            key: value
            for key, value in row.items()
            if not hasattr(value, "shape")  # skip raw arrays in the table view
        }
        print(json.dumps(_jsonable(printable)))
    return 0


def _series_from_args(args: argparse.Namespace):
    """Shared --input / --workload resolution for the analysis sub-commands."""
    if getattr(args, "input", None):
        return _load_series(args.input)
    return build_workload(args.workload, args.length, random_state=args.seed)


def _command_discords(args: argparse.Namespace) -> int:
    session = analyze(_series_from_args(args))
    discords = session.discords(args.min_length, args.max_length, k=args.top_k).value
    rows = [discord.as_dict() for discord in discords]
    if not rows:
        print("no discord found (the series may be too short for the requested range)")
        return 0
    print(format_table(rows))
    return 0


def _command_motif_set(args: argparse.Namespace) -> int:
    series = _series_from_args(args)
    session = analyze(series)
    best = session.motifs(
        args.min_length, args.max_length, method="valmod", top_k=1
    ).best_motif()
    motif_set = expand_motif_pair(series, best, radius_factor=args.radius_factor)
    print(
        f"best motif pair: length={best.window} offsets=({best.offset_a}, {best.offset_b}) "
        f"dn={best.normalized_distance:.4f}"
    )
    print(
        f"motif set: {len(motif_set)} occurrences within radius {motif_set.radius:.4f}"
    )
    rows = [
        {"occurrence": offset, "distance_to_pair": distance}
        for offset, distance in zip(motif_set.occurrences, motif_set.distances)
    ]
    print(format_table(rows))
    return 0


def _command_stream(args: argparse.Namespace) -> int:
    series = build_workload(args.workload, args.length, random_state=args.seed)
    values = series.values
    warmup = min(max(args.warmup, max(args.windows) * 2), len(values) - 1)
    monitor = StreamingMotifMonitor(values[:warmup], windows=args.windows)
    events = monitor.extend(values[warmup:])
    print(
        f"replayed {len(values) - warmup} points of {series.name!r} after a "
        f"{warmup}-point warm-up; {len(events)} events"
    )
    if events:
        print(format_table([event.as_dict() for event in events]))
    for window in monitor.windows:
        best = monitor.best_motif(window)
        print(
            f"final best motif @ length {window}: offsets=({best.offset_a}, {best.offset_b}) "
            f"distance={best.distance:.4f}"
        )
    return 0


def _command_mpdist(args: argparse.Namespace) -> int:
    first = analyze(_load_series(args.first))
    second = analyze(_load_series(args.second))
    options = {} if args.kernel is None else {"kernel": args.kernel}
    value = first.mpdist(
        second, args.window, percentile=args.percentile, **options
    ).value
    print(f"MPdist(window={args.window}, percentile={args.percentile}) = {value:.6f}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service.server import ServiceConfig, serve_forever
    from repro.store import RESULTS_SUBDIR, SERIES_SUBDIR

    cache_dir = args.cache_dir
    store_dir = args.store_dir
    index_dir = args.index_dir
    if args.data_dir is not None:
        # The shared digest namespace: series catalog, result cache and
        # motif index side by side under one root; the specific flags still
        # override.
        if cache_dir is None:
            cache_dir = Path(args.data_dir) / RESULTS_SUBDIR
        if store_dir is None:
            store_dir = Path(args.data_dir) / SERIES_SUBDIR
        if index_dir is None:
            from repro.index import INDEX_SUBDIR

            index_dir = Path(args.data_dir) / INDEX_SUBDIR
    store_kwargs = {}
    if args.store_max_bytes is not None:
        store_kwargs["store_max_bytes"] = args.store_max_bytes
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        worker_kind=args.worker_kind,
        backlog=args.backlog,
        max_sessions=args.max_sessions,
        cache=CacheConfig(
            max_entries=args.cache_entries,
            max_bytes=args.cache_bytes,
            persist_dir=cache_dir,
        ),
        engine=EngineConfig(executor=args.engine, n_jobs=args.jobs, kernel=args.kernel),
        store_dir=store_dir,
        index_dir=index_dir,
        prewarm=getattr(args, "prewarm", False),
        **store_kwargs,
    )
    serve_forever(config)
    return 0


def _command_request(args: argparse.Namespace) -> int:
    from repro.io.serialization import load_analysis_request
    from repro.service.client import ServiceClient

    if args.request_file:
        request = load_analysis_request(args.request_file)
    else:
        if not args.kind:
            raise InvalidParameterError(
                "provide --kind (with optional --algo/--params) or --request-file"
            )
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as error:
            raise InvalidParameterError(
                f"--params is not valid JSON: {error}"
            ) from error
        if not isinstance(params, dict):
            raise InvalidParameterError("--params must be a JSON object")
        request = AnalysisRequest(kind=args.kind, algo=args.algo, params=params)
    series = _series_from_args(args)
    with ServiceClient.from_url(args.url, timeout=args.timeout) as client:
        # The root span gives --trace a client-side anchor; without an
        # open span there is no trace position to send in X-Repro-Trace.
        request_kind = (
            request.kind
            if isinstance(request, AnalysisRequest)
            else dict(request).get("kind")
        )
        with obs.span("client.analyze", kind=request_kind):
            status, payload = client.analyze_raw(
                series,
                request,
                series_name=series.name,
                transport=getattr(args, "transport", "digest"),
            )
        if args.trace and client.server_timing:
            # Where the server's time went (stdout stays the JSON document).
            phases = ", ".join(
                f"{name} {ms:.3f} ms" for name, ms in client.server_timing.items()
            )
            print(f"server timing: {phases}", file=sys.stderr)
        ServiceClient._raise_for_status(status, payload, "analysis request failed")
    document = payload["result"]
    document["cache"] = str(payload.get("cache", "unknown"))
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def _command_store(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.store import SERIES_SUBDIR, SeriesStore

    kwargs = {} if args.max_bytes is None else {"max_bytes": args.max_bytes}
    store = SeriesStore(Path(args.data_dir) / SERIES_SUBDIR, **kwargs)
    index = None
    if args.store_command in ("put", "rm", "gc"):
        # Removing a series (a put's byte cap evicts too) must take its
        # catalog rows with it — but only when a catalog already exists;
        # plain store maintenance must not conjure an index directory.
        from repro.index import MotifIndex, catalog_path

        catalog = catalog_path(args.data_dir)
        if catalog.is_file():
            index = MotifIndex(catalog)
            store.subscribe_removal(index.remove_series)
    try:
        return _run_store_command(args, store)
    finally:
        if index is not None:
            index.close()


def _run_store_command(args: argparse.Namespace, store) -> int:
    if args.store_command == "put":
        series = _series_from_args(args)
        digest = store.put(series, name=args.name)
        print(
            f"stored {series.name!r}: {len(series)} points, "
            f"{len(series) * 8} bytes\ndigest: {digest}"
        )
        return 0
    if args.store_command == "get":
        series = store.load(args.digest)
        if series is None:
            print(f"error: digest {args.digest} is not in the store", file=sys.stderr)
            return 2
        if args.output:
            save_text(series, args.output)
            print(f"{len(series)} points written to {args.output}")
        else:
            print(json.dumps({"digest": args.digest, **series.describe()}, indent=2))
        return 0
    if args.store_command == "ls":
        rows = store.ls()
        if not rows:
            print("the store is empty")
        else:
            print(format_table(rows))
            stats = store.stats()
            print(
                f"{stats['entries']} series, {stats['total_bytes']} bytes "
                f"(cap: {stats['max_bytes']})"
            )
        return 0
    if args.store_command == "rm":
        if store.rm(args.digest):
            print(f"removed {args.digest}")
            return 0
        print(f"error: digest {args.digest} is not in the store", file=sys.stderr)
        return 2
    if args.store_command == "gc":
        print(json.dumps(store.gc(), indent=2))
        return 0
    raise InvalidParameterError(f"unknown store command {args.store_command!r}")


def _command_metrics(args: argparse.Namespace) -> int:
    if args.url:
        from repro.service.client import ServiceClient

        with ServiceClient.from_url(args.url) as client:
            document = client.metrics(since=args.since)
        if args.family:
            document["families"] = {
                args.family: document.get("families", {}).get(
                    args.family, {"counters": {}, "gauges": {}, "histograms": {}}
                )
            }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    # Local mode: optionally run VALMOD first so the paper-facing gauge
    # valmod.pruning_power.overall is populated (per-length pruning lives on
    # the result, not in the registry), then print the process registry
    # grouped by family.
    if args.input or args.workload:
        if args.min_length is None or args.max_length is None:
            raise InvalidParameterError(
                "a local metrics run needs --min-length and --max-length "
                "(the VALMOD motif range)"
            )
        series = _series_from_args(args)
        session = analyze(series)
        session.motifs(args.min_length, args.max_length, method="valmod")
    snapshot = obs.snapshot()
    document = {
        "at": snapshot.get("at"),
        "enabled": obs.metrics_enabled(),
        "families": obs.group_families(snapshot),
    }
    if args.family:
        document["families"] = {
            args.family: document["families"].get(
                args.family, {"counters": {}, "gauges": {}, "histograms": {}}
            )
        }
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def _command_query(args: argparse.Namespace) -> int:
    # CLI and HTTP answer the identical document: the local path prints
    # MotifIndex.answer(spec) and the service's GET /query returns the very
    # same method's output, so the two front ends can be diffed byte for
    # byte (the tests do).
    if args.url:
        from repro.service.client import ServiceClient

        with ServiceClient.from_url(args.url) as client:
            document = client.query(args.query)
    else:
        from repro.index import QuerySpec, open_motif_index

        spec = QuerySpec.parse(args.query)
        with open_motif_index(args.data_dir) as index:
            document = index.answer(spec)
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def _command_index(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.index import open_motif_index

    with open_motif_index(args.data_dir) as index:
        if args.index_command == "backfill":
            report = index.backfill(Path(args.data_dir))
            print(json.dumps({**report, "rows": index.count()}, indent=2))
            return 0
        if args.index_command == "stats":
            print(json.dumps(index.stats(), indent=2, sort_keys=True))
            return 0
    raise InvalidParameterError(f"unknown index command {args.index_command!r}")


_COMMANDS = {
    "discover": _command_discover,
    "generate": _command_generate,
    "compare": _command_compare,
    "figure": _command_figure,
    "discords": _command_discords,
    "motif-set": _command_motif_set,
    "stream": _command_stream,
    "mpdist": _command_mpdist,
    "serve": _command_serve,
    "request": _command_request,
    "metrics": _command_metrics,
    "store": _command_store,
    "query": _command_query,
    "index": _command_index,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    try:
        if trace_path:
            # Everything the command does — engine blocks, kernel sweeps,
            # worker processes, even server-side spans of a `request` —
            # lands in one Chrome trace-event file.
            with obs.trace(trace_path):
                code = _COMMANDS[args.command](args)
            print(f"trace written to {trace_path}", file=sys.stderr)
            return code
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
