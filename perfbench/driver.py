"""Run one workload in a fresh process and print its result.

This is the inner half of ``run.py``, which compiles the native kernel,
starts this script in its own process group and relays its output::

    python perfbench/driver.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --workdir DIR

An untraced run (``--trace 0``) times ops back to back and reports the
end-to-end metrics, every time in them scaled to a reference machine
speed by the probe in ``speed.py`` (the report keeps the wall-clock
figures too).  A traced run (``--trace 1``) runs every op twice in a
row -- first untraced, then with the timing probes installed (for the
service workloads: against a second, probed server) -- and reports the
per-layer metrics, each a mean per traced op.  The paired untraced ops
give the tracing overhead on the same inputs.

The next-to-last line of standard output is a report (environment
fingerprint, workload record, set-up times, errors); the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)

import speed  # noqa: E402
from probes import delta  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Ops a run times even when the clock has run out.
MIN_OPS = 3
#: Probes in a row around a set-up.  Three set-ups per run give only six
#: speed readings, where a 20-second phase gives dozens or more, so each is
#: the median of several to keep one slow probe from moving ``setup_s``.
SETUP_PROBES = 7


def fingerprint(workload_cls) -> dict:
    import numpy

    from repro.engine.shm import shared_memory_available
    from repro.matrix_profile.kernels import available_kernels, resolve_kernel

    root = os.path.dirname(_HERE)
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        sha = done.stdout.strip() or None
    # A checkout without git still names its code: a digest of the sources.
    source = hashlib.sha1()
    for folder, dirs, files in sorted(os.walk(os.path.join(root, "src", "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".c")):
                with open(os.path.join(folder, name), "rb") as handle:
                    source.update(name.encode() + b"\0" + handle.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "available_kernels": list(available_kernels()),
        "kernel": workload_cls.kernel_description(resolve_kernel(None)),
        "shared_memory": shared_memory_available(),
        "git_sha": sha,
        "source_sha1": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _obs_figures() -> dict:
    from repro import obs

    snap = obs.snapshot()
    counters = snap["counters"]
    sweep = snap["histograms"].get("kernel.sweep_seconds", {})
    return {
        "sweep_rows": counters.get("kernel.sweep_rows", 0),
        "blocks": counters.get("engine.blocks", 0),
        "sweep_seconds": sweep.get("sum", 0.0),
    }


def one_op(workload, index, item, traced) -> dict:
    probes = workload.begin_traced_op() if traced else None
    if traced:
        obs_before = _obs_figures()
        probe_before = probes.snapshot()
    started = time.perf_counter()
    reply = error = None
    try:
        reply = workload.op(item, traced)
    except Exception as exc:  # noqa: BLE001 - a failed op is a counted outcome
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    record = {"index": index, "traced": traced, "seconds": elapsed}
    if traced:
        probe_after = probes.snapshot()
        obs_after = _obs_figures()
        probes.uninstall()
        record["probes"] = delta(probe_after, probe_before)
        record["covered"] = probe_after["covered"] - probe_before["covered"]
        record["obs"] = {key: obs_after[key] - obs_before[key] for key in obs_after}
        run = probes.last_results.get("api.run")
        record["cache_source"] = run[1] if isinstance(run, tuple) else None
        raw = probes.last_results.get("service.analyze_raw")
        if isinstance(raw, tuple):
            record["response_bytes"] = len(json.dumps(raw[1]).encode("utf-8"))
    ok = False
    if error is None:
        try:
            ok = bool(workload.check(index, item, reply, traced))
        except Exception as exc:  # noqa: BLE001
            error = f"check {type(exc).__name__}: {exc}"
    record["ok"] = ok
    record["error"] = error
    return record


def run_phase(workload, seconds: float, traced_run: bool):
    """Time ops back to back; an untraced op's record carries its speed scale."""
    records = []
    workload.begin_phase()
    started = time.perf_counter()
    deadline = started + seconds
    index = 0
    before = None if traced_run else speed.probe()
    while index < MIN_OPS or time.perf_counter() < deadline:
        item = workload.prepare(index)
        if traced_run:
            records.append(one_op(workload, index, item, False))
            records.append(one_op(workload, index, item, True))
        else:
            record = one_op(workload, index, item, False)
            after = speed.probe()
            record["scale"] = speed.factor(before, after)
            before = after
            records.append(record)
        index += 1
    wall = time.perf_counter() - started
    workload.end_phase()
    return records, wall


def _median_ms(values) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def layer_metrics(workload, records, phase: dict, extras: dict) -> dict:
    """The per-layer metrics of a traced run (means per traced op)."""
    traced = [r for r in records if r["traced"] and r["error"] is None]
    plain = [r for r in records if not r["traced"] and r["error"] is None]
    n = len(traced)
    if n == 0:
        return {}

    def seconds(slot: str) -> float:
        local = sum(r["probes"].get(slot, [0.0, 0])[0] for r in traced) / n
        return local + phase.get(f"server:{slot}", [0.0, 0.0])[0]

    def calls(slot: str) -> float:
        local = sum(r["probes"].get(slot, [0.0, 0])[1] for r in traced) / n
        return local + phase.get(f"server:{slot}", [0.0, 0.0])[1]

    def obs_mean(key: str) -> float:
        return sum(r["obs"][key] for r in traced) / n

    worker_busy = sum(
        max(0.0, r["obs"]["sweep_seconds"] - r["probes"].get("matrix_profile.sweep", [0.0])[0])
        for r in traced
    ) / n
    call = seconds("engine.call")
    untraced_p50 = _median_ms([r["seconds"] for r in plain])
    traced_p50 = _median_ms([r["seconds"] for r in traced])
    total_ms = phase.get("service.total_ms", 0.0)
    analyze_raw_ms = 1000.0 * seconds("service.analyze_raw")
    latencies = sorted(1000.0 * r["seconds"] for r in plain)
    service = workload.server_side
    hits = [r["cache_source"] for r in traced if r.get("cache_source") is not None]
    sizes = [r["response_bytes"] for r in traced if "response_bytes" in r]

    metrics = {
        "matrix_profile.sweep_ms": 1000.0 * (seconds("matrix_profile.sweep") + worker_busy),
        "matrix_profile.sweep_rows": (
            phase.get("matrix_profile.sweep_rows", 0.0) if service else obs_mean("sweep_rows")
        ),
        "core.base_pass_ms": 1000.0 * seconds("core.base_pass"),
        "core.ingest_ms": 1000.0 * seconds("core.ingest"),
        "core.advance_ms": 1000.0 * seconds("core.advance"),
        "core.evaluate_ms": 1000.0 * seconds("core.evaluate"),
        "core.recompute_ms": 1000.0 * seconds("core.recompute"),
        "core.recomputed_profiles": calls("core.recompute"),
        "core.pruning_power": extras.get("pruning_power", 0.0),
        "core.speedup_vs_stomp_range": extras.get("speedup_vs_stomp_range", 0.0),
        "engine.call_ms": 1000.0 * call,
        "engine.map_ms": 1000.0 * seconds("engine.map"),
        "engine.pack_ms": 1000.0 * seconds("engine.pack"),
        "engine.close_ms": 1000.0 * seconds("engine.close"),
        "engine.blocks": obs_mean("blocks"),
        "engine.worker_busy_ms": 1000.0 * worker_busy,
        "engine.efficiency": (
            worker_busy / (workload.pool_workers * call) if call and workload.pool_workers else 0.0
        ),
        "engine.speedup_vs_serial": extras.get("speedup_vs_serial", 0.0),
        "api.run_ms": 1000.0 * seconds("api.run"),
        "api.spill_write_ms": 1000.0 * seconds("api.spill_write"),
        "api.envelope_ms": 1000.0 * seconds("api.envelope"),
        "api.cache_hit_ratio": (
            phase.get("api.cache_hit_ratio", 0.0)
            if service
            else (sum(h != "computed" for h in hits) / len(hits) if hits else 0.0)
        ),
        "store.ingest_ms": 1000.0 * seconds("store.ingest"),
        "store.load_ms": 1000.0 * seconds("store.load"),
        "store.uploads": phase.get("store.uploads", 0.0),
        "index.ingest_ms": 1000.0 * seconds("index.ingest"),
        "index.rows": phase.get("index.rows", 0.0),
        "service.queue_ms": phase.get("service.queue_ms", 0.0),
        "service.execute_ms": phase.get("service.execute_ms", 0.0),
        "service.total_ms": total_ms,
        "service.wire_ms": max(0.0, analyze_raw_ms - total_ms) if analyze_raw_ms else 0.0,
        "service.decode_ms": 1000.0 * seconds("service.decode"),
        "service.upload_ms": 1000.0 * seconds("service.upload"),
        "service.response_kb": (sum(sizes) / len(sizes) / 1024.0) if sizes else 0.0,
        "service.tail_p90_ms": (
            statistics.quantiles(latencies, n=10)[8] if service and len(latencies) >= 10 else 0.0
        ),
        "service.tail_samples": float(len(latencies)) if service else 0.0,
        "obs.tracing_overhead_pct": (
            100.0 * (traced_p50 - untraced_p50) / untraced_p50 if untraced_p50 else 0.0
        ),
        "other_ms": 1000.0 * sum(r["seconds"] - r["covered"] for r in traced) / n,
    }
    return metrics


def traced_extras(workload, records) -> dict:
    """Layer figures computed off the clock after a traced phase."""
    extras = {}
    plain = {r["index"]: r["seconds"] for r in records if not r["traced"] and r["error"] is None}
    power = getattr(workload, "pruning_power", None)
    if power:
        extras["pruning_power"] = statistics.fmean(power)
    reference = getattr(workload, "reference_seconds", None)
    if reference:
        ratios = [reference[i] / plain[i] for i in reference if i in plain and plain[i] > 0]
        if ratios:
            extras["speedup_vs_stomp_range"] = statistics.median(ratios)
    if hasattr(workload, "serial_native_seconds") and plain:
        extras["speedup_vs_serial"] = workload.serial_native_seconds() / statistics.median(
            plain.values()
        )
    return extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    import numpy  # noqa: F401 - imports happen before the set-up clock
    import repro  # noqa: F401
    from workloads import WORKLOADS

    report, result = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.workdir
    )
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    _stop_resource_tracker()
    return 0


def _stop_resource_tracker() -> None:
    """Reap the helper process multiprocessing starts for shared memory.

    It would otherwise outlive this process by a moment; ``_stop`` closes
    its pipe and waits for it (a private call, hence the guard).
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_workload(workload_cls, seed: int, seconds: float, traced_run: bool, workdir: str):
    """Set up, time, verify and tear down one workload: ``(report, result)``."""
    from workloads import describe

    report = {
        "workload": workload_cls.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced_run),
        "environment": fingerprint(workload_cls),
        "record": describe(workload_cls),
    }
    cpus = sorted(os.sched_getaffinity(0))
    if workload_cls.one_cpu and len(cpus) > 1:
        os.sched_setaffinity(0, cpus[:1])
    report["environment"]["run_on_cpus"] = sorted(os.sched_getaffinity(0))
    try:
        return _timed_run(workload_cls, seed, seconds, traced_run, workdir, report)
    finally:
        os.sched_setaffinity(0, cpus)


def _timed_run(workload_cls, seed, seconds, traced_run, workdir, report):
    setup_seconds = []
    setup_scales = []
    workload = None
    try:
        for _ in range(1 if traced_run else SETUP_REPEATS):
            if workload is not None:
                workload.teardown()
                workload.remove()
            workload = workload_cls(seed, workdir, traced=traced_run)
            before = speed.probe(SETUP_PROBES)
            started = time.perf_counter()
            workload.setup()
            setup_seconds.append(time.perf_counter() - started)
            setup_scales.append(speed.factor(before, speed.probe(SETUP_PROBES)))

        records, wall = run_phase(workload, seconds, traced_run)
        late_failures = workload.verify()
        peak_rss = workload.peak_rss_mb()
        extras = traced_extras(workload, records) if traced_run else {}
    finally:
        if workload is not None:
            workload.teardown()
            tracebacks = workload.tracebacks()
            workload.remove()
    phase = workload.phase_layers(sum(1 for r in records if r["traced"] and r["error"] is None))

    for record in records:
        if (record["index"], record["traced"]) in late_failures:
            record["ok"] = False
    failed = sum(1 for record in records if not record["ok"])
    plain = [r for r in records if not r["traced"] and r["error"] is None]

    if traced_run:
        metrics = layer_metrics(workload, records, phase, extras)
        units = declared_units("per_layer")
    else:
        # Every time is scaled to the reference machine speed (speed.py);
        # the report keeps the wall-clock figures beside them.
        scaled = [r["seconds"] * r["scale"] for r in plain]
        op_seconds = sum(r["seconds"] * r["scale"] for r in records)
        metrics = {
            "op_p50_ms": _median_ms(scaled),
            "ops_per_s": len(plain) / op_seconds,
            "peak_rss_mb": peak_rss,
            "setup_s": statistics.median(
                seconds * scale for seconds, scale in zip(setup_seconds, setup_scales)
            ),
        }
        units = declared_units("end_to_end")
        report["wall_clock"] = {
            "op_p50_ms": _median_ms([r["seconds"] for r in plain]),
            "ops_per_s": len(plain) / sum(r["seconds"] for r in records),
            "setup_s": statistics.median(setup_seconds),
        }
        scales = [r["scale"] for r in records]
        report["speed_scale"] = {
            "min": min(scales), "median": statistics.median(scales), "max": max(scales),
        }

    report.update(
        {
            "setup_seconds": setup_seconds,
            "setup_scales": setup_scales,
            "ops": len(records),
            "phase_wall_s": wall,
            "server_tracebacks": tracebacks,
            "errors": sorted({r["error"] for r in records if r["error"]})[:5],
            "late_failures": len(late_failures),
        }
    )
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()
        },
    }
    return report, result


def declared_units(section: str) -> dict:
    """``{metric: unit}`` of one ``BENCHMARK.json`` metric list."""
    with open(os.path.join(os.path.dirname(_HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return {metric["name"]: metric["unit"] for metric in json.load(fh)[section]}


if __name__ == "__main__":
    sys.exit(main())
