"""The benchmark's four workloads.

Each workload is a closed loop with one caller: the next op starts only
when the previous one has returned.  A workload object is built once per
set-up, and the driver calls, in order:

``setup()``
    everything before the first timed op, ending with one untimed
    warm-up op;
``prepare(index)``
    the input of op ``index`` (off the clock);
``op(item, traced)``
    one timed op -- ``traced`` picks the probed side of a traced run;
``check(index, item, reply, traced)``
    the cheap per-op correctness check (off the op's clock);
``verify()``
    checks that are too slow for the loop, after the timed phase;
``teardown()``, ``remove()``
    stop servers and close sessions, then delete their files.

The input of op ``index`` depends only on ``(seed, index)``, so one seed
fixes the series and the op sequence.  The inputs of different seeds cost
different amounts of work -- VALMOD's exact recomputations depend on how
alike the heartbeats are -- so two commits are compared on the same seeds.
"""

from __future__ import annotations

import time

import numpy as np

from probes import Probes, client_probes, delta, process_probes
from servers import ServerProcess, vm_hwm_mb

__all__ = ["WORKLOADS", "op_seed", "motif_table", "motif_tables_match"]

#: Exact-distance tolerance used across the repository's differential tests.
DISTANCE_TOLERANCE = 1e-8

#: ``prepare`` index of the untimed warm-up op (never a timed index).
WARMUP_INDEX = 10**9


def op_seed(seed: int, index: int) -> int:
    """The generator seed of op ``index`` in a run seeded ``seed``."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


def motif_table(result) -> dict:
    """``{length: [(offset_a, offset_b, distance), ...]}`` of a motifs envelope."""
    return {
        int(length): [(p.offset_a, p.offset_b, float(p.distance)) for p in pairs]
        for length, pairs in result.motifs_by_length().items()
    }


def motif_tables_match(got: dict, reference: dict) -> bool:
    """Offsets equal, distances within :data:`DISTANCE_TOLERANCE`."""
    if sorted(got) != sorted(reference):
        return False
    for length, pairs in reference.items():
        mine = got[length]
        if len(mine) != len(pairs):
            return False
        for (a, b, d), (ra, rb, rd) in zip(mine, pairs):
            if a != ra or b != rb or not abs(d - rd) <= DISTANCE_TOLERANCE:
                return False
    return True


def profiles_match(distances, indices, reference) -> bool:
    """A matrix profile against an in-process ``repro.stomp`` reference."""
    return (
        np.array_equal(indices, reference.indices)
        and distances.shape == reference.distances.shape
        and bool(
            np.all(
                (distances == reference.distances)
                | (np.abs(distances - reference.distances) <= DISTANCE_TOLERANCE)
            )
        )
    )


class Workload:
    """Shared bookkeeping; subclasses fill in the op."""

    name = ""
    #: One line for ``BENCHMARK.json`` (its ``why``).
    why = ""
    loop = "closed loop, 1 caller"
    loads: tuple = ()
    bypasses: tuple = ()
    #: Predicted effect of each open ROADMAP item on this workload.
    predictions: dict = {}
    #: Pool workers whose peak RSS belongs to this workload's process.
    pool_workers = 0
    #: Whether the measured layers run in a server process.
    server_side = False
    #: Whether the run keeps to one CPU (processes it starts inherit it).
    #: A single caller and the server it waits on never run at the same
    #: time; on a small VM, letting the scheduler move them between CPUs
    #: cost more run-to-run spread than any op inside the run.
    one_cpu = True

    def __init__(self, seed: int, workdir: str, *, traced: bool = False) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        self.traced = traced

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int):
        return index

    def op(self, item, traced: bool):
        raise NotImplementedError

    def check(self, index: int, item, reply, traced: bool) -> bool:
        return True

    def verify(self) -> set:
        """``(index, traced)`` keys of ops that failed the late check."""
        return set()

    def teardown(self) -> None:
        pass

    def remove(self) -> None:
        """Delete what :meth:`teardown` left on disk."""

    def tracebacks(self) -> int:
        """Tracebacks logged by processes the workload started."""
        return 0

    def peak_rss_mb(self) -> float:
        """Benchmark process plus its pool workers (RSS high-water marks)."""
        import resource

        children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return vm_hwm_mb() + self.pool_workers * children_kb / 1024.0

    # -- traced side --------------------------------------------------- #
    def begin_traced_op(self):
        """Install the probed entry points for one traced op."""
        return Probes().install(process_probes())

    @classmethod
    def kernel_description(cls, resolved: str) -> str:
        return resolved

    def begin_phase(self) -> None:
        pass

    def end_phase(self) -> None:
        pass

    def phase_layers(self, traced_ops: int) -> dict:
        """Per-op layer figures that are only known for the whole phase."""
        return {}


# ---------------------------------------------------------------------- #
class ValmodEcg(Workload):
    name = "valmod_ecg"
    why = (
        "VALMOD, lengths 100-132, on a new 2048-point ECG per op via the serial default "
        "path: base pass, lower-bound advance and exact recomputes (closed loop, 1 caller)"
    )
    loads = ("matrix_profile", "core", "api")
    bypasses = ("engine", "store", "index", "service")
    predictions = {
        "native_ingest": "faster: the base pass runs numpy today because native+ingest downgrades",
        "thread_executor": "no change: the serial path uses no executor",
        "shm_deletion": "no change: no shared memory on the serial path",
        "encode_once_binary_frames": "no change: no service",
        "store_manifest_sqlite": "no change: no store",
    }

    length = 2048
    min_length = 100
    max_length = 132

    def __init__(self, seed, workdir, *, traced=False):
        super().__init__(seed, workdir, traced=traced)
        self._tables: dict = {}
        self.reference_seconds: dict = {}
        self.pruning_power: list = []

    def series(self, index: int):
        from repro.harness.workloads import build_workload

        return build_workload("ecg", self.length, random_state=op_seed(self.seed, index))

    def setup(self) -> None:
        self.op(self.series(WARMUP_INDEX), False)

    def prepare(self, index):
        return self.series(index)

    def op(self, item, traced):
        import repro

        return repro.analyze(item).motifs(
            self.min_length, self.max_length, method="valmod"
        )

    def check(self, index, item, reply, traced):
        self._tables.setdefault(index, {})[traced] = motif_table(reply)
        if traced:
            self.pruning_power.append(reply.value.pruning_summary()["valid_fraction"])
        return reply.kind == "motifs" and reply.algo == "valmod"

    def reference(self, series):
        import repro

        return repro.analyze(series).motifs(
            self.min_length, self.max_length, method="stomp_range"
        )

    def verify(self):
        failed = set()
        for index, tables in self._tables.items():
            started = time.perf_counter()
            reference = motif_table(self.reference(self.series(index)))
            self.reference_seconds[index] = time.perf_counter() - started
            for traced, table in tables.items():
                if not motif_tables_match(table, reference):
                    failed.add((index, traced))
        return failed

    @classmethod
    def kernel_description(cls, resolved):
        base = "numpy" if resolved == "native" else resolved
        return f"base pass {base} (native+ingest runs numpy), recomputes MASS"


# ---------------------------------------------------------------------- #
class StompParallel(Workload):
    name = "stomp_parallel"
    why = (
        "Matrix profile of a 32k random walk on EngineConfig(parallel, n_jobs=2) "
        "as README and CLI set it; loads pool spawn, partition and shm "
        "(closed loop, 1 caller)"
    )
    loads = ("matrix_profile", "engine", "api")
    bypasses = ("core", "store", "index", "service")
    predictions = {
        "native_ingest": "no change: no ingest in a plain matrix profile",
        "thread_executor": "faster: no pool spawn, pickling or shared memory per op",
        "shm_deletion": "faster or no change: no pack or attach per op",
        "encode_once_binary_frames": "no change: no service",
        "store_manifest_sqlite": "no change: no store",
    }

    length = 32768
    window = 128
    n_jobs = 2
    pool_workers = n_jobs
    one_cpu = False
    sampled_rows = 8

    def setup(self):
        import repro
        from repro.api import AnalysisRequest, EngineConfig
        from repro.harness.workloads import build_workload
        from repro.matrix_profile.distance_profile import distance_profile

        self.values = build_workload(
            "random-walk", self.length, random_state=op_seed(self.seed, 0)
        ).values
        self.session = repro.analyze(
            self.values, engine=EngineConfig(executor="parallel", n_jobs=self.n_jobs)
        )
        self.request = AnalysisRequest(kind="matrix_profile", params={"window": self.window})
        count = self.length - self.window + 1
        rows = np.random.default_rng(op_seed(self.seed, 1)).choice(
            count, size=self.sampled_rows, replace=False
        )
        self.references = {
            int(row): distance_profile(self.values, int(row), self.window) for row in rows
        }
        self.op(None, False)

    def op(self, item, traced):
        return self.session.run(self.request, cache=False)

    def check(self, index, item, reply, traced):
        profile = reply.value
        if profile.distances.shape != (self.length - self.window + 1,):
            return False
        for row, reference in self.references.items():
            best = float(np.min(reference))
            got = float(profile.distances[row])
            match = int(profile.indices[row])
            if not (got == best or abs(got - best) <= DISTANCE_TOLERANCE):
                return False
            if match < 0 or not abs(float(reference[match]) - best) <= DISTANCE_TOLERANCE:
                return False
        return True

    def serial_native_seconds(self) -> float:
        """One serial native sweep of the same series (the honest baseline)."""
        import repro

        started = time.perf_counter()
        repro.stomp(self.values, self.window, kernel="native")
        return time.perf_counter() - started

    def teardown(self):
        session = getattr(self, "session", None)
        if session is not None:
            session.close()


# ---------------------------------------------------------------------- #
class _ServiceWorkload(Workload):
    """One stock server (plus a probed one on the traced side)."""

    server_side = True

    def __init__(self, seed, workdir, *, traced=False):
        super().__init__(seed, workdir, traced=traced)
        self.servers: dict = {}
        self.clients: dict = {}
        self._phase: dict = {}

    def _start(self, traced: bool) -> None:
        from repro.service import ServiceClient

        server = ServerProcess(self.workdir, traced=traced)
        self.servers[traced] = server
        server.wait_ready()
        self.clients[traced] = ServiceClient(server.host, server.port)

    def setup(self):
        for traced in (False, True) if self.traced else (False,):
            self._start(traced)
            self.fill(traced)

    def fill(self, traced: bool) -> None:
        raise NotImplementedError

    def begin_traced_op(self):
        return Probes().install(client_probes())

    def peak_rss_mb(self):
        return self.servers[False].peak_rss_mb()

    @classmethod
    def kernel_description(cls, resolved):
        return f"{resolved} in the server process"

    def tracebacks(self) -> int:
        return sum(server.tracebacks() for server in self.servers.values())

    def teardown(self):
        # The client goes first: an idle keep-alive socket open at shutdown
        # is what makes the server log cancelled-connection tracebacks.
        for client in self.clients.values():
            client.close()
        for server in self.servers.values():
            server.stop()
        if "probes_start" in self._phase:
            self._phase["probes_end"] = self.servers[True].final_probes()

    def remove(self) -> None:
        for server in self.servers.values():
            server.remove()

    # -- traced side --------------------------------------------------- #
    def begin_phase(self):
        if not self.traced:
            return
        client = self.clients[True]
        self._phase["metrics_start"] = client.metrics()
        self._phase["stats_start"] = client.stats()
        self._phase["probes_start"] = self.servers[True].snapshot_probes()

    def end_phase(self):
        if not self.traced:
            return
        client = self.clients[True]
        token = self._phase["metrics_start"]["token"]
        self._phase["metrics_end"] = client.metrics(since=token)
        self._phase["stats_end"] = client.stats()

    def phase_layers(self, traced_ops):
        """Server-side layer figures per traced op."""
        phase = self._phase
        if traced_ops < 1 or "probes_end" not in phase:
            return {}
        server = delta(phase["probes_end"], phase["probes_start"])
        out = {
            f"server:{slot}": [seconds / traced_ops, calls / traced_ops]
            for slot, (seconds, calls) in server.items()
        }
        start_kinds = phase["metrics_start"].get("kinds", {})
        for kind, phases in phase["metrics_end"].get("kinds", {}).items():
            for name in ("queue", "execute", "total"):
                before = start_kinds.get(kind, {}).get(name, {"count": 0, "sum": 0.0})
                count = phases[name]["count"] - before["count"]
                total = phases[name]["sum"] - before["sum"]
                if count:
                    out[f"service.{name}_ms"] = 1000.0 * total / count
        families = phase["metrics_end"].get("families", {})
        kernel = families.get("kernel", {}).get("counters", {})
        out["matrix_profile.sweep_rows"] = kernel.get("sweep_rows", 0) / traced_ops
        start, end = phase["stats_start"], phase["stats_end"]
        out["store.uploads"] = (end["uploads"] - start["uploads"]) / traced_ops
        rows = lambda stats: (stats.get("index") or {}).get("rows", 0)  # noqa: E731
        out["index.rows"] = (rows(end) - rows(start)) / traced_ops
        out["api.cache_hit_ratio"] = _session_hit_ratio(start, end)
        return out


def _session_hit_ratio(start: dict, end: dict) -> float:
    """Session-cache hits over lookups between two ``/stats`` documents."""
    before = {s["series_digest"]: s["cache"] for s in start.get("sessions", [])}
    hits = lookups = 0
    for session in end.get("sessions", []):
        cache = session["cache"]
        base = before.get(session["series_digest"], {})
        got = (cache["hits"] + cache["persistent_hits"]) - (
            base.get("hits", 0) + base.get("persistent_hits", 0)
        )
        hits += got
        lookups += got + cache["misses"] - base.get("misses", 0)
    return hits / lookups if lookups else 0.0


class ServiceWarm(_ServiceWorkload):
    name = "service_warm"
    why = (
        "Repeated /analyze of 8 cached matrix profiles over one kept-alive "
        "connection; the session cache answers, so encode, HTTP and decode "
        "dominate (closed loop, 1 caller)"
    )
    loads = ("service", "api")
    bypasses = ("matrix_profile", "core", "engine", "store", "index")
    predictions = {
        "native_ingest": "no change: no VALMOD",
        "thread_executor": "no change: no engine call on a cache hit",
        "shm_deletion": "no change",
        "encode_once_binary_frames": "faster: a hit becomes a lookup plus one write",
        "store_manifest_sqlite": "no change: hits never touch the store",
    }

    length = 4096
    windows = (64, 96, 128, 160)

    def setup(self):
        from repro.api import AnalysisRequest
        from repro.harness.workloads import build_workload

        series = [
            build_workload("ecg", self.length, random_state=op_seed(self.seed, j))
            for j in range(2)
        ]
        self.requests = [
            (s, AnalysisRequest(kind="matrix_profile", params={"window": w}))
            for s in series
            for w in self.windows
        ]
        order = np.random.default_rng(op_seed(self.seed, 2)).permutation(len(self.requests))
        self.order = [int(k) for k in order]
        self.references = {}
        super().setup()

    def fill(self, traced):
        client = self.clients[traced]
        for slot, (series, request) in enumerate(self.requests):
            result, source = client.analyze(series, request)
            if source != "computed":
                raise RuntimeError(f"fill request {slot} answered {source!r}")
            profile = result.value
            self.references[(traced, slot)] = (
                profile.distances.tobytes(),
                profile.indices.tobytes(),
                result.params,
            )
        if not self.check(0, self.prepare(0), self.op(self.prepare(0), traced), traced):
            raise RuntimeError("warm-up op did not hit the session cache")

    def prepare(self, index):
        return self.order[index % len(self.order)]

    def op(self, item, traced):
        series, request = self.requests[item]
        return self.clients[traced].analyze(series, request)

    def check(self, index, item, reply, traced):
        result, source = reply
        distances, indices, params = self.references[(traced, item)]
        profile = result.value
        return (
            source == "memory"
            and result.params == params
            and profile.distances.tobytes() == distances
            and profile.indices.tobytes() == indices
        )


class ServiceCold(_ServiceWorkload):
    name = "service_cold"
    why = (
        "A never-seen 4k random walk per op: 404, PUT /series, retry, compute, "
        "spill and index ingest on the stock server (closed loop, 1 caller)"
    )
    loads = ("service", "api", "store", "index", "matrix_profile")
    bypasses = ("core", "engine")
    predictions = {
        "native_ingest": "no change: no VALMOD",
        "thread_executor": "no change: the stock server computes on its thread workers",
        "shm_deletion": "no change",
        "encode_once_binary_frames": "no change or slower: a miss also encodes the cached bytes",
        "store_manifest_sqlite": "faster or slower: every op writes the manifest",
    }

    length = 4096
    window = 128

    def __init__(self, seed, workdir, *, traced=False):
        super().__init__(seed, workdir, traced=traced)
        self._replies: dict = {}

    def fill(self, traced):
        reply = self.op(self.prepare(WARMUP_INDEX + int(traced)), traced)
        if reply[1] != "computed":
            raise RuntimeError(f"warm-up op answered {reply[1]!r}")

    def series(self, index):
        from repro.harness.workloads import build_workload

        return build_workload(
            "random-walk", self.length, random_state=op_seed(self.seed, index)
        )

    def prepare(self, index):
        return self.series(index)

    def op(self, item, traced):
        from repro.api import AnalysisRequest

        request = AnalysisRequest(kind="matrix_profile", params={"window": self.window})
        return self.clients[traced].analyze(item, request)

    def check(self, index, item, reply, traced):
        result, source = reply
        profile = result.value
        self._replies[(index, traced)] = (profile.distances, profile.indices)
        return source == "computed"

    def verify(self):
        import repro

        failed = set()
        reference_of = None
        for (index, traced), (distances, indices) in sorted(self._replies.items()):
            if reference_of is None or reference_of[0] != index:
                reference_of = (index, repro.stomp(self.series(index).values, self.window))
            if not profiles_match(distances, indices, reference_of[1]):
                failed.add((index, traced))
        return failed


WORKLOADS = {
    workload.name: workload
    for workload in (ValmodEcg, StompParallel, ServiceWarm, ServiceCold)
}


def describe(workload) -> dict:
    """The workload's record: why, loop type, layers and predictions."""
    return {
        "why": workload.why,
        "loop": workload.loop,
        "loads": list(workload.loads),
        "bypasses": list(workload.bypasses),
        "roadmap_predictions": dict(workload.predictions),
    }
