"""Timing probes patched onto the package's public entry points.

The traced run measures every layer from outside the package: a probe
replaces one attribute -- a function as another module bound it, or a
method on a class -- with a wrapper that adds the call's wall time and a
call count to a named slot, and :meth:`Probes.uninstall` puts every
original back.  Nothing in ``src/`` changes.

Slot values are *inclusive*: a probed call made inside another probed
call counts in both slots (the VALMOD base pass contains the sweep, which
contains the per-row ingest).  A re-entrant call into the same slot is
counted once.  :attr:`Probes.covered` adds up, per thread, only the time
spent in outermost probes, so ``op time - covered`` is the part of an op
no probe explains (the benchmark's ``other_ms``).  Probes marked
*transparent* are timed but neither count as coverage nor hide the probes
they contain: ``Analysis.run_with_info`` wraps a whole in-process op.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

__all__ = ["Probe", "Probes", "client_probes", "delta", "process_probes", "resolve_owner"]


class Probe:
    """One patch point: ``owner`` (dotted module or ``module:Class``) and
    ``attr`` name the attribute, ``slot`` the metric it feeds."""

    __slots__ = ("slot", "owner", "attr", "transparent")

    def __init__(self, slot: str, owner: str, attr: str, transparent: bool = False):
        self.slot = slot
        self.owner = owner
        self.attr = attr
        self.transparent = transparent


def resolve_owner(path: str):
    """``"repro.core.valmod"`` is the module object itself -- looked up in
    ``sys.modules``, because the package re-exports some functions under
    their module's name -- and ``"repro.api.session:Analysis"`` a class."""
    module_name, _, class_name = path.partition(":")
    __import__(module_name)
    owner = sys.modules[module_name]
    return getattr(owner, class_name) if class_name else owner


# Entry points of the layers the benchmark process itself runs (in-process
# workloads) and the ones a server process runs (the traced launcher).
_LAYER_PROBES = (
    Probe("matrix_profile.sweep", "repro.matrix_profile.stomp", "run_sweep"),
    Probe("matrix_profile.sweep", "repro.engine.partition", "run_sweep"),
    Probe("core.base_pass", "repro.core.valmod", "stomp"),
    Probe("core.recompute", "repro.core.valmod", "distance_profile"),
    Probe("core.ingest", "repro.core.partial_profile:PartialProfileStore", "ingest_centered_profile"),
    Probe("core.advance", "repro.core.partial_profile:PartialProfileStore", "advance_to"),
    Probe("core.evaluate", "repro.core.partial_profile:PartialProfileStore", "evaluate"),
    Probe("engine.call", "repro.engine.partition", "partitioned_stomp"),
    Probe("engine.map", "repro.engine.executor:ParallelExecutor", "map"),
    Probe("engine.map", "repro.engine.executor:SerialExecutor", "map"),
    Probe("engine.pack", "repro.engine.shm:SharedSeriesBuffer", "create"),
    Probe("engine.close", "repro.engine.executor:ParallelExecutor", "close"),
    Probe("api.run", "repro.api.session:Analysis", "run_with_info", transparent=True),
    Probe("api.spill_write", "repro.api.cache:PersistentResultCache", "store"),
    Probe("api.envelope", "repro.api.requests:AnalysisResult", "as_dict"),
    Probe("store.ingest", "repro.store.series_store:ChunkedIngest", "append_bytes"),
    Probe("store.ingest", "repro.store.series_store:ChunkedIngest", "finalize"),
    Probe("store.load", "repro.store.series_store:SeriesStore", "load"),
    Probe("store.load", "repro.store.series_store:SeriesStore", "get"),
    Probe("index.ingest", "repro.index.catalog:MotifIndex", "ingest_result"),
)

# The client half of a service op.
_CLIENT_PROBES = (
    Probe("service.analyze_raw", "repro.service.client:ServiceClient", "analyze_raw"),
    Probe("service.upload", "repro.service.client:ServiceClient", "put_series"),
    Probe("service.decode", "repro.api.requests:AnalysisResult", "from_dict"),
)


def process_probes() -> tuple:
    """Probes for a process that computes (benchmark process or server)."""
    return _LAYER_PROBES


def client_probes() -> tuple:
    """Probes for the benchmark process of a service workload."""
    return _CLIENT_PROBES


class Probes:
    """Named wall-time/count slots fed by patched entry points."""

    def __init__(self) -> None:
        # Re-entrant: a server's event-loop thread runs probed store calls,
        # and a signal handler on that same thread may take a snapshot.
        self._lock = threading.RLock()
        self._local = threading.local()
        self._patches: list = []
        self.totals: dict = {}
        self.covered = 0.0
        self.last_results: dict = {}

    # ------------------------------------------------------------------ #
    def install(self, probes) -> "Probes":
        for probe in probes:
            owner = resolve_owner(probe.owner)
            raw = vars(owner)[probe.attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(probe, raw.__func__))
            elif isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(probe, raw.__func__))
            else:
                patched = self._wrap(probe, raw)
            setattr(owner, probe.attr, patched)
            self._patches.append((owner, probe.attr, raw))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    def _wrap(self, probe: Probe, fn):
        probes = self
        slot = probe.slot
        transparent = probe.transparent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = probes._local
            active = getattr(local, "active", None)
            if active is None:
                active = local.active = set()
                local.depth = 0
            if slot in active:
                return fn(*args, **kwargs)
            active.add(slot)
            depth = local.depth
            if not transparent:
                local.depth = depth + 1
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                local.depth = depth
                active.discard(slot)
                with probes._lock:
                    total = probes.totals.get(slot)
                    if total is None:
                        total = probes.totals[slot] = [0.0, 0]
                    total[0] += elapsed
                    total[1] += 1
                    if depth == 0 and not transparent:
                        probes.covered += elapsed
            probes.last_results[slot] = result
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """``{slot: [seconds, calls]}`` plus the coverage total."""
        with self._lock:
            return {
                "totals": {slot: list(value) for slot, value in self.totals.items()},
                "covered": self.covered,
            }


def delta(after: dict, before: dict) -> dict:
    """Per-slot ``[seconds, calls]`` difference of two :meth:`Probes.snapshot` s."""
    out = {}
    for slot, (seconds, calls) in after["totals"].items():
        base = before["totals"].get(slot, [0.0, 0])
        out[slot] = [seconds - base[0], calls - base[1]]
    return out
