"""Tests of the benchmark itself: its contract file, its probes, and that
a wrong reference turns ops into counted failures.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import driver  # noqa: E402
import probes as probes_module  # noqa: E402
import speed  # noqa: E402
from probes import Probe, Probes  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    ServiceCold,
    ServiceWarm,
    StompParallel,
    ValmodEcg,
    motif_tables_match,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _shm() -> set:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


# ---------------------------------------------------------------------- #
# the contract file
# ---------------------------------------------------------------------- #
def test_benchmark_json_matches_the_workload_registry():
    doc = _benchmark()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert doc["paths"] == ["perfbench"]
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for entry in doc["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + [
        w["name"] for w in doc["workloads"]
    ]
    assert len(names) == len(set(names))
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")


def test_traced_metrics_are_exactly_the_declared_per_layer_metrics():
    record = {
        "index": 0, "traced": True, "seconds": 0.01, "ok": True, "error": None,
        "probes": {}, "covered": 0.0, "cache_source": "computed",
        "obs": {"sweep_rows": 0, "blocks": 0, "sweep_seconds": 0.0},
    }
    plain = {"index": 0, "traced": False, "seconds": 0.01, "ok": True, "error": None}
    for cls in WORKLOADS.values():
        metrics = driver.layer_metrics(cls(0, "."), [plain, record], {}, {})
        assert set(metrics) == set(driver.declared_units("per_layer"))


# ---------------------------------------------------------------------- #
# probes
# ---------------------------------------------------------------------- #
class _Target:
    def outer(self, depth):
        return self.outer(depth - 1) if depth else self.inner()

    def inner(self):
        return "done"

    @classmethod
    def build(cls):
        return cls()


def test_probes_time_calls_once_per_slot_and_restore_the_originals():
    originals = dict(vars(_Target))
    owner = f"{__name__}:_Target"
    with Probes().install(
        [Probe("t.outer", owner, "outer"), Probe("t.inner", owner, "inner"),
         Probe("t.build", owner, "build")]
    ) as probes:
        assert isinstance(_Target.build(), _Target)
        assert _Target().outer(3) == "done"
        snapshot = probes.snapshot()
    totals = snapshot["totals"]
    # The re-entrant outer() calls count once; inner() nests inside it.
    assert totals["t.outer"][1] == 1 and totals["t.inner"][1] == 1
    assert totals["t.build"][1] == 1
    # Coverage counts outermost calls only: outer() and build(), not inner().
    assert snapshot["covered"] == pytest.approx(totals["t.outer"][0] + totals["t.build"][0])
    assert dict(vars(_Target)) == originals


def test_every_declared_probe_target_exists():
    for probe in probes_module.process_probes() + probes_module.client_probes():
        owner = probes_module.resolve_owner(probe.owner)
        assert probe.attr in vars(owner), (probe.owner, probe.attr)


# ---------------------------------------------------------------------- #
# a wrong reference turns ops into failures
# ---------------------------------------------------------------------- #
class _TinyValmod(ValmodEcg):
    length = 600
    min_length = 40
    max_length = 44


class _WrongReferenceValmod(_TinyValmod):
    def reference(self, series):
        from repro.harness.workloads import build_workload

        # Another series' motifs: offsets cannot all match.
        return super().reference(build_workload("ecg", self.length, random_state=12345))


def test_motif_tables_match_rejects_moved_offsets_and_distances():
    table = {40: [(1, 100, 0.5), (7, 300, 0.7)]}
    assert motif_tables_match(table, {40: [(1, 100, 0.5 + 1e-12), (7, 300, 0.7)]})
    assert not motif_tables_match(table, {40: [(1, 101, 0.5), (7, 300, 0.7)]})
    assert not motif_tables_match(table, {40: [(1, 100, 0.5 + 1e-6), (7, 300, 0.7)]})
    assert not motif_tables_match(table, {41: table[40]})


@pytest.mark.parametrize(
    "workload_cls, expect_failures", [(_TinyValmod, False), (_WrongReferenceValmod, True)]
)
def test_valmod_ops_fail_exactly_when_the_reference_disagrees(
    workload_cls, expect_failures, tmp_path
):
    report, result = driver.run_workload(workload_cls, 3, 0.0, False, str(tmp_path))
    assert result["attempted"] == driver.MIN_OPS
    if expect_failures:
        assert result["failed"] == result["attempted"] and not result["correct"]
        assert report["late_failures"] == result["attempted"]
    else:
        assert result["failed"] == 0 and result["correct"]
    assert set(result["metrics"]) == set(driver.declared_units("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_times_are_scaled_by_the_speed_probe(monkeypatch, tmp_path):
    assert speed.factor(speed.REFERENCE_SECONDS, speed.REFERENCE_SECONDS) == 1.0
    assert speed.probe() > 0
    # A machine on which every probe takes twice the reference time runs
    # everything at half speed: the reported times are half the wall times.
    monkeypatch.setattr(speed, "probe", lambda repeats=1: 2 * speed.REFERENCE_SECONDS)
    report, result = driver.run_workload(_TinyValmod, 3, 0.0, False, str(tmp_path))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    wall = report["wall_clock"]
    assert metrics["op_p50_ms"] == pytest.approx(wall["op_p50_ms"] / 2)
    assert metrics["ops_per_s"] == pytest.approx(wall["ops_per_s"] * 2)
    assert metrics["setup_s"] == pytest.approx(wall["setup_s"] / 2)


def test_a_run_gives_back_the_cpus_it_kept_to(tmp_path):
    before = os.sched_getaffinity(0)
    driver.run_workload(_TinyValmod, 3, 0.0, False, str(tmp_path))
    assert os.sched_getaffinity(0) == before


def test_traced_valmod_run_reports_the_core_split(tmp_path):
    _, result = driver.run_workload(_TinyValmod, 3, 0.0, True, str(tmp_path))
    assert result["correct"] and result["attempted"] == 2 * driver.MIN_OPS
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["core.base_pass_ms"] > 0 and metrics["core.evaluate_ms"] > 0
    assert metrics["core.ingest_ms"] > 0 and metrics["matrix_profile.sweep_rows"] > 0
    assert metrics["core.speedup_vs_stomp_range"] > 0
    assert 0 < metrics["core.pruning_power"] <= 1
    assert metrics["engine.call_ms"] == 0 and metrics["service.total_ms"] == 0


class _TinyParallel(StompParallel):
    length = 3000
    window = 64


def test_parallel_check_rejects_a_moved_reference_and_leaves_no_segment(tmp_path):
    before = _shm()
    workload = _TinyParallel(5, str(tmp_path))
    try:
        workload.setup()
        reply = workload.op(None, False)
        assert workload.check(0, None, reply, False)
        row = next(iter(workload.references))
        workload.references[row] = workload.references[row] + 1e-3
        assert not workload.check(0, None, reply, False)
    finally:
        workload.teardown()
    assert _shm() <= before


def _profile_result(window: int):
    import repro
    from repro.harness.workloads import build_workload

    series = build_workload("random-walk", 700, random_state=4)
    return series, repro.analyze(series).matrix_profile(window)


def test_warm_check_demands_a_cache_hit_equal_to_the_setup_reply(tmp_path):
    workload = ServiceWarm(0, str(tmp_path))
    _, result = _profile_result(32)
    profile = result.value
    workload.references = {
        (False, 0): (profile.distances.tobytes(), profile.indices.tobytes(), result.params)
    }
    assert workload.check(0, 0, (result, "memory"), False)
    assert not workload.check(0, 0, (result, "computed"), False)
    moved = profile.distances.copy()
    moved[3] = np.nextafter(moved[3], np.inf)
    workload.references[(False, 0)] = (moved.tobytes(), profile.indices.tobytes(), result.params)
    assert not workload.check(0, 0, (result, "memory"), False)


def test_cold_verify_flags_a_reply_that_differs_from_stomp(tmp_path):
    class _TinyCold(ServiceCold):
        length = 700
        window = 32

        def series(self, index):
            return _profile_result(self.window)[0]

    workload = _TinyCold(0, str(tmp_path))
    _, result = _profile_result(32)
    assert not workload.check(0, None, (result, "memory"), False)
    assert workload.check(1, None, (result, "computed"), False)
    assert workload.verify() == set()
    moved = result.value.indices.copy()
    moved[5] = (moved[5] + 1) % moved.size
    wrong = SimpleNamespace(value=SimpleNamespace(distances=result.value.distances, indices=moved))
    assert workload.check(2, None, (wrong, "computed"), False)
    assert workload.verify() == {(2, False)}


# ---------------------------------------------------------------------- #
# the command itself
# ---------------------------------------------------------------------- #
def _command(cwd: str, *args: str, timeout: float = 170):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout, check=False,
    )


def test_run_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    done = _command(str(tmp_path), "--workload", "valmod_ecg", "--seed", "0", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _work_entries() -> set:
    try:
        return set(os.listdir(os.path.join(HERE, ".work")))
    except FileNotFoundError:
        return set()


def _benchmark_servers() -> set:
    """Pids of live ``repro serve`` processes over a benchmark work dir."""
    pids = set()
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                argv = handle.read().split(b"\0")
        except OSError:
            continue
        if b"serve" in argv and any(b"perfbench/.work" in arg for arg in argv):
            pids.add(pid)
    return pids


def test_service_run_is_correct_and_leaves_nothing_behind():
    shm, work, servers = _shm(), _work_entries(), _benchmark_servers()
    done = _command(
        ROOT, "--workload", "service_cold", "--seed", "1", "--seconds", "0.2", "--trace", "0"
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert report["server_tracebacks"] == 0 and report["shm_left_behind"] == []
    assert _work_entries() <= work
    assert _shm() <= shm
    assert _benchmark_servers() <= servers
