"""The repository benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload valmod_ecg --seed 0 --seconds 20 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json``; the
workloads themselves live in ``perfbench/workloads.py``.  This script

1. checks that it runs inside a checkout of the package (``src/repro``),
   and exits with status 2 without a result otherwise;
2. compiles the native kernel into ``perfbench/.native_cache`` -- the
   one-time compile stays off every set-up clock;
3. runs ``driver.py`` in a fresh process (its own process group) with a
   fresh work directory under ``perfbench/.work``;
4. after the driver has exited, kills anything left in its process group
   and waits until the group is empty, removes the work directory, and
   notes in the report any new shared-memory segment left in ``/dev/shm``;
5. prints the driver's report line and, last, its result line.

Every file the benchmark writes stays under ``perfbench/`` (plus the
package's own ``/dev/shm`` segments while ops run).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("valmod_ecg", "stomp_parallel", "service_warm", "service_cold")
DRIVER_TIMEOUT_SECONDS = 170
SHM_DIR = "/dev/shm"


def _shm_segments() -> set:
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}
    except OSError:
        return set()


def _environment() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_NATIVE_CACHE"] = os.path.join(HERE, ".native_cache")
    return env


def _end_group(pgid: int) -> None:
    """SIGKILL whatever is left of a process group and wait until it is gone."""
    deadline = time.monotonic() + 10.0
    sig = signal.SIGKILL
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        sig = 0
        time.sleep(0.01)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no package source under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    env = _environment()
    compiled = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.matrix_profile import kernels; print(kernels.available_kernels())",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    if compiled.returncode != 0:
        print(f"error: cannot import the package:\n{compiled.stderr}", file=sys.stderr)
        return 2

    work_parent = os.path.join(HERE, ".work")
    os.makedirs(work_parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent)
    shm_before = _shm_segments()
    command = [
        sys.executable,
        os.path.join(HERE, "driver.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    driver = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        output, _ = driver.communicate(timeout=DRIVER_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        driver.kill()
        driver.communicate()
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    finally:
        _end_group(driver.pid)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_parent)
        except OSError:
            pass

    lines = [line for line in output.splitlines() if line.strip()]
    if driver.returncode != 0 or not lines:
        print(f"error: the workload exited with status {driver.returncode}", file=sys.stderr)
        return 1
    # Segment names do not say who made them, so a new one is reported,
    # not failed: another process on the machine may own it.
    leaked = sorted(_shm_segments() - shm_before)
    if leaked:
        print(f"warning: new shared-memory segments: {leaked}", file=sys.stderr)
    for line in lines[:-1]:
        document = json.loads(line)
        if "report" in document:
            document["report"]["shm_left_behind"] = leaked
        print(json.dumps(document))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
