"""Server processes for the service workloads.

Untraced runs talk to the stock ``repro serve --data-dir <fresh dir>``;
the traced side talks to ``serve_traced.py``, which installs the timing
probes and then runs the same ``repro serve`` entry point.  Both run in
their own process with the default thread workers, on the CPU the
benchmark process keeps to (a child inherits its affinity), write their
logs into the run's work directory, and are stopped with SIGINT (the path
that runs the service's own shutdown) after the client has closed its
connection.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_LAUNCHER = os.path.join(_HERE, "serve_traced.py")
_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")

START_TIMEOUT_SECONDS = 60.0
STOP_TIMEOUT_SECONDS = 20.0


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


class ServerProcess:
    """One service process over a fresh data directory."""

    def __init__(self, workdir: str, *, traced: bool = False) -> None:
        self.root = tempfile.mkdtemp(prefix="server-", dir=workdir)
        self.data_dir = os.path.join(self.root, "data")
        self.totals_path = os.path.join(self.root, "probe-totals.json")
        self.host = "127.0.0.1"
        self.port: int | None = None
        serve_args = [
            "serve", "--host", self.host, "--port", "0", "--data-dir", self.data_dir,
        ]
        if traced:
            command = [sys.executable, "-u", _LAUNCHER, "--totals", self.totals_path, *serve_args]
        else:
            command = [sys.executable, "-u", "-m", "repro.cli", *serve_args]
        self._stdout_path = os.path.join(self.root, "stdout.log")
        self.stderr_path = os.path.join(self.root, "stderr.log")
        with open(self._stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self.process = subprocess.Popen(
                command, stdout=out, stderr=err, stdin=subprocess.DEVNULL
            )

    def wait_ready(self) -> None:
        """Block until the server printed its port and ``/health`` answers."""
        from repro.service import ServiceClient

        deadline = time.monotonic() + START_TIMEOUT_SECONDS
        while self.port is None:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited early: {self._tail(self.stderr_path)}")
            if time.monotonic() > deadline:
                raise RuntimeError("server did not report its port in time")
            with open(self._stdout_path, encoding="utf-8", errors="replace") as out:
                match = _LISTENING.search(out.read())
            if match:
                self.port = int(match.group(2))
            else:
                time.sleep(0.01)
        client = ServiceClient(self.host, self.port)
        try:
            while True:
                try:
                    if client.health().get("status") == "ok":
                        return
                except Exception:  # noqa: BLE001 - not listening yet
                    if time.monotonic() > deadline:
                        raise
                time.sleep(0.01)
        finally:
            client.close()

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.process.pid)

    def snapshot_probes(self) -> dict:
        """Ask the traced launcher for its probe totals so far."""
        start_path = self.totals_path + ".snapshot"
        if os.path.exists(start_path):
            os.unlink(start_path)
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10.0
        while not os.path.exists(start_path):
            if time.monotonic() > deadline:
                raise RuntimeError("traced server did not write its probe snapshot")
            time.sleep(0.005)
        with open(start_path, encoding="utf-8") as handle:
            return json.load(handle)

    def final_probes(self) -> dict:
        """The launcher's totals, written when it shut down."""
        with open(self.totals_path, encoding="utf-8") as handle:
            return json.load(handle)

    def tracebacks(self) -> int:
        """Tracebacks the server logged (shutdown noise included)."""
        with open(self.stderr_path, encoding="utf-8", errors="replace") as err:
            return err.read().count("Traceback (most recent call last)")

    def stop(self) -> None:
        """SIGINT, wait, and SIGKILL only if the shutdown hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_SECONDS)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    @staticmethod
    def _tail(path: str) -> str:
        with open(path, encoding="utf-8", errors="replace") as handle:
            return handle.read()[-2000:]
