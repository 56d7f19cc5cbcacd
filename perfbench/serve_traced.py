"""Run ``repro serve`` with the benchmark's timing probes installed.

Usage: ``python serve_traced.py --totals PATH serve [repro serve options]``.

The probes are patched onto the server's layer entry points before the
stock CLI entry starts the service (``repro serve`` calls
``repro.service.server.serve_forever``).  SIGUSR1 writes the totals so far
to ``PATH.snapshot``; when the service shuts down (SIGINT) the final
totals go to ``PATH``.  Both files are written whole and then renamed, so
a reader never sees half a document.
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from probes import Probes, process_probes  # noqa: E402


def _write(path: str, document: dict) -> None:
    scratch = f"{path}.{os.getpid()}.tmp"
    with open(scratch, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    os.replace(scratch, path)


def main(argv: list) -> int:
    if len(argv) < 3 or argv[0] != "--totals":
        print("usage: serve_traced.py --totals PATH serve [options]", file=sys.stderr)
        return 2
    totals_path, serve_argv = argv[1], argv[2:]

    from repro.cli import main as cli_main

    probes = Probes().install(process_probes())
    signal.signal(
        signal.SIGUSR1,
        lambda *_: _write(totals_path + ".snapshot", probes.snapshot()),
    )
    try:
        return cli_main(serve_argv)
    finally:
        probes.uninstall()
        _write(totals_path, probes.snapshot())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
