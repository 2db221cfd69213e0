"""Start ``python -m repro serve`` with layer spans recorded.

    python3 perfbench/serve_launcher.py SPANS.jsonl serve --port 0 ...

Installs the same wrappers as traced rounds (``tracing.install``), runs the
program's own CLI entry point with the remaining arguments, and writes the
spans as JSONL once the server has shut down (SIGINT drains it).
"""

from __future__ import annotations

import sys

import tracing


def main(argv) -> int:
    from repro.cli import main as cli_main

    recorder = tracing.Recorder()
    tracing.install(recorder)
    try:
        return cli_main(argv[1:])
    finally:
        recorder.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
