"""Start ``python -m repro serve`` with server-side span recording.

Usage (from the repository root, with ``src`` and ``perfbench`` on
``PYTHONPATH``)::

    python3 perfbench/serve_launcher.py SPANS.jsonl --port 0 --artifacts-root DIR

Everything after the spans path goes to the serve CLI unchanged.  The spans
are written once the server has drained after SIGTERM.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv) -> int:
    from spans import SpanRecorder, install_server

    recorder = SpanRecorder()
    install_server(recorder)
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(argv[1:])
    finally:
        recorder.write(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
