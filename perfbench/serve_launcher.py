"""Start ``repro.cli`` inside the daemon process, optionally traced.

Usage: ``python serve_launcher.py SPANS_OUT CLI_ARGS...``. With
``SPANS_OUT`` set to ``-`` this is exactly ``python -m repro.cli
CLI_ARGS...``. Otherwise the per-layer wrappers of :mod:`tracing` are
installed in this process first, and the recorded spans are written to
``SPANS_OUT`` as JSON once the daemon has drained and returned. A request
to ``RESET_PATH`` (an unknown route, answered 400 as usual) first drops
what was recorded so far, so the spans cover the timed job and not the
daemon's set-up.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

RESET_PATH = "/perfbench/reset"


def main(argv) -> int:
    from repro import cli

    spans_out, cli_args = argv[0], argv[1:]
    if spans_out == "-":
        return cli.main(cli_args)
    from repro.serve.app import ServeApp
    from tracing import SpanRecorder, installed

    recorder = SpanRecorder()
    handle = ServeApp.handle

    async def handle_or_reset(app, request):
        if request.path == RESET_PATH:
            recorder.reset()
        return await handle(app, request)

    ServeApp.handle = handle_or_reset
    try:
        with installed(recorder):
            code = cli.main(cli_args)
    finally:
        ServeApp.handle = handle
    Path(spans_out).write_text(json.dumps(recorder.to_dict()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
