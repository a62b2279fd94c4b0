"""Run ``python -m repro serve ...`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/serve_traced.py SPANS.json serve --tcp 0 ...``

Every argument after the spans path goes to the repo's own ``repro`` entry
point unchanged.  Each ``handle_line`` call starts a new request id, so the
spans of one server op share it.  When the server shuts down, the spans and
their counts are written to ``SPANS.json`` and every wrapper is removed.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from repro.__main__ import main as repro_main  # noqa: E402
from repro.service import SessionRegistry  # noqa: E402

from tracing import SpanRecorder, installed  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, repro_argv = Path(argv[0]), argv[1:]
    recorder = SpanRecorder()
    requests = itertools.count()
    with installed(recorder):
        traced_handle_line = SessionRegistry.handle_line

        def handle_line(self: SessionRegistry, line: str) -> str:
            recorder.set_request(next(requests))
            return traced_handle_line(self, line)

        SessionRegistry.handle_line = handle_line
        try:
            code = repro_main(repro_argv)
        finally:
            SessionRegistry.handle_line = traced_handle_line
    spans = [
        [s.name, s.fn, s.start, s.end, s.parent, s.request, s.counts]
        for s in recorder.spans()
    ]
    spans_path.write_text(json.dumps(spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
