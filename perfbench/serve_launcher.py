"""Start ``python -m repro.serve`` with the benchmark's layer wrappers
installed, for the traced run of the served workload.

Usage: ``python3 perfbench/serve_launcher.py SPANS_DIR serve DB [options]``

The wrappers are installed before the server opens its table, so the
shard workers it forks inherit them.  The server writes its spans to
``SPANS_DIR/server-<pid>.spans`` when it shuts down, and every worker
writes ``SPANS_DIR/worker-<pid>.spans`` when it exits.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import require_source  # noqa: E402
from layers import SpanLog, install  # noqa: E402


def main() -> int:
    require_source()
    spans_dir, argv = sys.argv[1], sys.argv[2:]
    log = SpanLog()
    install(log)
    import repro.shard.sharded as sharded
    from repro.serve.__main__ import main as serve_main

    worker_main = sharded.worker_main

    def traced_worker_main(*args):
        log.reset()  # the forked worker keeps only its own spans
        try:
            worker_main(*args)
        finally:
            log.dump(os.path.join(spans_dir, f"worker-{os.getpid()}.spans"))

    sharded.worker_main = traced_worker_main
    try:
        return serve_main(argv)
    finally:
        log.dump(os.path.join(spans_dir, f"server-{os.getpid()}.spans"))


if __name__ == "__main__":
    raise SystemExit(main())
