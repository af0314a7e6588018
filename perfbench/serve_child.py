"""``repro serve`` with every layer's entry point timed, for traced runs.

Usage::

    python3 perfbench/serve_child.py SPANS_OUT serve --port 0 [...]

Installs the same timers as the benchmark process (see layers.py),
tags each worker thread's spans with the request's trace id, runs the
CLI until SIGINT, then writes the spans, counts and translation-cache
statistics to SPANS_OUT.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import repro.cli
    import repro.serve.server  # noqa: F401 - loaded so its names get timers

    from layers import Recorder
    from workloads import interp_cache_stats

    recorder = Recorder()
    recorder.install(server=True)
    try:
        return repro.cli.main(argv)
    finally:
        recorder.uninstall()
        for name, value in interp_cache_stats().items():
            recorder.count(name, value)
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
