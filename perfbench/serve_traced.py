"""``python -m repro serve`` with the benchmark's span recorder installed.

    python3 perfbench/serve_traced.py SPAN_DIR serve [serve flags...]

Used by the traced serve-mixed run only.  The layer wrappers are installed
before the daemon forks its workers, so every worker inherits them; each
process writes its per-layer totals to ``SPAN_DIR/spans-<pid>.json`` after
every request it executes.
"""

from __future__ import annotations

import sys
from pathlib import Path

from common import ensure_src_on_path

ensure_src_on_path()

import spans  # noqa: E402


def main() -> int:
    tracer = spans.Tracer()
    spans.instrument(tracer)
    spans.install_dumper(tracer, Path(sys.argv[1]))
    from repro.__main__ import main as repro_main

    return repro_main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
