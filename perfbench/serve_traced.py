"""``repro serve`` with the layer wrappers of ``layers.py`` installed.

The traced pass of the service-grid workload starts the server through
this file instead of ``python -m repro.cli``, so the server runs in its
own process exactly as in the untraced pass.  When the server stops
(SIGINT, as for ``repro serve``), its spans and counters are written to
SPANS for the client to merge::

    PYTHONPATH=src python3 perfbench/serve_traced.py SPANS serve --results DIR --port 0
"""

from __future__ import annotations

import sys
from typing import List, Optional

import layers


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spans_path, serve_args = argv[0], argv[1:]
    from repro import cli

    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        return cli.main(serve_args)
    finally:
        tracer.restore()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
