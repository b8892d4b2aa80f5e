"""Serve exactly as ``python -m repro.cli serve`` does, with spans on.

    python -m perfbench.traced_serve SPANS.npz serve PATH --port 0

Installs the benchmark's span wrappers (:func:`perfbench.tracing.install`),
then hands the remaining arguments to :func:`repro.cli.main`.  When the
server has drained (SIGTERM) the spans recorded in memory are written to
``SPANS.npz`` in one go.
"""

from __future__ import annotations

import sys

from perfbench import tracing


def main(argv: list[str]) -> int:
    from repro import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(argv[1:])
    finally:
        tracer.save(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
