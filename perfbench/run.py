"""The repository's benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``BENCHMARK.json`` for why
each exists and which layer metrics it should move):

- ``serve_uniform``: ``repro.cli serve`` over a 20k x 64 single-file
  index, every query a fresh Gaussian vector (all cache misses); a closed
  loop on ``nproc`` keep-alive connections (``qps``), split around an
  open loop at a fixed 150 q/s (``p50_ms``).
- ``offline_200k``: in process, no HTTP: build a 200k x 64, 4-shard
  layout (``add_batch`` -> ``save_index`` -> ``open_index(mmap=True)``),
  then ``query_many`` in batches of 32.
- ``ingest_tabbin``: train the bench-scale TabBiN, then
  ``ColumnIndex.build`` over a seeded 400-table webtables corpus, save,
  reopen, and query every column against the rest.

Servers and the load generator always run in their own processes, each
with one BLAS thread, pinned to separate CPUs.  Rankings are checked before anything is timed
(served against offline ``query_many``, offline against a benchmark-side
reference) and every timed answer is checked afterwards; a run with any
mismatch reports failures and no numbers.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload once untraced and once with spans around every layer's public
calls, and prints the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # Pin BLAS threads before numpy loads; children inherit the pin.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import (BLAS_ENV, PROGRAM_CPUS, BenchError,
                                  environment)

    os.environ.update(BLAS_ENV)
    os.sched_setaffinity(0, PROGRAM_CPUS)
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds,
                                           bool(args.trace), workdir)
    except BenchError as error:
        print(f"invalid run: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()

    print("environment: " + json.dumps(environment()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + json.dumps(outcome.notes))
    error_share = outcome.failed / max(outcome.attempted, 1)
    print(f"  {'error_share':<40} {error_share:>14.6f} ratio "
          f"({outcome.failed} failed of {outcome.attempted})")
    correct = outcome.failed == 0
    metrics = {}
    if correct:
        missing = {m["name"] for m in wanted} - set(outcome.metrics)
        if missing:
            raise RuntimeError(f"workload did not report {sorted(missing)}")
        for metric in wanted:
            value = float(outcome.metrics[metric["name"]])
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"  {metric['name']:<40} {value:>14.6f} {metric['unit']}")
    else:
        print("  rankings differ from the reference: no timings reported")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
