"""The workloads: ``serve_uniform``, ``offline_200k`` and ``ingest_tabbin``.

Each workload function takes ``(seed, seconds, trace, workdir)`` and
returns an :class:`Outcome`: operations attempted and failed, and the
metrics of the requested mode.  A run sets up (several times when
untraced, reporting the median), passes the correctness gate, then
measures for ``seconds`` with tracing off.  A traced run (``trace``)
then measures the same way a second time with spans on: per-layer
metrics come from that second measurement, the tracing overhead from
comparing the two, and the ungated ``p99_ms`` from the first.

Time is noisy on a small shared VM over spans of seconds, so throughput
is reported as a median over short windows (or batches), not as one
total over the whole run, and timed samples (builds, closed-loop
halves, query slices) are spread over the run.

Sizes and rates were chosen on a 2-CPU box.  The open-loop rate is a
constant, about half of what the closed loop reached there, so a later
change is measured at the same offered load as its parent.

``rss_mb`` is the peak RSS of the program alone: the server process's
for ``serve_uniform``; for the in-process workloads, this process's peak
over the measured phases only, restarted (:func:`reset_peak_rss`) once
set-up and the reference rankings are done and freed.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tracing
from .common import (CONNECTIONS, BenchError, Client, Server, get_json,
                     median, on_cpu, peak_rss_mb, percentile, reset_peak_rss,
                     run_loadgen)
from .reference import Reference, hits_of, recall, served_hits

K = 10
DIM = 64
BATCH = 32
SETUP_REPS = 3

SERVE_VECTORS = 20_000
#: Builds of the served index per run.  The first ``SETUP_REPS`` are part
#: of set-up, in a fresh heap; ``build_vectors_per_s`` is the median of
#: the others (a build takes a fifth of a second, and single builds
#: spread by a third within a minute, so it takes many).
SERVE_BUILDS = 19
#: Fresh queries for the closed loop of ``serve_uniform``; the loop ends
#: early rather than repeat one (a repeat would be a cache hit).
FRESH_POOL = 32_768
OPEN_RATE = 150.0
#: Share of ``--seconds`` given to the closed loop (in two halves); the
#: open loop gets the rest (at 150 q/s and 20 s, 1800 samples: more than
#: ten beyond p99).
CLOSED_SHARE = 0.4
#: Closed-loop throughput is the median over windows of this length.
QPS_WINDOW_S = 0.5
GATE_QUERIES = 64
#: The load generator fell behind, and its load is invalid, when it sent
#: a tenth of its open-loop requests later than this after their due
#: time.  (A rare stall of the whole VM delays a few requests by tens of
#: milliseconds; that shows in ``loadgen.lag_p99_ms``.)
MAX_LAG_P90_S = 0.002
#: An invalid load is discarded and made again, on a freshly booted
#: server; the run is invalid when this many loads were.
LOAD_ATTEMPTS = 3

OFFLINE_VECTORS = 200_000
OFFLINE_SHARDS = 4
OFFLINE_POOL = 512
#: A 200k build takes 2-3 s on a 2-CPU box and single builds spread by a
#: third within a minute, so ``build_vectors_per_s`` needs a median over
#: many of them; query slices between them get ``OFFLINE_QUERY_SHARE`` of
#: ``--seconds`` in all.
OFFLINE_BUILDS = 8
OFFLINE_QUERY_SHARE = 0.5

INGEST_TABLES = 400
#: Training the encoder dominates ``ingest_tabbin`` set-up (about 9 s).
INGEST_SETUP_REPS = 2
INGEST_MIN_BUILDS = 2

#: recall@10 is measured on this many queries (ingest: every column).
SERVE_RECALL_QUERIES = 1024
OFFLINE_RECALL_QUERIES = 384

#: Per-layer metrics of layers that only some workloads exercise; the
#: others report them as 0 (the layer did no work).
SERVING_LAYERS = (
    "serve.protocol.parse_us", "serve.protocol.encode_us",
    "serve.server.self_us", "serve.dispatcher.queue_wait_us",
    "serve.dispatcher.batch_size_mean", "serve.dispatcher.rejected",
    "cache.lookup_us", "cache.exact_hit_share", "cache.semantic_hit_share",
    "cache.miss_share", "cache.evictions", "loadgen.lag_p99_ms")
ENCODING_LAYERS = (
    "index.store.encode_s", "index.store.sequences_per_batch",
    "core.embedder.assemble_us_per_column")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def check(self, got: list[list[tuple]], want: list[list[tuple]]) -> None:
        """Count each ranking as one operation, failed unless equal."""
        self.attempted += len(want)
        self.failed += sum(a != b for a, b in zip(got, want, strict=True))


def _idle(*groups: tuple[str, ...]) -> dict[str, float]:
    return {name: 0.0 for group in groups for name in group}


def _keys(n: int) -> list[str]:
    return [f"v{i:07d}" for i in range(n)]


def _batched_query(index, queries: np.ndarray, excludes=None) -> list:
    out = []
    for lo in range(0, len(queries), BATCH):
        part = None if excludes is None else excludes[lo:lo + BATCH]
        out.extend(hits_of(hits) for hits in
                   index.query_many(queries[lo:lo + BATCH], k=K,
                                    excludes=part))
    return out


@contextlib.contextmanager
def _traced(tracer: tracing.Tracer | None):
    """Spans on for the body when a tracer is given."""
    if tracer is None:
        yield
        return
    patches = tracing.install(tracer)
    try:
        yield
    finally:
        patches.undo()


def _fresh(path: Path) -> None:
    """Delete the layout a previous build left at ``path``.  Its dirty
    pages are then dropped instead of written back to disk in the middle
    of a later timing; an index still mapping it keeps its (unlinked)
    pages."""
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)


def _timed_build(make, target: Path, step: int, tracer=None):
    """``make()`` an index, ``save_index`` it to ``target`` and reopen it
    with ``open_index(mmap=True)``, on CPU ``step``; returns the opened
    index and the time of the whole build and of its save and open."""
    from repro.index import open_index, save_index

    _fresh(target)
    with on_cpu(step), _traced(tracer):
        start = time.perf_counter()
        built = make()
        saving = time.perf_counter()
        path = save_index(built, target)
        del built
        opening = time.perf_counter()
        index = open_index(path, mmap=True)
        done = time.perf_counter()
    return index, {"build": done - start, "save": opening - saving,
                   "open": done - opening}


def _timed_setup(reps: int, setup) -> tuple[list[float], object]:
    """Run ``setup`` ``reps`` times; returns the times and the last
    result."""
    times, result = [], None
    for rep in range(reps):
        result = None  # one rep's inputs at a time
        start = time.perf_counter()
        result = setup(rep)
        times.append(time.perf_counter() - start)
    return times, result


# ----------------------------------------------------------------------
# serve_uniform
# ----------------------------------------------------------------------
class _Served:
    """Inputs, the served layout and the server of one served run."""

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir
        self.server: Server | None = None
        self.builds: list[dict] = []
        #: Loads in which the generator fell behind; their answers are
        #: still checked.
        self.discarded: list[dict] = []

    def set_up(self, rep: int) -> None:
        """Inputs, index build and server boot to the first ``/healthz``
        200."""
        rng = np.random.default_rng(self.seed)
        self.vectors = rng.standard_normal((SERVE_VECTORS, DIM))
        self.gate = rng.standard_normal((GATE_QUERIES, DIM))
        self.pool = rng.standard_normal((FRESH_POOL + int(OPEN_RATE * 60),
                                         DIM))
        self.pool_path = self.workdir / "pool.npy"
        np.save(self.pool_path, self.pool)
        self.path = self.build(rep)
        self.boot("repro.cli", [])

    def build(self, rep: int, tracer=None) -> Path:
        """add_batch, save, open (mmap): the served layout as the server
        will open it.  Keeps the opened index for offline answers."""
        from repro.index import VectorIndex

        def make():
            index = VectorIndex(dim=DIM, seed=0)
            index.add_batch(_keys(len(self.vectors)), self.vectors)
            return index

        target = self.workdir / ("serve.npz" if rep < SETUP_REPS
                                 else "serve-extra.npz")
        self.index, times = _timed_build(make, target, rep, tracer)
        self.builds.append(times)
        return target

    def boot(self, module: str, prefix: list[str]) -> None:
        self.command = (module, prefix)
        self.server = Server(module, [*prefix, "serve", str(self.path),
                                      "--port", "0"],
                             self.workdir / f"{module}.log")
        self.server.wait_ready()

    def post(self, queries: np.ndarray) -> list[tuple[int, dict]]:
        client = Client(self.server.port)
        try:
            return [client.query(vector, K) for vector in queries]
        finally:
            client.close()

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def gate_check(self, outcome: Outcome) -> None:
        """Served rankings of the gate queries must equal offline
        ``query_many``."""
        want = _batched_query(self.index, self.gate)
        outcome.check([served_hits(body) if status == 200 else None
                       for status, body in self.post(self.gate)], want)

    def load(self, seconds: float) -> dict:
        """A load in which the generator kept to its schedule.  One in
        which it fell behind is discarded and made again on a rebooted
        server (whose cache is empty again), at most ``LOAD_ATTEMPTS``
        times."""
        for attempt in range(LOAD_ATTEMPTS):
            if attempt:
                self.stop()
                self.boot(*self.command)
            load = self._load_once(seconds)
            lag = _lag(load, 0.90)
            if lag <= MAX_LAG_P90_S:
                return load
            self.discarded.append(load)
        raise BenchError(f"load generator fell behind in {LOAD_ATTEMPTS} "
                         f"loads: p90 lag {self.discarded_lags()} ms > "
                         f"{MAX_LAG_P90_S * 1e3:.1f} ms")

    def discarded_lags(self) -> list[float]:
        return [round(_lag(load, 0.90) * 1e3, 3) for load in self.discarded]

    def _load_once(self, seconds: float) -> dict:
        """One load-generator run (closed, open, closed) with the
        server's cache counters read before and after."""
        spec = {"host": "127.0.0.1", "port": self.server.port,
                "pool": str(self.pool_path), "k": K, "split": FRESH_POOL,
                "connections": CONNECTIONS,
                "closed_seconds": seconds * CLOSED_SHARE,
                "open_seconds": seconds * (1 - CLOSED_SHARE),
                "rate": OPEN_RATE}
        before = _cache_counters(self.server.port)
        load = run_loadgen(spec, self.workdir, "load")
        after = _cache_counters(self.server.port)
        load["counters"] = {key: after[key] - before[key] for key in after}
        load["rss_mb"] = peak_rss_mb(self.server.process.pid)
        load["rows"] = load["closed"]["rows"] + load["open"]["rows"]
        if load["exhausted"]:
            raise BenchError("the closed loop used up its query pool")
        return load

    def verify(self, load: dict, outcome: Outcome) -> None:
        """Every answer of the load must be a 200 carrying the offline
        ranking of its query."""
        used = sorted({row[0] for row in load["rows"]})
        want = dict(zip(used, _batched_query(self.index, self.pool[used])))
        wrong = {int(qid) for qid, bodies in load["bodies"].items()
                 if any(served_hits(json.loads(body)) != want[int(qid)]
                        for body in bodies)}
        outcome.attempted += len(load["rows"])
        outcome.failed += sum(row[1] != 200 or row[0] in wrong
                              for row in load["rows"])
        load["want"] = want


def _cache_counters(port: int) -> dict:
    status, stats = get_json(port, "/stats")
    if status != 200:
        raise BenchError(f"/stats answered {status}")
    (slot,) = stats["indexes"].values()
    cache = slot.get("cache", {})
    return {"exact": cache.get("exact_hits", 0),
            "semantic": cache.get("semantic_hits", 0),
            "miss": cache.get("misses", 0),
            "bypass": cache.get("bypassed", 0),
            "evictions": cache.get("evictions", 0),
            "batches": stats["batch"]["dispatched"],
            "rejected": stats["dispatcher"]["rejected"]}


def _lag(load: dict, q: float = 0.99) -> float:
    """A percentile of the generator's lag (s): send time minus due
    time."""
    return percentile([sent - due for _q, _s, due, sent, _d
                       in load["open"]["rows"]], q)


def _open_latencies(load: dict) -> list[float]:
    """Open-loop latencies (s), from each request's due time."""
    return [done - due for _q, _s, due, _sent, done in load["open"]["rows"]]


def _closed_qps(load: dict) -> float:
    """Median over ``QPS_WINDOW_S`` windows of answered requests per
    second in the closed loop's segments."""
    done = np.array([row[4] for row in load["closed"]["rows"]
                     if row[1] == 200])
    counts = []
    for segment in load["closed"]["segments"]:
        edges = np.arange(segment["start"], segment["end"], QPS_WINDOW_S)
        if len(edges) < 2:
            edges = np.array([segment["start"], segment["end"]])
        counts.extend(np.histogram(done, edges)[0] / np.diff(edges))
    return median(counts)


def serve(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    run = _Served(seed, workdir)
    outcome = Outcome()
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            run.stop()
            start = time.perf_counter()
            run.set_up(rep)
            setup_times.append(time.perf_counter() - start)
        # More builds, before and after the load: samples spread over
        # the run see more of the machine's speed drift.
        extra = range(SETUP_REPS, SERVE_BUILDS)
        for rep in extra[:len(extra) // 2]:
            run.build(rep)
        run.gate_check(outcome)
        if outcome.failed:
            return outcome
        load = run.load(seconds)
        for rep in extra[len(extra) // 2:]:
            run.build(rep)
        if trace:
            build_tracer = tracing.Tracer()
            run.build(SERVE_BUILDS, build_tracer)
            spans_path = workdir / "spans.npz"
            run.stop()
            run.boot("perfbench.traced_serve", [str(spans_path)])
            traced = run.load(seconds)
            run.stop()
    finally:
        run.stop()
    for answered in [load, *run.discarded, *([traced] if trace else [])]:
        run.verify(answered, outcome)
    latencies = _open_latencies(load)
    outcome.notes = {"closed_requests": len(load["closed"]["rows"]),
                     "open_requests": len(load["open"]["rows"]),
                     "generator_lag_p90_ms": _lag(load, 0.90) * 1e3,
                     "generator_lag_p99_ms": _lag(load) * 1e3,
                     "discarded_loads_p90_lag_ms": run.discarded_lags(),
                     "generator_pid": load["pid"],
                     "generator_blas_threads": load["blas_threads"],
                     "build_s": [round(b["build"], 4) for b in run.builds]}
    if outcome.failed:
        return outcome
    if trace:
        outcome.metrics = _served_layers(
            run, traced, tracing.Spans(tracing.load(spans_path),
                                       _window(traced)),
            tracing.Spans(build_tracer.arrays()))
        outcome.metrics["trace.overhead_share"] = \
            1.0 - _closed_qps(traced) / _closed_qps(load)
        outcome.metrics["p99_ms"] = percentile(latencies, 0.99) * 1e3
        return outcome

    used = sorted(load["want"])[:SERVE_RECALL_QUERIES]
    queries, ranked = run.pool[used], [load["want"][q] for q in used]
    build = median([b["build"] for b in run.builds[SETUP_REPS:]])
    outcome.metrics = {
        "setup_s": median(setup_times),
        "qps": _closed_qps(load),
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "rss_mb": load["rss_mb"],
        "build_vectors_per_s": SERVE_VECTORS / build,
        "tables_per_s": SERVE_VECTORS / build,
        "recall_at_10": recall(ranked,
                               Reference(run.index).exact_top(queries, K)),
    }
    return outcome


def _window(load: dict) -> tuple[float, float]:
    return (load["closed"]["segments"][0]["start"],
            max(row[4] for row in load["rows"]))


def _served_layers(run: _Served, load: dict, spans: tracing.Spans,
                   build: tracing.Spans) -> dict:
    delta = load["counters"]
    served = delta["exact"] + delta["semantic"] + delta["miss"] \
        + delta["bypass"]
    requests = spans.count("serve.server")
    per_request = 1e6 / requests if requests else 0.0
    client_us = 1e6 * float(np.mean([done - sent for _q, _s, _d, sent, done
                                     in load["rows"]]))
    parse_us = spans.total("serve.protocol.parse") * per_request
    encode_us = spans.total("serve.protocol.encode") * per_request
    dispatcher_us = spans.total("serve.dispatcher.submit") * per_request
    dispatched = spans.sum_b("serve.dispatcher.queue")
    lookups = spans.count("cache.lookup")
    trace_build = run.builds[-1]
    return dict(
        tracing.index_metrics(spans), **_idle(ENCODING_LAYERS),
        **{
            "serve.protocol.parse_us": parse_us,
            "serve.protocol.encode_us": encode_us,
            "serve.server.self_us":
                client_us - parse_us - encode_us - dispatcher_us,
            "serve.dispatcher.queue_wait_us":
                (spans.sum_a("serve.dispatcher.queue") * 1e6 / dispatched
                 if dispatched else 0.0),
            "serve.dispatcher.batch_size_mean":
                ((delta["miss"] + delta["semantic"]) / delta["batches"]
                 if delta["batches"] else 0.0),
            "serve.dispatcher.rejected": delta["rejected"],
            "cache.lookup_us": (spans.total("cache.lookup") * 1e6 / lookups
                                if lookups else 0.0),
            "cache.exact_hit_share": delta["exact"] / served,
            "cache.semantic_hit_share": delta["semantic"] / served,
            "cache.miss_share": delta["miss"] / served,
            "cache.evictions": delta["evictions"],
            "index.backends.save_s": trace_build["save"],
            "index.backends.open_s": trace_build["open"],
            "retrieval.lsh.insert_us_per_vector":
                tracing.insert_us_per_vector(build),
            "loadgen.lag_p99_ms": _lag(load) * 1e3,
        })


# ----------------------------------------------------------------------
# offline_200k
# ----------------------------------------------------------------------
def offline(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    from repro.index import IndexSpec, ShardedIndex

    def set_up(_rep):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((OFFLINE_VECTORS, DIM)),
                rng.standard_normal((OFFLINE_POOL, DIM)))

    setup_times, (vectors, pool) = _timed_setup(SETUP_REPS, set_up)
    keys = _keys(OFFLINE_VECTORS)
    outcome = Outcome()
    builds: list[dict] = []

    def make():
        built = ShardedIndex.create(IndexSpec(kind="vector", dim=DIM,
                                              seed=0), OFFLINE_SHARDS)
        built.add_batch(keys, vectors)
        return built

    def build(tracer=None):
        index, times = _timed_build(make, workdir / "offline", len(builds),
                                    tracer)
        builds.append(times)
        return index

    # Each query slice takes up the pool where the previous one stopped,
    # so short slices together still cover all of it.
    batches = itertools.count()

    def query_phase(index, budget: float, tracer=None):
        """``query_many`` over the pool in batches for ``budget`` seconds;
        every answer is checked against the reference."""
        latencies = []
        with _traced(tracer):
            start = time.perf_counter()
            while time.perf_counter() - start < budget:
                batch = next(batches)
                lo = (batch * BATCH) % OFFLINE_POOL
                with on_cpu(batch):
                    began = time.perf_counter()
                    hits = index.query_many(pool[lo:lo + BATCH], k=K)
                    latencies.append(time.perf_counter() - began)
                outcome.check([hits_of(h) for h in hits],
                              want[lo:lo + BATCH])
            return latencies, (start, time.perf_counter())

    # Builds alternate with query slices, so both sample the whole run.
    latencies = []
    for rep in range(OFFLINE_BUILDS):
        index = None  # release the previous layout before the next build
        index = build()
        if rep == 0:
            reference = Reference(index)
            want = reference.rank(pool, K)
            outcome.check(_batched_query(index, pool[:GATE_QUERIES]),
                          want[:GATE_QUERIES])
            if outcome.failed:
                return outcome
            recall_at_10 = recall(
                want[:OFFLINE_RECALL_QUERIES],
                reference.exact_top(pool[:OFFLINE_RECALL_QUERIES], K))
            del reference  # it holds this layout's buckets alive
            reset_peak_rss()
        latencies += query_phase(
            index, seconds * OFFLINE_QUERY_SHARE / OFFLINE_BUILDS)[0]
    if outcome.failed:
        return outcome
    outcome.notes = {"build_s": [round(b["build"], 4) for b in builds],
                     "query_batches": len(latencies)}
    if not trace:
        build_s = median([b["build"] for b in builds])
        outcome.metrics = {
            "setup_s": median(setup_times),
            "qps": BATCH / median(latencies),
            "p50_ms": median(latencies) * 1e3,
            "rss_mb": peak_rss_mb(),
            "build_vectors_per_s": OFFLINE_VECTORS / build_s,
            "tables_per_s": OFFLINE_VECTORS / build_s,
            "recall_at_10": recall_at_10,
        }
        return outcome

    tracer = tracing.Tracer()
    index = None
    index = build(tracer)
    build_window = (0.0, time.perf_counter())
    traced_latencies, window = query_phase(index, seconds, tracer)
    if outcome.failed:
        return outcome
    arrays = tracer.arrays()
    outcome.metrics = dict(
        tracing.index_metrics(tracing.Spans(arrays, window)),
        **_idle(SERVING_LAYERS, ENCODING_LAYERS),
        **{
            "index.backends.save_s": builds[-1]["save"],
            "index.backends.open_s": builds[-1]["open"],
            "retrieval.lsh.insert_us_per_vector":
                tracing.insert_us_per_vector(
                    tracing.Spans(arrays, build_window)),
            "trace.overhead_share":
                1.0 - median(latencies) / median(traced_latencies),
            "p99_ms": percentile(latencies, 0.99) * 1e3,
        })
    return outcome


# ----------------------------------------------------------------------
# ingest_tabbin
# ----------------------------------------------------------------------
def _train_embedder():
    """The bench-scale TabBiN of the paper-table benchmarks
    (``benchmarks/common.py``: config, steps, vocabulary, seed)."""
    import importlib.util

    from repro.core import TabBiNEmbedder

    spec = importlib.util.spec_from_file_location(
        "paper_bench_common", Path(__file__).resolve().parents[1]
        / "benchmarks" / "common.py")
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    embedder, _stats = TabBiNEmbedder.build(
        list(common.corpus("webtables")), config=common.BENCH_CONFIG,
        steps=common.STEPS, vocab_size=common.VOCAB, seed=common.SEED)
    return embedder


def ingest(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    from repro.datasets import PROFILES, CorpusGenerator
    from repro.index import ColumnIndex

    def set_up(_rep):
        return (_train_embedder(),
                CorpusGenerator(PROFILES["webtables"].scaled(INGEST_TABLES),
                                seed=seed).generate())

    setup_times, (embedder, tables) = _timed_setup(INGEST_SETUP_REPS, set_up)
    reset_peak_rss()
    outcome = Outcome()
    reps: list[dict] = []
    checked: dict = {}

    def build_and_query(tracer=None) -> dict:
        """One timed ingest (encode, build, save, reopen), then every
        column queried against the rest in batches of ``BATCH``."""
        embedder.clear_cache()
        index, rep = _timed_build(
            lambda: ColumnIndex.build(embedder, tables),
            workdir / "columns.npz", len(reps), tracer)
        rep["store"] = embedder.store.stats.as_dict()
        if not checked:
            # Gate on the first build, before its queries are timed.
            reference = Reference(index)
            checked["reference"] = reference
            checked["vectors"] = reference.parts[0].vectors
            checked["keys"] = list(reference.parts[0].keys)
            checked["want"] = reference.rank(checked["vectors"], K,
                                             excludes=checked["keys"])
            outcome.check(_batched_query(index, checked["vectors"],
                                         checked["keys"]), checked["want"])
            if outcome.failed:
                return rep
        vectors, keys = checked["vectors"], checked["keys"]
        latencies, results = [], []
        with _traced(tracer):
            start = time.perf_counter()
            for lo in range(0, len(vectors), BATCH):
                with on_cpu(lo // BATCH):
                    began = time.perf_counter()
                    hits = index.query_many(vectors[lo:lo + BATCH], k=K,
                                            excludes=keys[lo:lo + BATCH])
                    latencies.append(time.perf_counter() - began)
                results.extend(hits_of(h) for h in hits)
            rep["window"] = (start, time.perf_counter())
        rep["latencies"] = latencies
        outcome.check(results, checked["want"])
        return rep

    started = time.perf_counter()
    while (len(reps) < INGEST_MIN_BUILDS
           or time.perf_counter() - started < seconds):
        reps.append(build_and_query())
        if outcome.failed:
            return outcome

    rss_mb = peak_rss_mb()
    latencies = [t for rep in reps for t in rep["latencies"]]
    want = checked["want"]
    if not trace:
        build = median([rep["build"] for rep in reps])
        exact = checked["reference"].exact_top(checked["vectors"], K,
                                               excludes=checked["keys"])
        outcome.metrics = {
            "setup_s": median(setup_times),
            "qps": BATCH / median(latencies),
            "p50_ms": median(latencies) * 1e3,
            "rss_mb": rss_mb,
            "build_vectors_per_s": len(want) / build,
            "tables_per_s": len(tables) / build,
            "recall_at_10": recall(want, exact),
        }
        return outcome

    tracer = tracing.Tracer()
    traced = build_and_query(tracer)
    if outcome.failed:
        return outcome
    arrays = tracer.arrays()
    build_spans = tracing.Spans(arrays, (0.0, traced["window"][0]))
    store = traced["store"]
    assembled = build_spans.count("core.embedder.assemble")
    outcome.metrics = dict(
        tracing.index_metrics(tracing.Spans(arrays, traced["window"])),
        **_idle(SERVING_LAYERS),
        **{
            "index.backends.save_s": traced["save"],
            "index.backends.open_s": traced["open"],
            "index.store.encode_s": build_spans.total("index.store.encode"),
            "index.store.sequences_per_batch":
                store["sequences_encoded"] / store["batches"],
            "core.embedder.assemble_us_per_column":
                build_spans.total("core.embedder.assemble") * 1e6 / assembled,
            "retrieval.lsh.insert_us_per_vector":
                tracing.insert_us_per_vector(build_spans),
            "trace.overhead_share":
                1.0 - median([rep["build"] for rep in reps]) / traced["build"],
            "p99_ms": percentile(latencies, 0.99) * 1e3,
        })
    return outcome


WORKLOADS = {
    "serve_uniform": serve,
    "offline_200k": offline,
    "ingest_tabbin": ingest,
}
