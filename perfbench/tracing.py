"""In-memory span tracing from the benchmark side, and per-layer analysis.

Nothing under ``src/`` records spans.  :func:`install` replaces the
public calls of each layer with wrappers that record one span per call:
``(id, name, start, end, parent, request id, a, b)``, where ``a`` and
``b`` are per-span counts (rows, candidates, pairs) taken where the work
happens.  Parents follow a :class:`contextvars.ContextVar`, so spans nest
correctly both across ``await`` points of the asyncio front end (each
connection handler is its own task) and inside executor threads (which
start with an empty context).  Spans stay in memory until
:meth:`Tracer.save` writes them once, when the run ends.

A layer's *self time* is a span's duration minus the part of it covered
by its child spans; :func:`analyse` sums it per span name.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time

import numpy as np

_CURRENT = contextvars.ContextVar("perfbench_span", default=-1)
_REQUEST = contextvars.ContextVar("perfbench_request", default=-1)

#: Span names, in a fixed order so saved spans can store an int code.
NAMES = (
    "serve.server",             # one /query request: parsed .. answered
    "serve.protocol.parse",     # JSON decode + query payload validation
    "serve.protocol.encode",    # format_hits + json_body
    "serve.dispatcher.submit",  # a request inside the dispatcher
    "serve.dispatcher.tick",    # one micro-batch tick
    "serve.dispatcher.queue",   # zero-length: a = summed queue wait (s)
    "cache.lookup",
    "cache.harvest",            # collect_shortlists, paid by every miss
    "index.query",              # outermost query_many / query_with_shortlists
    "index.shard",              # one shard's query_partial_many
    "index.brute",              # brute-force fallback, a = rows
    "index.store.encode",
    "core.embedder.assemble",
    "retrieval.lsh.hash",
    "retrieval.lsh.probe",      # a = candidates returned
    "retrieval.lsh.score",      # a = sum of candidate sets, b = union x Q
    "retrieval.lsh.insert",     # a = vectors inserted
    "trace",                    # the tracer's own bookkeeping
)
_CODE = {name: code for code, name in enumerate(NAMES)}


class Tracer:
    """Append-only span store.  ``list.append`` and ``next`` on an
    ``itertools.count`` are atomic under the GIL, so the event-loop
    thread and executor threads can record concurrently."""

    def __init__(self):
        self._ids = itertools.count()
        self.records: list[tuple] = []

    def new_id(self) -> int:
        return next(self._ids)

    def record(self, name: str, start: float, end: float, parent: int,
               a: float = 0.0, b: float = 0.0, sid: int | None = None) -> int:
        sid = self.new_id() if sid is None else sid
        self.records.append((sid, _CODE[name], start, end, parent,
                             _REQUEST.get(), a, b))
        return sid

    def arrays(self) -> dict[str, np.ndarray]:
        rows = np.array(self.records, dtype=float).reshape(-1, 8)
        return {"id": rows[:, 0].astype(np.int64),
                "name": rows[:, 1].astype(np.int64),
                "start": rows[:, 2], "end": rows[:, 3],
                "parent": rows[:, 4].astype(np.int64),
                "request": rows[:, 5].astype(np.int64),
                "a": rows[:, 6], "b": rows[:, 7]}

    def save(self, path) -> None:
        with open(path, "wb") as handle:
            np.savez(handle, **self.arrays())


def load(path) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _measured(tracer: Tracer, pre, args, kwargs):
    """Run a span's counting hook inside its own ``trace`` span, so the
    hook's cost is carved out of the enclosing layer's self time."""
    if pre is None:
        return 0.0, 0.0
    start = time.perf_counter()
    counts = pre(*args, **kwargs)
    tracer.record("trace", start, time.perf_counter(), _CURRENT.get())
    return counts


def _span(tracer: Tracer, name: str, fn, pre=None, post=None):
    """Wrap ``fn`` so every call records one ``name`` span.  ``pre``
    counts from the arguments, ``post`` from the result."""
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            parent = _CURRENT.get()
            sid = tracer.new_id()
            token = _CURRENT.set(sid)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                tracer.record(name, start, end, parent, sid=sid)
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        a, b = _measured(tracer, pre, args, kwargs)
        parent = _CURRENT.get()
        sid = tracer.new_id()
        token = _CURRENT.set(sid)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
        if post is not None:
            a, b = post(out)
        tracer.record(name, start, end, parent, a, b, sid=sid)
        return out
    return wrapper


def _rows(arg_index: int):
    def pre(*args, **_kwargs):
        return float(len(args[arg_index])), 0.0
    return pre


def _pairs(_self, ids_per_query, *_args, **_kwargs):
    union = set().union(*ids_per_query) if ids_per_query else ()
    useful = sum(len(ids) for ids in ids_per_query)
    return float(useful), float(len(union) * len(ids_per_query))


def _candidates(out):
    return float(sum(len(cands) for cands in out)), 0.0


class _Patches:
    """Attribute replacements that :meth:`undo` restores."""

    def __init__(self):
        self._saved: list[tuple] = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, tracer, owner, attr: str, name: str, **hooks) -> None:
        self.replace(owner, attr, _span(tracer, name, getattr(owner, attr),
                                        **hooks))

    def undo(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def install(tracer: Tracer) -> _Patches:
    """Put spans around every layer's public calls; returns the patch set
    (``.undo()`` removes them again)."""
    from repro.cache.engine import CachedQueryEngine
    from repro.core.embedder import TabBiNEmbedder
    from repro.index.index import VectorIndex
    from repro.index.sharded import ShardedIndex
    from repro.index.store import EmbeddingStore
    from repro.retrieval.lsh import CosineLSH
    from repro.serve import dispatcher, server
    from repro.serve.stats import ServerStats

    patches = _Patches()
    wrap = functools.partial(patches.wrap, tracer)

    # retrieval.lsh
    wrap(CosineLSH, "_key_matrix", "retrieval.lsh.hash")
    wrap(CosineLSH, "candidates_for_keys", "retrieval.lsh.probe",
         post=_candidates)
    wrap(CosineLSH, "_rank_many", "retrieval.lsh.score", pre=_pairs)
    wrap(CosineLSH, "_attach", "retrieval.lsh.insert", pre=_rows(1))
    # index
    for cls in (VectorIndex, ShardedIndex):
        wrap(cls, "query_many", "index.query", pre=_rows(1))
        wrap(cls, "query_with_shortlists", "index.query", pre=_rows(1))
        wrap(cls, "collect_shortlists", "cache.harvest", pre=_rows(1))
    wrap(VectorIndex, "query_partial_many", "index.shard", pre=_rows(1))
    wrap(VectorIndex, "query_brute_many", "index.brute", pre=_rows(1))
    # index.store and core.embedder
    wrap(EmbeddingStore, "encode_corpus", "index.store.encode")
    wrap(TabBiNEmbedder, "column_embedding", "core.embedder.assemble")
    # cache
    wrap(CachedQueryEngine, "lookup", "cache.lookup")
    # serve: the server module imported these names from protocol.
    for attr in ("parse_json_object", "parse_query_payload"):
        wrap(server, attr, "serve.protocol.parse")
    for attr in ("format_hits", "json_body"):
        wrap(server, attr, "serve.protocol.encode")
    _install_dispatcher(tracer, patches, dispatcher.MicroBatchDispatcher,
                        dispatcher._Pending)
    _install_request_span(tracer, patches, server, ServerStats)
    return patches


def _install_dispatcher(tracer, patches, dispatcher_cls, pending_cls) -> None:
    patches.wrap(tracer, dispatcher_cls, "submit_many",
                 "serve.dispatcher.submit")
    enqueued: dict[int, float] = {}
    pending_init = pending_cls.__init__

    def stamped_init(self, *args, **kwargs):
        pending_init(self, *args, **kwargs)
        enqueued[id(self)] = time.perf_counter()

    patches.replace(pending_cls, "__init__", stamped_init)

    run_batch = dispatcher_cls._run_batch

    async def traced_run_batch(self, batch):
        # flush_now creates this task from whichever request's context
        # filled the batch; a tick belongs to no single request.
        _CURRENT.set(-1)
        _REQUEST.set(-1)
        start = time.perf_counter()
        waited = sum(start - enqueued.pop(id(item), start) for item in batch)
        tracer.record("serve.dispatcher.queue", start, start, -1,
                      waited, float(len(batch)))
        await _span(tracer, "serve.dispatcher.tick", run_batch)(self, batch)

    patches.replace(dispatcher_cls, "_run_batch", traced_run_batch)


def _install_request_span(tracer, patches, server_module, stats_cls) -> None:
    """``serve.server``: from a request leaving ``read_request`` to its
    response being written and counted by ``record_response``.  Both
    calls run in the connection handler's task, so the span id and
    request id ride that task's context between them."""
    read_request = server_module.read_request
    request_ids = itertools.count()
    open_spans: dict[int, float] = {}

    async def traced_read_request(*args, **kwargs):
        request = await read_request(*args, **kwargs)
        if request is not None and request.target == "/query":
            sid = tracer.new_id()
            open_spans[sid] = time.perf_counter()
            _CURRENT.set(sid)
            _REQUEST.set(next(request_ids))
        return request

    record_response = stats_cls.record_response

    def traced_record_response(self, *args, **kwargs):
        record_response(self, *args, **kwargs)
        sid = _CURRENT.get()
        start = open_spans.pop(sid, None)
        if start is not None:
            tracer.record("serve.server", start, time.perf_counter(), -1,
                          sid=sid)
            _CURRENT.set(-1)
            _REQUEST.set(-1)

    patches.replace(server_module, "read_request", traced_read_request)
    patches.replace(stats_cls, "record_response", traced_record_response)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
class Spans:
    """Saved spans inside one time window, with self times computed."""

    def __init__(self, arrays: dict[str, np.ndarray],
                 window: tuple[float, float] | None = None):
        keep = np.ones(len(arrays["id"]), dtype=bool)
        if window is not None:
            keep = (arrays["start"] >= window[0]) & (arrays["end"] <= window[1])
        self.a = {key: value[keep] for key, value in arrays.items()}
        self.duration = self.a["end"] - self.a["start"]
        self.self_time = self._self_times()

    def _self_times(self) -> np.ndarray:
        position = {int(sid): i for i, sid in enumerate(self.a["id"])}
        children: dict[int, list[int]] = {}
        for i, parent in enumerate(self.a["parent"]):
            if int(parent) in position:
                children.setdefault(position[int(parent)], []).append(i)
        own = self.duration.copy()
        start, end = self.a["start"], self.a["end"]
        for i, kids in children.items():
            covered, reach = 0.0, start[i]
            for j in sorted(kids, key=lambda j: start[j]):
                lo, hi = max(start[j], reach), min(end[j], end[i])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            own[i] -= covered
        return own

    def mask(self, *names: str) -> np.ndarray:
        codes = [_CODE[name] for name in names]
        return np.isin(self.a["name"], codes)

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def total(self, *names: str) -> float:
        return float(self.duration[self.mask(*names)].sum())

    def own(self, *names: str) -> float:
        return float(self.self_time[self.mask(*names)].sum())

    def sum_a(self, *names: str) -> float:
        return float(self.a["a"][self.mask(*names)].sum())

    def sum_b(self, *names: str) -> float:
        return float(self.a["b"][self.mask(*names)].sum())

    def under(self, child: str, parent: str) -> np.ndarray:
        """Mask of ``child`` spans whose direct parent is a ``parent``
        span."""
        parents = set(self.a["id"][self.mask(parent)].tolist())
        return self.mask(child) & np.isin(self.a["parent"], list(parents))

    def by_parent(self, child: str) -> dict[int, list[int]]:
        groups: dict[int, list[int]] = {}
        for i in np.flatnonzero(self.mask(child)):
            groups.setdefault(int(self.a["parent"][i]), []).append(int(i))
        return groups


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def index_metrics(spans: Spans) -> dict[str, float]:
    """The ``index.*`` and ``retrieval.lsh.*`` query-side metrics."""
    queries = spans.sum_a("index.query")
    brute_rows = sum(max(spans.a["a"][i] for i in group)
                     for group in spans.by_parent("index.brute").values())
    skews = []
    for group in spans.by_parent("index.shard").values():
        times = spans.duration[group]
        if times.mean() > 0:
            skews.append(times.max() / times.mean())
    hashes = spans.mask("retrieval.lsh.hash") & ~spans.under(
        "retrieval.lsh.hash", "retrieval.lsh.insert")
    lsh_scores = spans.mask("retrieval.lsh.score") & ~spans.under(
        "retrieval.lsh.score", "index.brute")
    per_query_us = 1e6 / queries if queries else 0.0
    return {
        "index.query_us": spans.own("index.query", "index.shard",
                                    "index.brute") * per_query_us,
        "index.shard_skew": float(np.mean(skews)) if skews else 0.0,
        "retrieval.lsh.hash_probe_us":
            (float(spans.duration[hashes].sum())
             + spans.total("retrieval.lsh.probe")) * per_query_us,
        "retrieval.lsh.score_topk_us":
            spans.total("retrieval.lsh.score") * per_query_us,
        "retrieval.lsh.candidates_per_query":
            _share(spans.sum_a("retrieval.lsh.probe"), queries),
        "retrieval.lsh.useful_pair_share":
            _share(float(spans.a["a"][lsh_scores].sum()),
                   float(spans.a["b"][lsh_scores].sum())),
        "retrieval.lsh.fallback_share": _share(brute_rows, queries),
        "cache.harvest_us": _share(spans.total("cache.harvest") * 1e6,
                                   spans.sum_a("cache.harvest")),
    }


def insert_us_per_vector(spans: Spans) -> float:
    return _share(spans.total("retrieval.lsh.insert") * 1e6,
                  spans.sum_a("retrieval.lsh.insert"))
