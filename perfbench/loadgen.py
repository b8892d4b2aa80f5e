"""Load generator: closed loop, open loop, closed loop, against one server.

Runs in its own process, one thread, at most ``connections`` keep-alive
connections (the benchmark uses ``nproc`` = 2)::

    python -m perfbench.loadgen SPEC.json OUT.json

``SPEC.json`` names the server port, the query pool (``.npy``), the two
phase lengths and the open-loop rate.  Requests take pool rows in order,
so no query repeats.  The closed loop draws from ``[0, split)`` and the
open loop from ``split`` on, so the open loop's queries do not depend on
how far the closed loop got.

- Closed loop: each connection sends its next request when the previous
  answer arrives.  It runs in two halves, before and after the open
  loop, so its rate samples two moments of a machine whose speed
  drifts.
- Open loop: requests are due on a fixed schedule and are sent at their
  due time whatever the server is doing, pipelined on the connections
  round robin.  Latency is measured from the due time, so a stall
  charges every request queued behind it.  The generator's own lag
  (send time minus due time) is reported so the caller can refuse a run
  in which the generator, not the server, fell behind.

Every answer is kept: ``OUT.json`` lists ``[qid, status, due, sent,
done]`` per request (``status`` 0 is a timeout) and, per query id, each
distinct response body, so the caller can check every ranking.
"""

from __future__ import annotations

import asyncio
import collections
import gc
import json
import os
import sys
import time

import numpy as np

TIMEOUT_S = 5.0
#: The open-loop sender sleeps until this close to a due time, then
#: yields to the event loop without sleeping: epoll's millisecond timeout
#: would otherwise make every request up to a millisecond late.
SPIN_S = 0.0015


class _Pool:
    """Requests for the pool's rows, in order, up to row ``stop``."""

    def __init__(self, spec: dict):
        self.vectors = np.load(spec["pool"])
        self.k = spec["k"]
        self.position = 0
        self.stop = spec["split"]

    def next(self) -> tuple[int, bytes] | None:
        if self.position >= self.stop:
            return None
        qid = self.position
        self.position += 1
        body = json.dumps({"vector": self.vectors[qid].tolist(),
                           "k": self.k}).encode()
        return qid, (b"POST /query HTTP/1.1\r\nHost: bench\r\n"
                     b"Content-Type: application/json\r\n"
                     b"Content-Length: %d\r\n\r\n" % len(body)) + body


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


class _Recorder:
    def __init__(self):
        self.rows: list[list] = []
        self.bodies: dict[int, set[bytes]] = collections.defaultdict(set)

    def add(self, qid, status, due, sent, done, body=None) -> None:
        self.rows.append([qid, status, due, sent, done])
        if status == 200 and body is not None:
            self.bodies[qid].add(body)


async def _closed(host, port, pool, recorder, connections, seconds) -> dict:
    deadline = time.perf_counter() + seconds

    async def worker():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while time.perf_counter() < deadline:
                drawn = pool.next()
                if drawn is None:
                    return
                qid, request = drawn
                sent = time.perf_counter()
                writer.write(request)
                try:
                    status, body = await asyncio.wait_for(
                        _read_response(reader), TIMEOUT_S)
                except (asyncio.TimeoutError, ConnectionError,
                        asyncio.IncompleteReadError):
                    recorder.add(qid, 0, sent, sent, time.perf_counter())
                    writer.close()
                    reader, writer = await asyncio.open_connection(host, port)
                    continue
                recorder.add(qid, status, sent, sent, time.perf_counter(),
                             body)
        finally:
            writer.close()

    start = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(connections)))
    return {"start": start, "end": time.perf_counter()}


async def _open(host, port, pool, recorder, connections, seconds,
                rate) -> dict:
    links = [await asyncio.open_connection(host, port)
             for _ in range(connections)]
    fifos = [collections.deque() for _ in links]
    answered = asyncio.Event()
    outstanding = 0

    async def read_loop(position: int):
        nonlocal outstanding
        reader = links[position][0]
        fifo = fifos[position]
        while True:
            try:
                status, body = await _read_response(reader)
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            qid, due, sent = fifo.popleft()
            done = time.perf_counter()
            if done - due > TIMEOUT_S:
                status = 0
            recorder.add(qid, status, due, sent, done, body)
            outstanding -= 1
            if outstanding == 0:
                answered.set()

    readers = [asyncio.get_running_loop().create_task(read_loop(p))
               for p in range(len(links))]
    n_requests = int(rate * seconds)
    start = time.perf_counter() + 0.05
    for i in range(n_requests):
        due = start + i / rate
        ahead = due - time.perf_counter()
        while ahead > 0:
            await asyncio.sleep(ahead - SPIN_S if ahead > SPIN_S else 0)
            ahead = due - time.perf_counter()
        drawn = pool.next()
        if drawn is None:
            break
        qid, request = drawn
        position = i % len(links)
        sent = time.perf_counter()
        links[position][1].write(request)
        fifos[position].append((qid, due, sent))
        outstanding += 1
        answered.clear()
    end = time.perf_counter()
    if outstanding:
        try:
            await asyncio.wait_for(answered.wait(), TIMEOUT_S)
        except asyncio.TimeoutError:
            pass
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for _reader, writer in links:
        writer.close()
    for fifo in fifos:
        for qid, due, sent in fifo:
            recorder.add(qid, 0, due, sent, time.perf_counter())
    return {"start": start, "end": end}


async def _run(spec: dict) -> dict:
    pool = _Pool(spec)
    host, port = spec["host"], spec["port"]
    connections = spec["connections"]
    out = {"pid": os.getpid(),
           "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    gc.disable()
    closed, opened = _Recorder(), _Recorder()
    half = spec["closed_seconds"] / 2
    segments = [await _closed(host, port, pool, closed, connections, half)]
    # The open loop starts at a fixed draw, whatever the closed loop used.
    resume = pool.position
    pool.position = spec["split"]
    pool.stop = spec["split"] + int(spec["rate"] * spec["open_seconds"])
    await asyncio.sleep(0.2)
    out["open"] = await _open(host, port, pool, opened, connections,
                              spec["open_seconds"], spec["rate"])
    out["open"]["rows"] = opened.rows
    await asyncio.sleep(0.2)
    pool.position, pool.stop = resume, spec["split"]
    segments.append(await _closed(host, port, pool, closed, connections,
                                  half))
    out["exhausted"] = pool.position >= pool.stop
    out["closed"] = {"segments": segments, "rows": closed.rows}
    gc.enable()
    bodies: dict[int, list[str]] = collections.defaultdict(list)
    for recorder in (closed, opened):
        for qid, seen in recorder.bodies.items():
            bodies[qid].extend(body.decode() for body in seen)
    out["bodies"] = {str(qid): sorted(set(texts))
                     for qid, texts in bodies.items()}
    return out


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as handle:
        spec = json.load(handle)
    out = asyncio.run(_run(spec))
    with open(argv[1], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
