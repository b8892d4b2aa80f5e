"""Benchmark-side references for the correctness gate and recall.

:class:`Reference` re-derives an index's rankings from its public parts
only: each shard's ``lsh.candidates_many`` candidate sets, rescored with
the same einsum cosine the index uses, the brute-force fallback decided
on the *global* candidate total, ties broken by key.  Rankings must
match the index's own exactly: same keys, same float scores.

:meth:`Reference.exact_top` is the exact einsum brute force that recall@10 is
measured against.
"""

from __future__ import annotations

import numpy as np


def _cosine(rows: np.ndarray, row_norms: np.ndarray,
            queries: np.ndarray) -> np.ndarray:
    """``(C, Q)`` cosine scores, computed as the index computes them."""
    sims = np.einsum("cd,qd->cq", rows, queries)
    denom = row_norms[:, None] * np.linalg.norm(queries, axis=1)[None, :]
    return np.divide(sims, denom, out=np.zeros_like(sims),
                     where=denom != 0.0)


def _top(keys: np.ndarray, scores: np.ndarray, k: int) -> list[tuple]:
    """Top ``k`` by score, ties by key."""
    if len(scores) > k:
        # Everything scoring at least the k-th best, ties included.
        kth = scores[np.argpartition(-scores, k - 1)[k - 1]]
        chosen = np.flatnonzero(scores >= kth)
        keys, scores = keys[chosen], scores[chosen]
    order = np.lexsort((keys, -scores))[:k]
    return [(str(keys[i]), float(scores[i])) for i in order]


def _drop(ids: np.ndarray, keys: np.ndarray, exclude) -> np.ndarray:
    return ids if exclude is None else ids[keys[ids] != exclude]


class _Part:
    """One shard's vectors, keys and norms, read once."""

    def __init__(self, shard):
        self.lsh = shard.lsh
        self.vectors = shard.lsh.vectors()
        self.norms = np.linalg.norm(self.vectors, axis=1)
        self.keys = np.array(shard.keys)
        self.live = np.array(shard.lsh.live_ids(), dtype=np.int64)


class Reference:
    """Reference rankings for a :class:`VectorIndex` or
    :class:`ShardedIndex` (see module doc)."""

    def __init__(self, index):
        shards = getattr(index, "shards", None) or [index]
        self.parts = [_Part(shard) for shard in shards]

    def rank(self, queries: np.ndarray, k: int,
             excludes: list | None = None) -> list[list[tuple]]:
        queries = np.asarray(queries, float)
        if excludes is None:
            excludes = [None] * len(queries)
        per_part = [part.lsh.candidates_many(queries) for part in self.parts]
        out = []
        for q, exclude in enumerate(excludes):
            chosen = []
            for part, cands in zip(self.parts, per_part):
                ids = np.fromiter(cands[q], dtype=np.int64,
                                  count=len(cands[q]))
                chosen.append(_drop(ids, part.keys, exclude))
            if sum(len(ids) for ids in chosen) < k:
                chosen = [_drop(part.live, part.keys, exclude)
                          for part in self.parts]
            keys, scores = [], []
            for part, ids in zip(self.parts, chosen):
                keys.append(part.keys[ids])
                scores.append(_cosine(part.vectors[ids], part.norms[ids],
                                      queries[q:q + 1])[:, 0])
            out.append(_top(np.concatenate(keys), np.concatenate(scores), k))
        return out

    def exact_top(self, queries: np.ndarray, k: int,
                  excludes: list | None = None,
                  chunk: int = 16) -> list[set[str]]:
        """Exact top-``k`` key sets by einsum brute force over every live
        vector (recall's ground truth)."""
        queries = np.asarray(queries, float)
        if excludes is None:
            excludes = [None] * len(queries)
        keys = np.concatenate([part.keys[part.live] for part in self.parts])
        live = [(part.vectors[part.live], part.norms[part.live])
                for part in self.parts]
        out = []
        for lo in range(0, len(queries), chunk):
            block = queries[lo:lo + chunk]
            scores = np.concatenate([_cosine(vectors, norms, block)
                                     for vectors, norms in live])
            for offset in range(len(block)):
                column = scores[:, offset].copy()
                if excludes[lo + offset] is not None:
                    column[keys == excludes[lo + offset]] = -np.inf
                out.append({key for key, _score in _top(keys, column, k)})
        return out


def hits_of(ranking) -> list[tuple]:
    """``SearchHit`` list (offline) to ``(key, score)`` pairs."""
    return [(hit.key, hit.score) for hit in ranking]


def served_hits(body: dict) -> list[tuple]:
    """A ``POST /query`` single-vector answer to ``(key, score)`` pairs."""
    return [(hit["key"], hit["score"]) for hit in body["hits"]]


def recall(ranked: list[list[tuple]], exact: list[set[str]]) -> float:
    """Mean share of the exact top-k keys present in each ranking."""
    found = sum(len({key for key, _score in ranking} & truth)
                for ranking, truth in zip(ranked, exact))
    return found / sum(len(truth) for truth in exact)
