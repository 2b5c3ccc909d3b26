"""Exact cosine top-k index over embedded chunks.

Linear scan, not ANN: at this corpus scale exact search is fast and keeps
retrieval recall out of the experiment as a confound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, DuplicateRef, EmptyIndex

ChunkRef = tuple[str, int]  # (doc_id, seq)


@dataclass(frozen=True)
class IndexEntry:
    chunk_ref: ChunkRef
    vector: np.ndarray  # 1-D float64
    text: str


@dataclass(frozen=True)
class Hit:
    chunk_ref: ChunkRef
    score: float
    rank: int


class Index:
    """Immutable exact-cosine index; iteration order = insertion order."""

    def __init__(self, entries: list[IndexEntry]):
        if not entries:
            raise EmptyIndex("cannot build index from zero entries")
        dims = {len(e.vector) for e in entries}
        if len(dims) > 1:
            raise DimMismatch(f"entry dims disagree: {sorted(dims)}")
        refs = [e.chunk_ref for e in entries]
        if len(set(refs)) != len(refs):
            seen: set[ChunkRef] = set()
            for r in refs:
                if r in seen:
                    raise DuplicateRef(f"duplicate chunk ref {r}")
                seen.add(r)
        self._entries = list(entries)
        self._by_ref = {e.chunk_ref: e for e in self._entries}
        self.dim = dims.pop()
        matrix = np.stack([e.vector for e in entries])
        norms = np.linalg.norm(matrix, axis=1)
        self._zero_mask = norms == 0.0
        norms[self._zero_mask] = 1.0  # zero-norm entries score 0 by convention
        self._unit = matrix / norms[:, None]
        # each entry's position in chunk_ref order, the tie-break key of query_topk
        self._ref_rank = np.empty(len(refs), dtype=np.intp)
        self._ref_rank[sorted(range(len(refs)), key=refs.__getitem__)] = np.arange(len(refs))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def text_for(self, ref: ChunkRef) -> str:
        return self._by_ref[ref].text

    def __contains__(self, ref: ChunkRef) -> bool:
        return ref in self._by_ref

    def query_topk(self, q: np.ndarray, k: int) -> list[Hit]:
        """Top-k entries by cosine(q, entry), score descending, ties broken
        by chunk_ref ascending. Returns all entries when k > count."""
        if len(q) != self.dim:
            raise DimMismatch(f"query dim {len(q)} != index dim {self.dim}")
        if k < 1:
            raise ValueError("k must be >= 1")
        qnorm = np.linalg.norm(q)
        if qnorm == 0.0:
            scores = np.zeros(len(self._entries))
        else:
            scores = self._unit @ (q / qnorm)
            scores[self._zero_mask] = 0.0
        neg = -scores
        if k < len(neg):
            # keep every entry that scores at least as well as the k-th best,
            # ties included, and sort only those; a NaN k-th keeps them all
            kth = np.partition(neg, k - 1)[k - 1]
            cand = np.flatnonzero(~(neg > kth))
            order = cand[np.lexsort((self._ref_rank[cand], neg[cand]))[:k]]
        else:
            order = np.lexsort((self._ref_rank, neg))
        return [
            Hit(chunk_ref=self._entries[i].chunk_ref, score=float(scores[i]), rank=r)
            for r, i in enumerate(order.tolist())
        ]
