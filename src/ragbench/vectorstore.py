"""Exact cosine top-k index over embedded chunks.

Linear scan, not ANN: at this corpus scale exact search is fast and keeps
retrieval recall out of the experiment as a confound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, DuplicateRef, EmptyIndex

ChunkRef = tuple[str, int]  # (doc_id, seq)

# Byte budget of one block of query_topk's score matrix (rows x entries,
# float64). One matrix product per block reads the index once for many
# queries, and a bounded block keeps peak memory flat however many come in.
_SCORE_BLOCK_BYTES = 1 << 20


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
    text: str


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

    def query_topk(self, q: np.ndarray, k: int) -> list[Hit] | list[list[Hit]]:
        """Top-k entries by cosine(q, entry), score descending, ties broken
        by chunk_ref ascending. Returns all entries when k > count.

        q is one query row, or a 2-D stack of rows, for which one hit list
        per row is returned. Rows are scored against the index in blocks of
        at most about _SCORE_BLOCK_BYTES of scores, one matrix product per
        block. A zero query row scores 0 everywhere, and a NaN row changes
        only its own hits.
        """
        rows = np.atleast_2d(q)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise DimMismatch(f"query dim {rows.shape[-1]} != index dim {self.dim}")
        if k < 1:
            raise ValueError("k must be >= 1")
        step = max(1, _SCORE_BLOCK_BYTES // (8 * len(self._entries)))
        hits: list[list[Hit]] = []
        for start in range(0, len(rows), step):
            hits.extend(self._topk_block(rows[start:start + step], k))
        return hits if np.ndim(q) == 2 else hits[0]

    def _topk_block(self, rows: np.ndarray, k: int) -> list[list[Hit]]:
        norms = np.linalg.norm(rows, axis=1)
        zero = norms == 0.0
        norms[zero] = 1.0
        scores = (rows / norms[:, None]) @ self._unit.T
        scores[zero] = 0.0
        scores[:, self._zero_mask] = 0.0
        neg = -scores
        if k < neg.shape[1]:
            # keep every entry that scores at least as well as the k-th best,
            # ties included, and sort only those; a NaN k-th keeps them all
            keep = ~(neg > np.partition(neg, k - 1, axis=1)[:, k - 1:k])
        else:
            keep = np.ones(neg.shape, dtype=bool)
        out = []
        for row, row_neg, row_keep in zip(scores, neg, keep):
            cand = np.flatnonzero(row_keep)
            order = cand[np.lexsort((self._ref_rank[cand], row_neg[cand]))[:k]]
            out.append([
                Hit(chunk_ref=self._entries[i].chunk_ref, score=float(row[i]), rank=r,
                    text=self._entries[i].text)
                for r, i in enumerate(order.tolist())
            ])
        return out
