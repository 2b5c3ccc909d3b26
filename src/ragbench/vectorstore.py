"""Exact cosine top-k index over embedded chunks.

Linear scan, not ANN: at this corpus scale exact search is fast and keeps
retrieval recall out of the experiment as a confound.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .chunker import ChunkRef
from .errors import RagBenchError

# Byte budget of one block of query_topk's score matrix (rows x texts,
# float64). One matrix product per block reads the index once for many
# queries, and a bounded block keeps peak memory flat however many come in.
_SCORE_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class Hit:  # one distinct text, at its smallest ref
    chunk_ref: ChunkRef
    score: float
    text: str
    also: tuple[ChunkRef, ...] = ()  # the text's other refs, ascending


class Index:
    """Immutable exact-cosine index over chunks, each a (chunk_ref, text),
    with rows mapping each distinct text to its 1-D row. It ranks the texts:
    chunks of one text are one hit."""

    def __init__(self, chunks: list[tuple[ChunkRef, str]], rows: Mapping[str, np.ndarray]):
        if not chunks:
            raise RagBenchError("cannot build index from zero chunks")
        # text: its refs ascending, first seen at its smallest ref, so the
        # column order of the rows is the tie-break order
        refs: dict[str, list[ChunkRef]] = {}
        for ref, text in sorted(chunks):
            refs.setdefault(text, []).append(ref)
        dims = {len(rows[t]) for t in refs}
        if len(dims) > 1:
            raise RagBenchError(f"row dims disagree: {sorted(dims)}")
        self._texts = list(refs)
        self._refs = [tuple(r) for r in refs.values()]
        matrix = np.stack([rows[t] for t in refs])
        self.dim = matrix.shape[1]
        norms = np.linalg.norm(matrix, axis=1)
        self._zero_mask = norms == 0.0
        norms[self._zero_mask] = 1.0  # zero-norm rows score 0 by convention
        self._unit = matrix / norms[:, None]

    def query_topk(self, queries: Sequence[np.ndarray], k: int) -> list[list[Hit]]:
        """For each query row in turn, its top-k distinct texts by
        cosine(row, text's row), score descending, ties broken by smallest
        chunk_ref ascending; all texts when k exceeds their count.

        queries is a sequence of 1-D rows, such as a list or a 2-D array;
        each must have the index's dim, or nothing is scored. Rows are
        scored in blocks of at most about _SCORE_BLOCK_BYTES of scores, one
        matrix product per block. A zero query row scores 0 everywhere, and
        a NaN row changes only its own hits.
        """
        for shape in map(np.shape, queries):
            if shape != (self.dim,):
                got = shape[0] if len(shape) == 1 else shape  # else not a row: its shape
                raise RagBenchError(f"query dim {got} != index dim {self.dim}")
        step = max(1, _SCORE_BLOCK_BYTES // (8 * len(self._texts)))
        hits: list[list[Hit]] = []
        for start in range(0, len(queries), step):
            hits.extend(self._topk_block(np.stack(queries[start:start + step]), k))
        return hits

    def _topk_block(self, rows: np.ndarray, k: int) -> list[list[Hit]]:
        norms = np.linalg.norm(rows, axis=1)
        zero = norms == 0.0
        norms[zero] = 1.0
        scores = (rows / norms[:, None]) @ self._unit.T
        scores[zero] = 0.0
        scores[:, self._zero_mask] = 0.0
        neg = -scores
        # keep, and sort, only the texts scoring at least as well as the
        # k-th best (all when k > count), ties included; a NaN k-th keeps all
        # sorting whole rows finds the same hits, 2.4x (offline-sweep) to 4.7x slower
        kth = min(k, neg.shape[1]) - 1
        keep = ~(neg > np.partition(neg, kth, axis=1)[:, kth:kth + 1])
        out = []
        for row, row_neg, row_keep in zip(scores, neg, keep):
            cand = np.flatnonzero(row_keep)
            order = cand[np.argsort(row_neg[cand], kind="stable")[:k]]
            out.append([Hit(self._refs[i][0], float(row[i]), self._texts[i], self._refs[i][1:])
                        for i in order.tolist()])
        return out
