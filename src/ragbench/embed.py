"""Embedding vectors: deterministic offline hashed-trigram embedder, a
remote OpenAI-compatible client, and the cosine similarity kernel.

An embedding is a 1-D float64 numpy array."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import sqrt
from pathlib import Path

import numpy as np

from . import store
from ._http import MAX_CONCURRENCY, post_json_with_retries
from .errors import InvalidConfig, RagBenchError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

_MAX_BATCH = 64

# Budgets of one block of the batch embedder. Hashing a block allocates a
# few arrays of its byte length, and a count matrix and a float result of its
# texts x dim cells, so bounding both keeps peak memory flat however many
# texts come in.
_BLOCK_BYTES = 64 * 1024
_BLOCK_CELLS = 4 * _BLOCK_BYTES


@dataclass
class EmbedderConfig:
    kind: str = "offline"  # "offline" | "remote"
    dim: int = 256
    endpoint_url: str = ""
    model: str = ""

    def __post_init__(self):
        if self.kind not in ("offline", "remote"):
            raise InvalidConfig(f"unknown embedder kind {self.kind!r}")
        if self.kind == "remote" and not self.endpoint_url:
            raise InvalidConfig("remote embedder requires endpoint_url")
        if self.kind == "offline" and self.dim <= 0:
            raise InvalidConfig("offline embedder dim must be > 0")


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def _embed_block(datas: list[bytes], dim: int) -> np.ndarray:
    """embed_offline_batch over already case-folded UTF-8 texts, in one pass.

    FNV-1a of every trigram of the concatenated bytes runs on uint16 arrays
    when dim divides 2**16 and on uint64 arrays otherwise, each wrapping at
    its width as _MASK64 does. Both lanes pick FNV-1a-64's bucket: xor with
    a byte and a wrapping multiply commute with truncation to the low 16
    bits, and when dim divides 2**16, h % dim depends only on those bits.
    Trigrams that cross a text boundary go to one spare bucket past the last
    text's, the rest are counted per (text, bucket) with one bincount. Counts
    are integers, so the sum of squares is exact and every value is
    bit-identical to a scalar loop's.
    """
    n = len(datas)
    lengths = np.fromiter(map(len, datas), dtype=np.intp, count=n)
    buf = np.frombuffer(b"".join(datas), dtype=np.uint8)
    text_id = np.repeat(np.arange(n), lengths)
    narrow = (1 << 16) % dim == 0
    lane = np.uint16 if narrow else np.uint64
    mask = np.iinfo(lane).max
    h = np.full(max(len(buf) - 2, 0), _FNV_OFFSET & mask, dtype=lane)
    for j in range(3):
        h ^= buf[j:len(buf) - 2 + j]
        h *= lane(_FNV_PRIME & mask)
    # keys are built in text_id's buffer, which nothing reads after crossing,
    # so no second array of 8 bytes per trigram is allocated
    keys = text_id[:-2]
    crossing = keys != text_id[2:]
    keys *= dim
    # uint16 adds into intp in place; uint64 and intp promote to float64
    keys += h & lane(dim - 1) if narrow else (h % lane(dim)).astype(np.intp)
    keys[crossing] = n * dim
    counts = np.bincount(keys, minlength=n * dim + 1)[:-1].reshape(n, dim)
    for i in np.flatnonzero(lengths < 3):
        counts[i, _fnv1a64(datas[i]) % dim] += 1
    return counts / np.sqrt((counts * counts).sum(axis=1))[:, None]


def embed_offline_batch(texts: list[str], dim: int = 256) -> list[np.ndarray]:
    """Hashed byte-trigram bag embeddings, L2-normalized: each text is
    case-folded, and each UTF-8 byte trigram (a text under 3 bytes whole)
    hashed with FNV-1a-64 into dim buckets. Deterministic across runs and
    platforms. Texts are hashed in blocks of about _BLOCK_BYTES bytes and at
    most _BLOCK_CELLS texts x dim cells; a text over either budget is a
    block of its own.
    """
    out: list[np.ndarray] = []
    block: list[bytes] = []
    size = 0
    for text in texts:
        if not text:
            raise RagBenchError("cannot embed empty text")
        data = text.casefold().encode("utf-8")
        if block and (size + len(data) > _BLOCK_BYTES
                      or (len(block) + 1) * dim > _BLOCK_CELLS):
            # extend, not +=: list += ndarray is numpy's elementwise add
            out.extend(_embed_block(block, dim))
            block, size = [], 0
        block.append(data)
        size += len(data)
    if block:
        out.extend(_embed_block(block, dim))
    return out


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; 0.0 when either vector has zero norm.

    Sums left to right, as a scalar loop from 0.0 does: np.cumsum adds in
    order, unlike a dot product or a pairwise or compensated sum, and
    + 0.0 turns a -0.0 sum into the loop's 0.0. So a score is the same
    bits whatever BLAS or interpreter runs it."""
    if len(a) != len(b):
        raise RagBenchError(f"dim {len(a)} != {len(b)}")
    dot, na, nb = np.cumsum(np.stack((a * b, a * a, b * b)), axis=1)[:, -1].tolist()
    if na == 0.0 or nb == 0.0:
        return 0.0
    return (dot + 0.0) / (sqrt(na) * sqrt(nb))


def _rows(rows, n: int) -> list[np.ndarray]:
    """n embeddings from a decoded JSON list of rows, each a non-empty list
    of finite numbers, all of one length."""
    if not isinstance(rows, list) or len(rows) != n:
        raise RagBenchError(f"expected a list of {n} embeddings")
    try:
        vecs = [np.array(row) for row in rows]
    except ValueError as exc:  # ragged nesting, such as [[1], [2, 3]]
        raise RagBenchError(f"malformed embedding: {exc}") from exc
    # a JSON value other than a list makes a 0-d array; Python's json reads
    # NaN and Infinity
    if any(v.ndim != 1 or not v.size or v.dtype.kind not in "iuf"
           or not np.isfinite(v).all() for v in vecs):
        raise RagBenchError("embedding is not a non-empty list of finite numbers")
    dims = {len(v) for v in vecs}
    if len(dims) > 1:
        raise RagBenchError(f"embedding dims disagree within response: {sorted(dims)}")
    return [v.astype(np.float64, copy=False) for v in vecs]


def embed_remote(texts: list[str], cfg: EmbedderConfig,
                 cache_dir: str | Path) -> list[np.ndarray]:
    """Embed texts via POST {endpoint_url}/v1/embeddings, in input order.

    Requests carry at most 64 texts each, MAX_CONCURRENCY at once, under
    _http's timeout and retries, as chat's do, and go through the response
    store in cache_dir, keyed on URL, model and input list.
    """
    if not texts:
        raise RagBenchError("no texts to embed")
    for t in texts:
        if not t:
            raise RagBenchError("cannot embed empty text")
    url = cfg.endpoint_url.rstrip("/") + "/v1/embeddings"
    batches = [texts[i:i + _MAX_BATCH] for i in range(0, len(texts), _MAX_BATCH)]

    def request(batch: list[str]) -> tuple[list[np.ndarray], dict]:
        body = post_json_with_retries(url, {"model": cfg.model, "input": batch})
        try:
            rows = [item["embedding"] for item in body["data"]]
        except (KeyError, TypeError) as exc:
            raise RagBenchError(f"malformed embeddings response: {exc}") from exc
        return _rows(rows, len(batch)), {"embeddings": rows}

    def run_batch(batch: list[str]) -> list[np.ndarray]:
        key = store.request_key({"url": url, "model": cfg.model, "input": batch})
        return store.fetch(cache_dir, key,
                           lambda entry: _rows(entry.get("embeddings"), len(batch)),
                           lambda: request(batch))

    with ThreadPoolExecutor(max_workers=MAX_CONCURRENCY) as pool:
        results = list(pool.map(run_batch, batches))
    out = [v for batch in results for v in batch]
    dims = {len(v) for v in out}
    if len(dims) > 1:
        raise RagBenchError(f"embedding dims disagree across batches: {sorted(dims)}")
    return out


def embed_texts(texts: list[str], cfg: EmbedderConfig,
                cache_dir: str | Path | None = None) -> list[np.ndarray]:
    """Dispatch to the configured embedder. A remote one needs cache_dir,
    its response store; the offline one makes no backend call and ignores it."""
    if cfg.kind == "offline":
        return embed_offline_batch(texts, cfg.dim)
    return embed_remote(texts, cfg, cache_dir)

