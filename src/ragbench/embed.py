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

_MAX_BATCH = 64

# The offline embedder's width: FNV-1a-64's low byte picks the bucket.
OFFLINE_DIM = 256

# Budgets of one block of the batch embedder. Hashing a block allocates a
# few arrays of its byte length, and a count matrix and a float result of
# OFFLINE_DIM cells per text, so bounding both keeps peak memory flat however
# many texts come in.
_BLOCK_BYTES = 64 * 1024
_BLOCK_TEXTS = 1024


@dataclass
class EmbedderConfig:
    kind: str = "offline"  # "offline" | "remote"
    endpoint_url: str = ""
    model: str = ""

    def __post_init__(self):
        if self.kind not in ("offline", "remote"):
            raise InvalidConfig(f"unknown embedder kind {self.kind!r}")
        if self.kind == "remote" and not self.endpoint_url:
            raise InvalidConfig("remote embedder requires endpoint_url")


def _embed_block(datas: list[bytes]) -> np.ndarray:
    """embed_offline_batch over already case-folded UTF-8 texts, in one pass.

    FNV-1a of every trigram of the concatenated bytes runs on uint8 arrays,
    which wrap at 8 bits: xor with a byte and a wrapping multiply commute
    with truncation to the low 8 bits, so each hash is FNV-1a-64's bucket.
    Trigrams that cross a text boundary go to one spare bucket past the last
    text's, the rest are counted per (text, bucket) with one bincount. Counts
    are integers, so the sum of squares is exact and every value is
    bit-identical to a scalar loop's.
    """
    n, dim = len(datas), OFFLINE_DIM
    lengths = np.fromiter(map(len, datas), dtype=np.intp, count=n)
    buf = np.frombuffer(b"".join(datas), dtype=np.uint8)
    text_id = np.repeat(np.arange(n), lengths)
    h = np.full(max(len(buf) - 2, 0), _FNV_OFFSET & 0xFF, dtype=np.uint8)
    for j in range(3):
        h ^= buf[j:len(buf) - 2 + j]
        h *= np.uint8(_FNV_PRIME & 0xFF)
    # keys are built in text_id's buffer, which nothing reads after crossing: a
    # new array (text_id[:-2] * dim + h) cost 0.9-1.2 MB peak RSS per sweep
    keys = text_id[:-2]
    crossing = keys != text_id[2:]
    keys *= dim
    keys += h
    keys[crossing] = n * dim
    counts = np.bincount(keys, minlength=n * dim + 1)[:-1].reshape(n, dim)
    for i in np.flatnonzero(lengths < 3):  # hashed whole, on the same 8-bit lane
        h = _FNV_OFFSET & 0xFF
        for b in datas[i]:
            h = (h ^ b) * _FNV_PRIME & 0xFF
        counts[i, h] += 1
    return counts / np.sqrt((counts * counts).sum(axis=1))[:, None]


def embed_offline_batch(texts: list[str]) -> list[np.ndarray]:
    """Hashed byte-trigram bag embeddings, L2-normalized: each text is
    case-folded, and each UTF-8 byte trigram (a text under 3 bytes whole)
    hashed with FNV-1a-64 into OFFLINE_DIM buckets. Deterministic across
    runs and platforms. Texts are hashed in blocks of about _BLOCK_BYTES
    bytes and at most _BLOCK_TEXTS texts; a text over the byte budget is a
    block of its own.
    """
    out: list[np.ndarray] = []
    block: list[bytes] = []
    size = 0
    for text in texts:
        if not text:
            raise RagBenchError("cannot embed empty text")
        data = text.casefold().encode("utf-8")
        if block and (size + len(data) > _BLOCK_BYTES or len(block) == _BLOCK_TEXTS):
            # extend, not +=: list += ndarray is numpy's elementwise add
            out.extend(_embed_block(block))
            block, size = [], 0
        block.append(data)
        size += len(data)
    if block:
        out.extend(_embed_block(block))
    return out


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; 0.0 when either vector has zero norm.

    Sums left to right, as a scalar loop from 0.0 does: np.cumsum adds in
    order, unlike a dot product or a pairwise or compensated sum, and
    + 0.0 turns a -0.0 sum into the loop's 0.0. So a score is the same
    bits whatever BLAS or interpreter runs it."""
    if len(a) != len(b):
        raise RagBenchError(f"dim {len(a)} != {len(b)}")
    m = np.array((a, a, b))
    m *= (b, a, b)
    dot, na, nb = np.cumsum(m, axis=1)[:, -1].tolist()
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
    if not all(texts):
        raise RagBenchError("cannot embed empty text")
    url = cfg.endpoint_url.rstrip("/") + "/v1/embeddings"
    batches = [texts[i:i + _MAX_BATCH] for i in range(0, len(texts), _MAX_BATCH)]

    def request(batch: list[str]) -> list:
        body = post_json_with_retries(url, {"model": cfg.model, "input": batch})
        try:
            return [item["embedding"] for item in body["data"]]
        except (KeyError, TypeError) as exc:
            raise RagBenchError(f"malformed embeddings response: {exc}") from exc

    def run_batch(batch: list[str]) -> list[np.ndarray]:
        key = store.request_key({"url": url, "model": cfg.model, "input": batch})
        return store.fetch(cache_dir, key, "embeddings", lambda rows: _rows(rows, len(batch)),
                           lambda: request(batch))[0]

    with ThreadPoolExecutor(max_workers=MAX_CONCURRENCY) as pool:
        results = list(pool.map(run_batch, batches))
    out = [v for batch in results for v in batch]
    dims = {len(v) for v in out}
    if len(dims) > 1:
        raise RagBenchError(f"embedding dims disagree across batches: {sorted(dims)}")
    return out


def embed_texts(texts: list[str], cfg: EmbedderConfig,
                cache_dir: str | Path | None) -> list[np.ndarray]:
    """Dispatch to the configured embedder. A remote one needs cache_dir,
    its response store; the offline one makes no backend call and ignores it."""
    if cfg.kind == "offline":
        return embed_offline_batch(texts)
    return embed_remote(texts, cfg, cache_dir)

