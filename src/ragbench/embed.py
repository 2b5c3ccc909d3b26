"""Embedding vectors: deterministic offline hashed-trigram embedder, a
remote OpenAI-compatible client, and the cosine similarity kernel."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import sqrt
from typing import Callable

import numpy as np

from ._http import post_json_with_retries
from ._singleflight import SingleFlight
from .errors import DimMismatch, EmptyText, InvalidConfig, ProtocolError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

_MAX_BATCH = 64

# Byte budget of one block of the batch embedder. Hashing a block allocates
# a few uint64 arrays of its size plus a count matrix of its texts x dim, so
# a bounded block keeps peak memory flat however many texts come in.
_BLOCK_BYTES = 64 * 1024


@dataclass(frozen=True)
class Vector:
    dim: int
    values: tuple[float, ...]

    def __post_init__(self):
        if self.dim <= 0 or len(self.values) != self.dim:
            raise InvalidConfig(f"vector dim {self.dim} != len(values) {len(self.values)}")


@dataclass
class EmbedderConfig:
    kind: str = "offline"  # "offline" | "remote"
    dim: int = 256
    endpoint_url: str = ""
    model: str = ""
    max_concurrency: int = 4
    timeout_ms: int = 30000
    max_retries: int = 3

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


def embed_offline(text: str, dim: int = 256) -> Vector:
    """Hashed byte-trigram bag embedding, L2-normalized.

    Case-folds the text, hashes every UTF-8 byte trigram with FNV-1a-64 into
    dim buckets, then normalizes. Deterministic across runs and platforms.
    This is the scalar reference; embed_offline_batch is the fast path.
    """
    if not text:
        raise EmptyText("cannot embed empty text")
    data = text.casefold().encode("utf-8")
    acc = [0.0] * dim
    if len(data) < 3:
        acc[_fnv1a64(data) % dim] += 1.0
    else:
        for i in range(len(data) - 2):
            acc[_fnv1a64(data[i:i + 3]) % dim] += 1.0
    norm = sqrt(sum(v * v for v in acc))
    if norm > 0:
        acc = [v / norm for v in acc]
    return Vector(dim=dim, values=tuple(acc))


def _embed_block(datas: list[bytes], dim: int) -> list[Vector]:
    """embed_offline over already case-folded UTF-8 texts, in one pass.

    FNV-1a-64 of every trigram of the concatenated bytes is computed with
    uint64 arrays, whose multiplication wraps mod 2**64 like _MASK64.
    Trigrams that cross a text boundary are dropped, the rest are counted
    per (text, bucket) with one bincount. Counts are integers, so the sum of
    squares is exact and every value is bit-identical to embed_offline.
    """
    lengths = np.fromiter(map(len, datas), dtype=np.intp, count=len(datas))
    buf = np.frombuffer(b"".join(datas), dtype=np.uint8)
    text_id = np.repeat(np.arange(len(datas)), lengths)
    h = np.full(max(len(buf) - 2, 0), _FNV_OFFSET, dtype=np.uint64)
    for j in range(3):
        h ^= buf[j:len(buf) - 2 + j]
        h *= np.uint64(_FNV_PRIME)
    trigram_text = text_id[:-2]
    inside = trigram_text == text_id[2:]
    keys = trigram_text[inside] * dim + (h[inside] % np.uint64(dim)).astype(np.intp)
    counts = np.bincount(keys, minlength=len(datas) * dim).reshape(len(datas), dim)
    for i in np.flatnonzero(lengths < 3):
        counts[i, _fnv1a64(datas[i]) % dim] += 1
    rows = counts / np.sqrt((counts * counts).sum(axis=1))[:, None]
    return [Vector(dim=dim, values=tuple(row)) for row in rows.tolist()]


def embed_offline_batch(texts: list[str], dim: int = 256) -> list[Vector]:
    """embed_offline for many texts, bit-identical to it and much faster.

    Texts are hashed in blocks of about _BLOCK_BYTES; a text longer than
    that is a block of its own.
    """
    out: list[Vector] = []
    block: list[bytes] = []
    size = 0
    for text in texts:
        if not text:
            raise EmptyText("cannot embed empty text")
        data = text.casefold().encode("utf-8")
        if block and size + len(data) > _BLOCK_BYTES:
            out += _embed_block(block, dim)
            block, size = [], 0
        block.append(data)
        size += len(data)
    if block:
        out += _embed_block(block, dim)
    return out


def cosine(a: Vector, b: Vector) -> float:
    """Cosine similarity; 0.0 when either vector has zero norm."""
    if a.dim != b.dim:
        raise DimMismatch(f"dim {a.dim} != {b.dim}")
    dot = na = nb = 0.0
    for i in range(a.dim):
        x, y = a.values[i], b.values[i]
        dot += x * y
        na += x * x
        nb += y * y
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (sqrt(na) * sqrt(nb))


def embed_remote(texts: list[str], cfg: EmbedderConfig) -> list[Vector]:
    """Embed texts via POST {endpoint_url}/v1/embeddings, in input order.

    Requests carry at most 64 texts each; 429/5xx responses are retried with
    exponential backoff per cfg.max_retries.
    """
    if not texts:
        raise EmptyText("no texts to embed")
    for t in texts:
        if not t:
            raise EmptyText("cannot embed empty text")
    batches = [texts[i:i + _MAX_BATCH] for i in range(0, len(texts), _MAX_BATCH)]

    def run_batch(batch: list[str]) -> list[Vector]:
        body = post_json_with_retries(
            cfg.endpoint_url.rstrip("/") + "/v1/embeddings",
            {"model": cfg.model, "input": batch},
            timeout_ms=cfg.timeout_ms,
            max_retries=cfg.max_retries,
        )
        try:
            rows = [item["embedding"] for item in body["data"]]
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed embeddings response: {exc}") from exc
        if len(rows) != len(batch):
            raise ProtocolError(
                f"expected {len(batch)} embeddings, got {len(rows)}"
            )
        vecs = []
        for row in rows:
            if not isinstance(row, list) or not row:
                raise ProtocolError("embedding is not a non-empty list")
            vecs.append(Vector(dim=len(row), values=tuple(float(v) for v in row)))
        dims = {v.dim for v in vecs}
        if len(dims) > 1:
            raise DimMismatch(f"embedding dims disagree within response: {sorted(dims)}")
        return vecs

    if len(batches) == 1:
        results = [run_batch(batches[0])]
    else:
        with ThreadPoolExecutor(max_workers=max(1, cfg.max_concurrency)) as pool:
            results = list(pool.map(run_batch, batches))
    out = [v for batch in results for v in batch]
    dims = {v.dim for v in out}
    if len(dims) > 1:
        raise DimMismatch(f"embedding dims disagree across batches: {sorted(dims)}")
    return out


def embed_texts(texts: list[str], cfg: EmbedderConfig) -> list[Vector]:
    """Dispatch to the configured embedder."""
    if cfg.kind == "offline":
        return embed_offline_batch(texts, cfg.dim)
    return embed_remote(texts, cfg)


def make_embed_fn(cfg: EmbedderConfig) -> Callable[[str], Vector]:
    """Single-text embed function with a memo, so repeated texts (questions
    reused across sweep sizes) are embedded once, also when several threads
    ask for one text at once. Its single-flight table is ``fn.flight``."""
    memo: dict[str, Vector] = {}
    flight = SingleFlight()

    def compute(text: str) -> Vector:
        memo[text] = vec = embed_texts([text], cfg)[0]
        return vec

    def fn(text: str) -> Vector:
        return flight.run(text, lambda: memo.get(text), lambda: compute(text))

    fn.flight = flight
    return fn
