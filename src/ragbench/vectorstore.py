"""Exact cosine top-k index over embedded chunks, with bit-exact persistence.

Linear scan, not ANN: at this corpus scale exact search is fast and keeps
retrieval recall out of the experiment as a confound.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embed import Vector
from .errors import (ChecksumError, DimMismatch, DuplicateRef, EmptyIndex,
                     FormatError)

MAGIC = b"RGBV"
VERSION = 1

ChunkRef = tuple[str, int]  # (doc_id, seq)


@dataclass(frozen=True)
class IndexEntry:
    chunk_ref: ChunkRef
    vector: Vector
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
        dims = {e.vector.dim for e in entries}
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
        self._matrix = np.array([e.vector.values for e in entries], dtype=np.float64)
        norms = np.linalg.norm(self._matrix, axis=1)
        self._zero_mask = norms == 0.0
        norms[self._zero_mask] = 1.0  # zero-norm entries score 0 by convention
        self._unit = self._matrix / norms[:, None]
        # each entry's position in chunk_ref order, the tie-break key of query_topk
        self._ref_rank = np.empty(len(refs), dtype=np.intp)
        self._ref_rank[sorted(range(len(refs)), key=refs.__getitem__)] = np.arange(len(refs))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def entries(self) -> list[IndexEntry]:
        return list(self._entries)

    def text_for(self, ref: ChunkRef) -> str:
        return self._by_ref[ref].text

    def __contains__(self, ref: ChunkRef) -> bool:
        return ref in self._by_ref

    def query_topk(self, q: Vector, k: int) -> list[Hit]:
        """Top-k entries by cosine(q, entry), score descending, ties broken
        by chunk_ref ascending. Returns all entries when k > count."""
        if q.dim != self.dim:
            raise DimMismatch(f"query dim {q.dim} != index dim {self.dim}")
        if k < 1:
            raise ValueError("k must be >= 1")
        qv = np.asarray(q.values, dtype=np.float64)
        qnorm = np.linalg.norm(qv)
        if qnorm == 0.0:
            scores = np.zeros(len(self._entries))
        else:
            scores = self._unit @ (qv / qnorm)
            scores[self._zero_mask] = 0.0
        order = np.lexsort((self._ref_rank, -scores))[:k]
        return [
            Hit(chunk_ref=self._entries[i].chunk_ref, score=float(scores[i]), rank=r)
            for r, i in enumerate(order.tolist())
        ]


def build(entries: list[IndexEntry]) -> Index:
    return Index(entries)


def save(index: Index, path: str | Path) -> None:
    """Write the RGBV1 binary format: magic, version, header, entries, CRC-32."""
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<B", VERSION)
    buf += struct.pack("<IQ", index.dim, len(index))
    for e in index:
        ref = f"{e.chunk_ref[0]}\x00{e.chunk_ref[1]}".encode("utf-8")
        text = e.text.encode("utf-8")
        buf += struct.pack("<I", len(ref)) + ref
        buf += struct.pack("<I", len(text)) + text
        buf += struct.pack(f"<{index.dim}d", *e.vector.values)
    buf += struct.pack("<I", zlib.crc32(bytes(buf)) & 0xFFFFFFFF)
    Path(path).write_bytes(bytes(buf))


def load(path: str | Path) -> Index:
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 1 + 12 + 4:
        raise FormatError("file too short")
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}")
    if data[4] != VERSION:
        raise FormatError(f"unsupported version {data[4]}")
    body, crc_bytes = data[:-4], data[-4:]
    (expected_crc,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(body) & 0xFFFFFFFF != expected_crc:
        raise ChecksumError("CRC-32 mismatch")
    off = 5
    dim, count = struct.unpack_from("<IQ", body, off)
    off += 12
    entries = []
    try:
        for _ in range(count):
            (ref_len,) = struct.unpack_from("<I", body, off)
            off += 4
            ref_raw = body[off:off + ref_len].decode("utf-8")
            off += ref_len
            doc_id, _, seq_s = ref_raw.rpartition("\x00")
            (text_len,) = struct.unpack_from("<I", body, off)
            off += 4
            text = body[off:off + text_len].decode("utf-8")
            off += text_len
            values = struct.unpack_from(f"<{dim}d", body, off)
            off += 8 * dim
            entries.append(IndexEntry(chunk_ref=(doc_id, int(seq_s)),
                                      vector=Vector(dim=dim, values=tuple(values)),
                                      text=text))
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise FormatError(f"corrupt entry data: {exc}") from exc
    if off != len(body):
        raise FormatError("trailing bytes after entries")
    return Index(entries)
