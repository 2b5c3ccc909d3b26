"""Scalar references in plain Python that the tests check the program's
fast paths against."""

import math
from collections import namedtuple

import numpy as np

from ragbench.errors import RagBenchError

# FNV-1a-64's published offset basis and prime, written out here so that the
# oracle shares no hash code with the embedder it checks
FNV_OFFSET_BASIS = 14695981039346656037
FNV_PRIME = 1099511628211

# one chunk as the oracle sees it
Entry = namedtuple("Entry", "chunk_ref vector text")


def oracle_topk(entries, q, k):
    """Linear scan over raw values: pure-Python cosine, full sort, score
    descending and chunk_ref ascending."""
    q = q.tolist()
    qn = math.sqrt(sum(x * x for x in q))
    scored = []
    for e in entries:
        v = e.vector.tolist()
        vn = math.sqrt(sum(x * x for x in v))
        if qn == 0 or vn == 0:
            score = 0.0
        else:
            score = sum(a * b for a, b in zip(q, v)) / (qn * vn)
        scored.append((score, e.chunk_ref))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return scored[:k]


def oracle_text_topk(entries, q, k):
    """oracle_topk over one entry per distinct text, its smallest ref's:
    (score, chunk_ref, the text's other refs ascending)."""
    refs_of, firsts = {}, {}
    for e in sorted(entries, key=lambda e: e.chunk_ref):
        refs_of.setdefault(e.text, []).append(e.chunk_ref)
        firsts.setdefault(e.text, e)
    others = {refs[0]: tuple(refs[1:]) for refs in refs_of.values()}
    return [(score, ref, others[ref])
            for score, ref in oracle_topk(list(firsts.values()), q, k)]


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET_BASIS
    for byte in data:
        h = (h ^ byte) * FNV_PRIME % 2**64
    return h


def embed_offline(text: str, dim: int = 256) -> np.ndarray:
    """Hashed byte-trigram bag embedding, L2-normalized, one text at a time:
    the reference embed_offline_batch must equal bit for bit.

    Case-folds the text, hashes every UTF-8 byte trigram with FNV-1a-64 into
    dim buckets (a text under 3 bytes is hashed whole), then normalizes.
    """
    if not text:
        raise RagBenchError("cannot embed empty text")
    data = text.casefold().encode("utf-8")
    acc = [0.0] * dim
    if len(data) < 3:
        acc[fnv1a64(data) % dim] += 1.0
    else:
        for i in range(len(data) - 2):
            acc[fnv1a64(data[i:i + 3]) % dim] += 1.0
    norm = math.sqrt(sum(v * v for v in acc))
    if norm > 0:
        acc = [v / norm for v in acc]
    return np.array(acc)
