import math
import random
import struct

import pytest

from ragbench.embed import Vector
from ragbench.errors import (ChecksumError, DimMismatch, DuplicateRef,
                             EmptyIndex, FormatError)
from ragbench.vectorstore import IndexEntry, build, load, save


def vec(*values):
    return Vector(dim=len(values), values=tuple(float(v) for v in values))


def rand_vec(rng, dim):
    return Vector(dim=dim, values=tuple(rng.uniform(-1, 1) for _ in range(dim)))


def entry(doc_id, seq, vector, text=""):
    return IndexEntry(chunk_ref=(doc_id, seq), vector=vector,
                      text=text or f"{doc_id}/{seq}")


def oracle_topk(entries, q, k):
    """Independent linear scan: pure-python cosine, full sort."""
    def cos(a, b):
        dot = sum(x * y for x, y in zip(a.values, b.values))
        na = math.sqrt(sum(x * x for x in a.values))
        nb = math.sqrt(sum(y * y for y in b.values))
        if na == 0 or nb == 0:
            return 0.0
        return dot / (na * nb)

    scored = [(cos(q, e.vector), e.chunk_ref) for e in entries]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return scored[:k]


class TestBuild:
    def test_basic(self):
        idx = build([entry("a", 0, vec(1, 0)), entry("a", 1, vec(0, 1))])
        assert len(idx) == 2
        assert idx.dim == 2

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            build([entry("a", 0, vec(1, 0)), entry("b", 0, vec(1, 0, 0))])

    def test_duplicate_ref(self):
        with pytest.raises(DuplicateRef):
            build([entry("a", 0, vec(1, 0)), entry("a", 0, vec(0, 1))])

    def test_empty(self):
        with pytest.raises(EmptyIndex):
            build([])

    def test_iteration_order(self):
        entries = [entry("d", i, vec(i, 1)) for i in range(5)]
        idx = build(entries)
        assert [e.chunk_ref for e in idx] == [("d", i) for i in range(5)]


class TestQuery:
    def test_top1(self):
        idx = build([entry("e1", 0, vec(1, 0)), entry("e2", 0, vec(0, 1))])
        hits = idx.query_topk(vec(1, 0), 1)
        assert len(hits) == 1
        assert hits[0].chunk_ref == ("e1", 0)
        assert hits[0].score == pytest.approx(1.0)
        assert hits[0].rank == 0

    def test_k_clamped(self):
        idx = build([entry("a", 0, vec(1, 0)), entry("b", 0, vec(0, 1))])
        assert len(idx.query_topk(vec(1, 1), 5)) == 2

    def test_query_dim_mismatch(self):
        idx = build([entry("a", 0, vec(1, 0))])
        with pytest.raises(DimMismatch):
            idx.query_topk(vec(1, 0, 0), 1)

    def test_tie_break_by_ref(self):
        idx = build([entry("b", 1, vec(1, 0)), entry("a", 2, vec(1, 0)),
                     entry("a", 1, vec(1, 0))])
        hits = idx.query_topk(vec(1, 0), 3)
        assert [h.chunk_ref for h in hits] == [("a", 1), ("a", 2), ("b", 1)]

    def test_zero_query_scores_zero(self):
        idx = build([entry("a", 0, vec(1, 0))])
        assert idx.query_topk(vec(0, 0), 1)[0].score == 0.0

    def test_matches_oracle(self):
        rng = random.Random(7)
        entries = [entry(f"d{i // 10}", i % 10, rand_vec(rng, 32))
                   for i in range(500)]
        idx = build(entries)
        for _ in range(20):
            q = rand_vec(rng, 32)
            for k in (1, 5, 10):
                hits = idx.query_topk(q, k)
                expected = oracle_topk(entries, q, k)
                assert [h.chunk_ref for h in hits] == [r for _, r in expected]
                for h, (s, _) in zip(hits, expected):
                    assert h.score == pytest.approx(s, abs=1e-12)

    def test_tie_heavy_matches_oracle(self):
        # few distinct integer rows, so most scores tie exactly and order
        # rests on the chunk_ref tie-break; refs are inserted out of order
        rng = random.Random(5)
        rows = [vec(1, 0, 0), vec(2, 0, 0), vec(0, 1, 1), vec(1, 1, 0),
                vec(0, 0, 0), vec(-1, 0, 0)]
        refs = [(f"d{i % 7}", i // 7) for i in range(60)]
        rng.shuffle(refs)
        entries = [entry(d, s, rng.choice(rows)) for d, s in refs]
        idx = build(entries)
        n = len(entries)
        for q in [vec(1, 0, 0), vec(0, 1, 1), vec(1, 1, 1), vec(0, 0, 0), vec(-3, 0, 0)]:
            for k in (1, 3, n, n + 5):
                hits = idx.query_topk(q, k)
                assert [h.chunk_ref for h in hits] == [r for _, r in oracle_topk(entries, q, k)]
                assert [h.rank for h in hits] == list(range(min(k, n)))

    def test_full_permutation_sorted(self):
        rng = random.Random(3)
        entries = [entry("d", i, rand_vec(rng, 8)) for i in range(50)]
        idx = build(entries)
        hits = idx.query_topk(rand_vec(rng, 8), 50)
        assert sorted(h.chunk_ref for h in hits) == sorted(e.chunk_ref for e in entries)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)
        assert all(-1 - 1e-9 <= s <= 1 + 1e-9 for s in scores)


class TestPersistence:
    def make_index(self, n=30, dim=16, seed=11):
        rng = random.Random(seed)
        return build([entry(f"doc-{i}", i, rand_vec(rng, dim),
                            text=f"téxt {i}") for i in range(n)]), rng

    def test_round_trip_queries_identical(self, tmp_path):
        idx, rng = self.make_index()
        path = tmp_path / "index.rgbv"
        save(idx, path)
        loaded = load(path)
        assert len(loaded) == len(idx)
        assert loaded.dim == idx.dim
        assert [e.chunk_ref for e in loaded] == [e.chunk_ref for e in idx]
        assert [e.text for e in loaded] == [e.text for e in idx]
        for _ in range(100):
            q = rand_vec(rng, 16)
            assert loaded.query_topk(q, 5) == idx.query_topk(q, 5)

    def test_doc_id_with_nul_like_separator_survives(self, tmp_path):
        # rpartition on the last NUL keeps doc ids containing NUL unambiguous
        v = vec(1.0)
        idx = build([IndexEntry(chunk_ref=("we\x00ird", 3), vector=v, text="t")])
        path = tmp_path / "i.rgbv"
        save(idx, path)
        assert load(path).entries[0].chunk_ref == ("we\x00ird", 3)

    def test_wrong_magic(self, tmp_path):
        idx, _ = self.make_index(n=3)
        path = tmp_path / "i.rgbv"
        save(idx, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load(path)

    def test_truncated_file(self, tmp_path):
        idx, _ = self.make_index(n=3)
        path = tmp_path / "i.rgbv"
        save(idx, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises((FormatError, ChecksumError)):
            load(path)

    def test_flipped_byte_checksum(self, tmp_path):
        idx, _ = self.make_index(n=3)
        path = tmp_path / "i.rgbv"
        save(idx, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError):
            load(path)

    def test_unsupported_version(self, tmp_path):
        idx, _ = self.make_index(n=1)
        path = tmp_path / "i.rgbv"
        save(idx, path)
        data = bytearray(path.read_bytes())
        data[4] = 9
        # keep CRC consistent so the version check is what fires
        import zlib
        body = bytes(data[:-4])
        data[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load(path)
