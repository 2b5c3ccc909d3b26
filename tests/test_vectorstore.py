import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import ragbench.vectorstore as vs_mod
from ragbench.errors import RagBenchError
from ragbench.vectorstore import Index

from oracles import Entry, oracle_text_topk, oracle_topk


def vec(*values):
    return np.array(values, dtype=np.float64)


def rand_vec(rng, dim):
    return np.array([rng.uniform(-1, 1) for _ in range(dim)])


def entry(doc_id, seq, vector, text=""):
    return Entry(chunk_ref=(doc_id, seq), vector=vector, text=text or f"{doc_id}/{seq}")


def index_of(entries):
    """An Index that gives each entry's text, distinct here, its vector."""
    return Index([(e.chunk_ref, e.text) for e in entries], {e.text: e.vector for e in entries})


class TestBuild:
    def test_basic(self):
        idx = index_of([entry("a", 0, vec(1, 0)), entry("a", 1, vec(0, 1))])
        assert [h.chunk_ref for h in idx.query_topk([vec(1, 0)], 3)[0]] == [("a", 0), ("a", 1)]
        assert idx.dim == 2

    def test_chunks_share_rows(self):
        # chunks of one text are one hit, at the smallest ref, with the
        # other refs ascending; k counts texts, not chunks
        idx = Index([(("c", 0), "x"), (("a", 1), "y"), (("a", 0), "x"), (("b", 0), "x")],
                    {"x": vec(1, 0), "y": vec(0, 1)})
        hits = idx.query_topk([vec(1, 0)], 4)[0]
        assert [(h.chunk_ref, h.score, h.text, h.also) for h in hits] == \
            [(("a", 0), 1.0, "x", (("b", 0), ("c", 0))), (("a", 1), 0.0, "y", ())]
        assert [h.chunk_ref for h in idx.query_topk([vec(1, 0)], 2)[0]] == [("a", 0), ("a", 1)]

    def test_one_text_one_hit(self):
        # two chunks of one text share its row; a row no chunk's text names,
        # as build_index's rows of other sizes' texts, is neither indexed nor
        # checked for its dim
        idx = Index([(("b", 0), "x"), (("a", 3), "x")], {"x": vec(1, 0), "z": vec(1, 0, 0)})
        hits = idx.query_topk([vec(1, 0)], 2)[0]
        assert [(h.chunk_ref, h.text, h.also) for h in hits] == [(("a", 3), "x", (("b", 0),))]

    def test_dim_mismatch(self):
        with pytest.raises(RagBenchError, match=r"^row dims disagree: \[2, 3\]$"):
            index_of([entry("a", 0, vec(1, 0)), entry("b", 0, vec(1, 0, 0))])

    def test_empty(self):
        with pytest.raises(RagBenchError, match=r"^cannot build index from zero chunks$"):
            Index([], {})


class TestQuery:
    def test_top1(self):
        idx = index_of([entry("e1", 0, vec(1, 0)), entry("e2", 0, vec(0, 1))])
        hits = idx.query_topk([vec(1, 0)], 1)[0]
        assert len(hits) == 1
        assert hits[0].chunk_ref == ("e1", 0)
        assert hits[0].score == pytest.approx(1.0)
        assert hits[0].text == "e1/0"

    def test_k_clamped(self):
        idx = index_of([entry("a", 0, vec(1, 0)), entry("b", 0, vec(0, 1))])
        assert len(idx.query_topk([vec(1, 1)], 5)[0]) == 2

    def test_query_dim_mismatch(self, monkeypatch):
        # every row is checked before any is scored: a long row, a 2-D
        # array's rows, a short row after a good one, a 2-D row, and a bare
        # row, whose items are scalars
        idx = index_of([entry("a", 0, vec(1, 0))])
        monkeypatch.setattr(idx, "_topk_block", lambda *a: pytest.fail("a row was scored"))
        for queries, got in [([vec(1, 0, 0)], "3"), (np.zeros((3, 3)), "3"),
                             ([vec(1, 0), vec(1)], "1"), ([np.ones((1, 2))], r"\(1, 2\)"),
                             (vec(1, 0), r"\(\)")]:
            with pytest.raises(RagBenchError, match=rf"^query dim {got} != index dim 2$"):
                idx.query_topk(queries, 1)

    def test_empty_query_list(self):
        idx = index_of([entry("a", 0, vec(1, 0))])
        assert idx.query_topk([], 1) == []
        assert idx.query_topk(np.zeros((0, 2)), 1) == []

    def test_array_rows_equal_list_of_rows(self):
        rng = random.Random(13)
        idx = index_of([entry("d", i, rand_vec(rng, 8)) for i in range(30)])
        queries = np.stack([rand_vec(rng, 8) for _ in range(6)])
        assert idx.query_topk(queries, 4) == idx.query_topk(list(queries), 4)

    def test_tie_break_by_ref(self):
        idx = index_of([entry("b", 1, vec(1, 0)), entry("a", 2, vec(1, 0)),
                        entry("a", 1, vec(1, 0))])
        hits = idx.query_topk([vec(1, 0)], 3)[0]
        assert [h.chunk_ref for h in hits] == [("a", 1), ("a", 2), ("b", 1)]

    def test_zero_query_scores_zero(self):
        idx = index_of([entry("a", 0, vec(1, 0))])
        assert idx.query_topk([vec(0, 0)], 1)[0][0].score == 0.0

    def test_matches_oracle(self):
        rng = random.Random(7)
        entries = [entry(f"d{i // 10}", i % 10, rand_vec(rng, 32))
                   for i in range(500)]
        idx = index_of(entries)
        queries = [rand_vec(rng, 32) for _ in range(20)]
        for k in (1, 5, 10):
            # each query alone, and all of them stacked in one call
            stacked = idx.query_topk(np.stack(queries), k)
            for q, hits_in_stack in zip(queries, stacked):
                expected = oracle_topk(entries, q, k)
                for hits in (idx.query_topk([q], k)[0], hits_in_stack):
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
        idx = index_of(entries)
        n = len(entries)
        for q in [vec(1, 0, 0), vec(0, 1, 1), vec(1, 1, 1), vec(0, 0, 0), vec(-3, 0, 0)]:
            for k in (1, 3, n, n + 5):
                hits = idx.query_topk([q], k)[0]
                assert [h.chunk_ref for h in hits] == [r for _, r in oracle_topk(entries, q, k)]
                assert len(hits) == min(k, n)

    def test_nan_query_row_changes_only_its_own_hits(self):
        rng = random.Random(11)
        entries = [entry("d", i, rand_vec(rng, 8)) for i in range(40)]
        idx = index_of(entries)
        queries = np.stack([rand_vec(rng, 8) for _ in range(5)])
        queries[2, 3] = np.nan
        stacked = idx.query_topk(queries, 4)
        for i in (0, 1, 3, 4):
            alone = idx.query_topk([queries[i]], 4)[0]
            assert [h.chunk_ref for h in stacked[i]] == [h.chunk_ref for h in alone]
            assert [h.score for h in stacked[i]] == pytest.approx([h.score for h in alone], abs=1e-12)
        # every score of the NaN row is NaN, so the tie-break alone orders it
        assert [h.chunk_ref for h in stacked[2]] == [("d", i) for i in range(4)]
        assert all(math.isnan(h.score) for h in stacked[2])

    def test_mixed_block_equals_each_row_alone_and_the_oracle(self):
        # one block of five rows: NaN; all zero; three texts tied at the
        # k-th score, so more than k candidates; ordinary; and zero scores
        # beside a negative one. At k above the text count, every row keeps
        # every text. Rows and norms are exact, so one row scores the same
        # bits alone as in the block
        entries = [entry("d1", 0, vec(1, 0, 0, 0)), entry("d0", 1, vec(2, 0, 0, 0)),
                   entry("d1", 2, vec(4, 0, 0, 0)), entry("d0", 0, vec(0, 1, 0, 0)),
                   entry("d1", 1, vec(-1, 0, 0, 0)), entry("d2", 1, vec(0, 0, 2, 0)),
                   entry("d3", 0, vec(0, 0, 0, 1), "shared"),
                   entry("d0", 2, vec(0, 0, 0, 1), "shared")]
        idx = index_of(entries)
        queries = np.array([[np.nan, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0],
                            [-3, 4, 12, 0], [0, -1, 0, 0]])

        def bits(hit):
            return hit.chunk_ref, hit.also, hit.text, repr(hit.score)

        for k in (2, 10):
            stacked = idx.query_topk(queries, k)
            for q, hits in zip(queries, stacked):
                assert len(hits) == min(k, 7)
                assert list(map(bits, hits)) == list(map(bits, idx.query_topk([q], k)[0]))
                expected = oracle_text_topk(entries, q, k)
                assert [(h.chunk_ref, h.also) for h in hits] == [(r, a) for _, r, a in expected]
                for h, (score, _, _) in zip(hits, expected):
                    if math.isnan(score):
                        assert math.isnan(h.score)
                    else:
                        assert h.score == pytest.approx(score, abs=1e-12)
        # the NaN row in column order; the tied texts by smallest ref
        assert [h.chunk_ref for h in stacked[0][:3]] == [("d0", 0), ("d0", 1), ("d0", 2)]
        assert [h.chunk_ref for h in idx.query_topk(queries[2:3], 2)[0]] == [("d0", 1), ("d1", 0)]

    def test_full_permutation_sorted(self):
        rng = random.Random(3)
        entries = [entry("d", i, rand_vec(rng, 8)) for i in range(50)]
        idx = index_of(entries)
        hits = idx.query_topk([rand_vec(rng, 8)], 50)[0]
        assert sorted(h.chunk_ref for h in hits) == sorted(e.chunk_ref for e in entries)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)
        assert all(-1 - 1e-9 <= s <= 1 + 1e-9 for s in scores)


DIM = 4


def _refs(n):
    # refs in an order unrelated to insertion, so the tie-break shows
    return [(f"d{(i * 7) % 5}", i) for i in range(n)]


def _ks(n):
    return sorted({1, 3, max(n - 1, 1), n, n + 5})


# a positive power-of-two multiple of a unit axis, or a zero row: every
# score is a component of q over its norm, computed exactly alike here and
# by the oracle, and entries on one axis tie exactly
_AXIS_ROW = st.one_of(
    st.just(None),
    st.tuples(st.integers(0, DIM - 1), st.sampled_from([1, 2, 4, 8])))


@settings(max_examples=200)
@given(st.lists(_AXIS_ROW, min_size=1, max_size=30),
       st.lists(st.integers(-2, 2), min_size=DIM, max_size=DIM))
def test_partitioned_topk_equals_oracle_on_ties(rows, q):
    vectors = []
    for row in rows:
        v = np.zeros(DIM)
        if row is not None:
            v[row[0]] = row[1]
        vectors.append(v)
    entries = [entry(d, s, v) for (d, s), v in zip(_refs(len(rows)), vectors)]
    idx = index_of(entries)
    q = np.array(q, dtype=np.float64)
    for k in _ks(len(entries)):
        hits = idx.query_topk([q], k)[0]
        expected = oracle_topk(entries, q, k)
        assert [(h.score, h.chunk_ref) for h in hits] == expected


@settings(max_examples=200)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-2, 2), min_size=DIM, max_size=DIM),
             min_size=n, max_size=n),
    st.lists(st.integers(-2, 2), min_size=DIM, max_size=DIM))))
def test_partitioned_topk_is_prefix_of_full_order(data):
    # integer rows, many of them equal or zero: k < n takes the partition
    # path, k >= n the full sort, over the same scores
    rows, q = data
    entries = [entry(d, s, np.array(r, dtype=np.float64))
               for (d, s), r in zip(_refs(len(rows)), rows)]
    idx = index_of(entries)
    q = np.array(q, dtype=np.float64)
    full = idx.query_topk([q], len(entries))[0]
    for k in _ks(len(entries)):
        assert idx.query_topk([q], k)[0] == full[:k]


# a zero row, or one whose norm is a power of two: one nonzero entry, or
# DIM entries of one magnitude. Unit rows then hold only 0, +-1 and +-1/2,
# so every score is exact in any order of summation, on every matrix
# product path, and equal scores tie exactly
_EXACT_ROW = st.one_of(
    st.just([0] * DIM),
    st.tuples(st.integers(0, DIM - 1), st.sampled_from([-2, -1, 1, 2])).map(
        lambda t: [t[1] if i == t[0] else 0 for i in range(DIM)]),
    st.tuples(st.sampled_from([1, 2]),
              st.lists(st.sampled_from([-1, 1]), min_size=DIM, max_size=DIM)).map(
        lambda t: [t[0] * s for s in t[1]]))


@settings(max_examples=200)
@given(st.lists(_EXACT_ROW, min_size=1, max_size=30),
       st.lists(_EXACT_ROW, min_size=5, max_size=12),
       st.integers(1, 4))
def test_stacked_queries_equal_one_at_a_time(rows, queries, block_rows):
    entries = [entry(d, s, np.array(r, dtype=np.float64))
               for (d, s), r in zip(_refs(len(rows)), rows)]
    idx = index_of(entries)
    stack = np.array(queries, dtype=np.float64)
    # shrink the block budget so the stack spans several blocks
    old = vs_mod._SCORE_BLOCK_BYTES
    vs_mod._SCORE_BLOCK_BYTES = block_rows * 8 * len(entries)
    try:
        for k in _ks(len(entries)):
            stacked = idx.query_topk(stack, k)
            assert len(stacked) == len(stack)
            for q, hits in zip(stack, stacked):
                alone = idx.query_topk([q], k)[0]
                assert [h.chunk_ref for h in hits] == [h.chunk_ref for h in alone]
                expected = oracle_topk(entries, q, k)
                assert [h.chunk_ref for h in hits] == [r for _, r in expected]
                for h, (score, _) in zip(hits, expected):
                    assert h.score == pytest.approx(score, abs=1e-12)
    finally:
        vs_mod._SCORE_BLOCK_BYTES = old


def assert_one_hit_per_text(index, entries, queries, ks):
    """Each query's top k are the oracle's, over one entry per distinct
    text at its smallest ref, with the text's other refs in also."""
    for k in ks:
        for q, hits in zip(queries, index.query_topk(queries, k)):
            expected = oracle_text_topk(entries, q, k)
            assert [(h.chunk_ref, h.also) for h in hits] == [(r, a) for _, r, a in expected]
            for h, (score, _, _) in zip(hits, expected):
                assert h.score == pytest.approx(score, abs=1e-12)


def test_equal_text_ties_exact_in_shuffled_columns():
    # 50 distinct rows repeated over 1,914 chunks in shuffled columns: each
    # text is one hit however many chunks hold it, so the top k holds k texts
    rng = np.random.default_rng(20)
    rows = list(rng.standard_normal((50, 256)))
    row_of = rng.permutation(np.arange(1914) % 50)
    refs = [(f"d{i % 97:02d}", i // 97) for i in rng.permutation(1914)]
    idx = Index([(ref, f"text {r}") for ref, r in zip(refs, row_of)],
                {f"text {r}": row for r, row in enumerate(rows)})
    entries = [Entry(ref, rows[r], f"text {r}") for ref, r in zip(refs, row_of)]
    assert_one_hit_per_text(idx, entries, rng.standard_normal((8, 256)), (1, 4, 50, 1914))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(lambda d: st.tuples(
    st.lists(_EXACT_ROW, min_size=d, max_size=d),
    st.lists(st.integers(0, d - 1), min_size=1, max_size=200).flatmap(
        lambda row_of: st.tuples(st.just(row_of), st.permutations(range(len(row_of))))),
    st.lists(_EXACT_ROW, min_size=3, max_size=3))))
def test_equal_text_ties_exact(data):
    # exact rows, so equal scores tie exactly, and across texts as well as
    # within one: the smallest ref of each text orders them
    rows, (row_of, order), queries = data
    rows = [np.array(r, dtype=np.float64) for r in rows]
    refs = [(f"d{j % 7}", j) for j in order]
    idx = Index([(ref, f"text {r}") for ref, r in zip(refs, row_of)],
                {f"text {r}": row for r, row in enumerate(rows)})
    entries = [Entry(ref, rows[r], f"text {r}") for ref, r in zip(refs, row_of)]
    assert_one_hit_per_text(idx, entries, np.array(queries, dtype=np.float64),
                            _ks(len(set(row_of))))
