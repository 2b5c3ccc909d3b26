import pytest
from hypothesis import given, settings, strategies as st

from ragbench.chunker import Chunk, ChunkConfig, chunk_corpus, chunk_text
from ragbench.corpus import Document
from ragbench.errors import InvalidConfig


def doc(doc_id, body):
    return Document(id=doc_id, source="s", title="", body=body)


def test_basic_no_overlap():
    assert chunk_text("abcdefghij", ChunkConfig(4, 0)) == ["abcd", "efgh", "ij"]


def test_overlap_stops_at_end():
    assert chunk_text("abcdefghij", ChunkConfig(4, 2)) == ["abcd", "cdef", "efgh", "ghij"]


def test_codepoint_not_byte_slicing():
    assert chunk_text("héllo", ChunkConfig(2, 0)) == ["hé", "ll", "o"]


def test_offsets():
    # chunk seq is the window text[seq * stride:][:size]
    chunks = chunk_corpus([doc("d", "abcdefghij")], ChunkConfig(4, 1))
    assert [(c.ref, c.text) for c in chunks] == \
        [(("d", 0), "abcd"), (("d", 1), "defg"), (("d", 2), "ghij")]


def test_chunks_are_the_pairs_index_takes():
    chunks = chunk_corpus([doc("a", "12345"), doc("b", "6789")], ChunkConfig(3, 0))
    assert chunks == [(("a", 0), "123"), (("a", 1), "45"), (("b", 0), "678"), (("b", 1), "9")]
    assert all(isinstance(c, Chunk) for c in chunks)


@pytest.mark.parametrize("size,overlap", [(0, 0), (-1, 0), (4, 4), (4, 5), (3, -1)])
def test_invalid_config(size, overlap):
    with pytest.raises(InvalidConfig):
        ChunkConfig(size, overlap)


def test_chunk_corpus_order_and_ids():
    docs = [Document(id="a", source="s", title="", body="12345"),
            Document(id="b", source="s", title="", body="67890")]
    chunks = chunk_corpus(docs, ChunkConfig(5, 0))
    assert [c.ref for c in chunks] == [("a", 0), ("b", 0)]


def test_chunk_corpus_8000_cp_doc():
    docs = [Document(id="a", source="s", title="", body="x" * 8000)]
    assert len(chunk_corpus(docs, ChunkConfig(250, 0))) == 32


def test_chunk_corpus_deterministic():
    docs = [Document(id=f"d{i}", source="s", title="", body="abc" * 50)
            for i in range(5)]
    cfg = ChunkConfig(40, 10)
    assert chunk_corpus(docs, cfg) == chunk_corpus(docs, cfg)


cfg_and_text = st.tuples(
    st.text(min_size=1, max_size=300),
    st.integers(min_value=1, max_value=64),
).flatmap(lambda tc: st.tuples(
    st.just(tc[0]),
    st.just(tc[1]),
    st.integers(min_value=0, max_value=tc[1] - 1),
))


@settings(max_examples=300)
@given(cfg_and_text)
def test_property_bounds_and_coverage(params):
    text, size, overlap = params
    cfg = ChunkConfig(size, overlap)
    chunks = chunk_text(text, cfg)
    assert chunks, "non-empty text always yields at least one chunk"
    assert chunk_corpus([doc("d", text)], cfg) == [(("d", k), c) for k, c in enumerate(chunks)]
    n = len(text)
    covered = set()
    for k, c in enumerate(chunks):
        start = k * cfg.stride
        assert 0 < len(c) <= size
        assert c == text[start:start + size]
        assert c.encode("utf-8").decode("utf-8") == c
        covered.update(range(start, start + len(c)))
    assert covered == set(range(n))
    # all but the last chunk are full-size
    for c in chunks[:-1]:
        assert len(c) == size


@settings(max_examples=200)
@given(st.text(min_size=1, max_size=300), st.integers(min_value=1, max_value=64))
def test_property_concat_identity_zero_overlap(text, size):
    chunks = chunk_text(text, ChunkConfig(size, 0))
    assert "".join(chunks) == text


@settings(max_examples=100)
@given(st.text(min_size=1, max_size=200),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=40))
def test_property_count_monotone_in_size(text, size_a, size_b):
    small, big = sorted([size_a, size_b])
    n_small = len(chunk_text(text, ChunkConfig(small, 0)))
    n_big = len(chunk_text(text, ChunkConfig(big, 0)))
    assert n_big <= n_small
