from hypothesis import given, settings, strategies as st

from ragbench.chunker import Chunk, chunk_corpus, chunk_text
from ragbench.corpus import Document


def doc(doc_id, body):
    return Document(id=doc_id, body=body)


def test_basic_no_overlap():
    assert chunk_text("abcdefghij", 4) == ["abcd", "efgh", "ij"]


def test_codepoint_not_byte_slicing():
    assert chunk_text("héllo", 2) == ["hé", "ll", "o"]


def test_offsets():
    # chunk seq is the window text[seq * size:][:size]
    chunks = chunk_corpus([doc("d", "abcdefghij")], 3)
    assert [(c.ref, c.text) for c in chunks] == \
        [(("d", 0), "abc"), (("d", 1), "def"), (("d", 2), "ghi"), (("d", 3), "j")]


def test_chunks_are_the_pairs_index_takes():
    chunks = chunk_corpus([doc("a", "12345"), doc("b", "6789")], 3)
    assert chunks == [(("a", 0), "123"), (("a", 1), "45"), (("b", 0), "678"), (("b", 1), "9")]
    assert all(isinstance(c, Chunk) for c in chunks)


def test_chunk_corpus_order_and_ids():
    docs = [Document(id="a", body="12345"),
            Document(id="b", body="67890")]
    chunks = chunk_corpus(docs, 5)
    assert [c.ref for c in chunks] == [("a", 0), ("b", 0)]


def test_chunk_corpus_8000_cp_doc():
    docs = [Document(id="a", body="x" * 8000)]
    assert len(chunk_corpus(docs, 250)) == 32


def test_chunk_corpus_deterministic():
    docs = [Document(id=f"d{i}", body="abc" * 50)
            for i in range(5)]
    assert chunk_corpus(docs, 40) == chunk_corpus(docs, 40)


@settings(max_examples=300)
@given(st.text(min_size=1, max_size=300), st.integers(min_value=1, max_value=64))
def test_property_bounds_and_coverage(text, size):
    chunks = chunk_text(text, size)
    assert chunks, "non-empty text always yields at least one chunk"
    assert chunk_corpus([doc("d", text)], size) == [(("d", k), c) for k, c in enumerate(chunks)]
    n = len(text)
    covered = set()
    for k, c in enumerate(chunks):
        start = k * size
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
    assert "".join(chunk_text(text, size)) == text


@settings(max_examples=100)
@given(st.text(min_size=1, max_size=200),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=40))
def test_property_count_monotone_in_size(text, size_a, size_b):
    small, big = sorted([size_a, size_b])
    n_small = len(chunk_text(text, small))
    n_big = len(chunk_text(text, big))
    assert n_big <= n_small
