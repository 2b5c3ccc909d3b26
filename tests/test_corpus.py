import io
import json

import pytest

from ragbench.corpus import (Document, dedup, ingest_text_dir, load_corpus,
                             parse_reddit_jsonl, save_corpus)
from ragbench.errors import (EmptyCorpus, MalformedLine, PathNotFound,
                             RagBenchError)


def reddit_line(**kw):
    base = {"id": "a1", "subreddit": "cybersecurity", "title": "T",
            "selftext": "B", "top_comment": "C", "score": 10, "created_utc": 0}
    base.update(kw)
    return json.dumps(base)


def as_stream(*lines):
    return io.StringIO("\n".join(lines) + "\n")


def test_parse_single_line():
    docs, stats = parse_reddit_jsonl(as_stream(reddit_line()))
    assert len(docs) == 1
    d = docs[0]
    assert d.id == "a1"
    assert d.source == "cybersecurity"
    assert d.body == "T\n\nB\n\nC"
    assert d.score == 10
    assert stats.documents_kept == 1


def test_parse_blank_segments_elided():
    docs, _ = parse_reddit_jsonl(as_stream(reddit_line(selftext="")))
    assert docs[0].body == "T\n\nC"


def test_parse_missing_text_fields_treated_empty():
    line = json.dumps({"id": "x", "subreddit": "s", "title": "only title"})
    docs, _ = parse_reddit_jsonl(as_stream(line))
    assert docs[0].body == "only title"
    assert docs[0].score == 0


def test_parse_empty_stream_raises():
    with pytest.raises(EmptyCorpus):
        parse_reddit_jsonl(io.StringIO(""))


def test_parse_lenient_skips_malformed():
    docs, stats = parse_reddit_jsonl(
        as_stream(reddit_line(id="a"), "{not json", reddit_line(id="b")),
        lenient=True,
    )
    assert [d.id for d in docs] == ["a", "b"]
    assert stats.lines_skipped == 1
    assert stats.documents_kept == 2


def test_parse_strict_aborts_with_line_number():
    with pytest.raises(MalformedLine) as exc:
        parse_reddit_jsonl(as_stream(reddit_line(), "{bad"), lenient=False)
    assert exc.value.line_no == 2


def test_parse_order_preserved():
    docs, _ = parse_reddit_jsonl(
        as_stream(*(reddit_line(id=f"d{i}") for i in range(10))))
    assert [d.id for d in docs] == [f"d{i}" for i in range(10)]


def test_parse_bytes_stream():
    docs, _ = parse_reddit_jsonl(io.BytesIO(reddit_line().encode() + b"\n"))
    assert docs[0].id == "a1"


def test_parse_strict_bytes_not_utf8_is_malformed_line():
    stream = io.BytesIO(reddit_line().encode() + b"\n\xff" + reddit_line(id="b").encode())
    with pytest.raises(MalformedLine) as exc:
        parse_reddit_jsonl(stream, lenient=False)
    assert exc.value.line_no == 2


def test_parse_lenient_bytes_not_utf8_skipped():
    stream = io.BytesIO(reddit_line().encode() + b"\n\xff{\n" + reddit_line(id="b").encode())
    docs, stats = parse_reddit_jsonl(stream, lenient=True)
    assert [d.id for d in docs] == ["a1", "b"]
    assert stats.lines_skipped == 1


def test_ingest_text_dir(tmp_path):
    (tmp_path / "notes.md").write_text("x")
    (tmp_path / "img.png").write_bytes(b"\x89PNG")
    sub = tmp_path / "unit1"
    sub.mkdir()
    (sub / "lec.txt").write_text("lecture")
    docs = ingest_text_dir(tmp_path)
    assert [d.id for d in docs] == ["notes.md", "unit1/lec.txt"]
    assert docs[0].body == "x"
    assert docs[0].title == "notes"
    assert docs[1].source == "unit1/lec.txt"


def test_ingest_empty_dir(tmp_path):
    with pytest.raises(EmptyCorpus):
        ingest_text_dir(tmp_path)


def test_ingest_text_dir_not_utf8_names_file(tmp_path):
    (tmp_path / "ok.md").write_text("fine")
    (tmp_path / "bad.txt").write_bytes(b"caf\xff")
    with pytest.raises(RagBenchError, match="bad.txt is not UTF-8"):
        ingest_text_dir(tmp_path)


def test_ingest_missing_path(tmp_path):
    with pytest.raises(PathNotFound):
        ingest_text_dir(tmp_path / "nope")


def make_doc(i, body):
    return Document(id=f"d{i}", source="s", title="", body=body)


def test_dedup_whitespace_normalized():
    docs = [make_doc(0, "a  b"), make_doc(1, "a b")]
    kept, stats = dedup(docs)
    assert [d.id for d in kept] == ["d0"]
    assert stats.duplicates_removed == 1


def test_dedup_distinct_kept():
    kept, stats = dedup([make_doc(0, "a"), make_doc(1, "b")])
    assert len(kept) == 2
    assert stats.duplicates_removed == 0


def test_dedup_case_folded():
    docs = [make_doc(0, "A b"), make_doc(1, "a B"), make_doc(2, "c")]
    kept, _ = dedup(docs)
    assert [d.id for d in kept] == ["d0", "d2"]


def test_dedup_idempotent():
    docs = [make_doc(i, b) for i, b in enumerate(["x", "X", "y", "x  ", "z"])]
    once, _ = dedup(docs)
    twice, stats = dedup(once)
    assert twice == once
    assert stats.duplicates_removed == 0


def test_dedup_stability():
    docs = [make_doc(i, b) for i, b in enumerate("abcabcdd")]
    kept, _ = dedup(docs)
    ids = [d.id for d in kept]
    assert ids == sorted(ids, key=lambda x: int(x[1:]))


def test_store_round_trip(tmp_path):
    docs = [
        Document(id="a", source="s", title="t", body="héllo\nwörld", score=3,
                 created_at=123),
        Document(id="b", source="dir/f.md", title="f", body="plain"),
    ]
    path = tmp_path / "store.jsonl"
    save_corpus(docs, path)
    assert load_corpus(path) == docs
    # field order on disk is fixed
    first = json.loads(path.read_text().splitlines()[0])
    assert list(first) == ["id", "source", "title", "body", "score", "created_at"]


def test_load_corpus_missing(tmp_path):
    with pytest.raises(PathNotFound):
        load_corpus(tmp_path / "nope.jsonl")
