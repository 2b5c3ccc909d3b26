import io
import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ragbench.corpus import (Document, dedup, ingest_text_dir, load_corpus,
                             parse_reddit_jsonl, read_jsonl, save_corpus, write_jsonl)
from ragbench.errors import MalformedLine, RagBenchError
from ragbench.metrics import load_qa_jsonl


def reddit_line(**kw):
    base = {"id": "a1", "subreddit": "cybersecurity", "title": "T",
            "selftext": "B", "top_comment": "C", "score": 10, "created_utc": 0}
    base.update(kw)
    return json.dumps(base)


def as_stream(*lines):
    return io.BytesIO(("\n".join(lines) + "\n").encode())


def test_parse_single_line():
    docs, skipped = parse_reddit_jsonl(as_stream(reddit_line()))
    assert len(docs) == 1
    assert docs == [Document(id="a1", body="T\n\nB\n\nC")]
    assert skipped == 0


def test_parse_blank_segments_elided():
    docs, _ = parse_reddit_jsonl(as_stream(reddit_line(selftext="")))
    assert docs[0].body == "T\n\nC"


def test_parse_missing_text_fields_treated_empty():
    line = json.dumps({"id": "x", "subreddit": "s", "title": "only title"})
    docs, _ = parse_reddit_jsonl(as_stream(line))
    assert docs == [Document(id="x", body="only title")]


def test_parse_null_text_fields_treated_empty():
    line = json.dumps({"id": "x", "subreddit": None, "title": "only title",
                       "selftext": None, "top_comment": None})
    docs, _ = parse_reddit_jsonl(as_stream(line))
    assert docs == [Document(id="x", body="only title")]


@pytest.mark.parametrize("field, value", [
    ("title", {"x": 1}), ("selftext", 5), ("top_comment", ["a"])])
def test_parse_text_field_of_wrong_type_is_malformed(field, value):
    lines = (reddit_line(id="a"), reddit_line(id="b", **{field: value}))
    docs, skipped = parse_reddit_jsonl(as_stream(*lines), lenient=True)
    assert [d.id for d in docs] == ["a"]
    assert skipped == 1
    with pytest.raises(MalformedLine) as exc:
        parse_reddit_jsonl(as_stream(*lines), lenient=False)
    assert exc.value.line_no == 2
    assert f"field {field!r} missing or not a str" in str(exc.value)


@pytest.mark.parametrize("field", ["score", "created_utc"])
@pytest.mark.parametrize("value", [True, 1.9, "17", math.nan, math.inf, -math.inf])
def test_parse_number_field_not_whole_is_malformed(field, value):
    # an export's numbers are not read, so no value of theirs, whole or not,
    # makes a line malformed: it is kept with its body in either mode
    lines = (reddit_line(id="a"), reddit_line(id="b", **{field: value}))
    for lenient in (True, False):
        docs, skipped = parse_reddit_jsonl(as_stream(*lines), lenient=lenient)
        assert docs == [Document(id="a", body="T\n\nB\n\nC"),
                        Document(id="b", body="T\n\nB\n\nC")]
        assert skipped == 0


@pytest.mark.parametrize("value", [True, 7, ["s"], {"x": 1}])
def test_parse_subreddit_is_not_read(value):
    docs, skipped = parse_reddit_jsonl(as_stream(reddit_line(subreddit=value)), lenient=False)
    assert (docs, skipped) == ([Document(id="a1", body="T\n\nB\n\nC")], 0)


@pytest.mark.parametrize("value, stored", [
    (17, 17), (-3, -3), (1600000000.0, 1600000000), (-0.0, 0), (None, 0)])
def test_parse_number_field_whole_or_null_is_stored(value, stored):
    # neither number is stored: a line reads the same whichever of the two it holds
    docs = [parse_reddit_jsonl(as_stream(reddit_line(score=v, created_utc=v)), lenient=False)[0]
            for v in (value, stored)]
    assert docs[0] == docs[1] == [Document(id="a1", body="T\n\nB\n\nC")]


def test_parse_deep_nesting_is_malformed():
    nested = b'{"id": "a", "x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    stream = io.BytesIO(reddit_line(id="b").encode() + b"\n" + nested + b"\n")
    docs, skipped = parse_reddit_jsonl(stream, lenient=True)
    assert [d.id for d in docs] == ["b"]
    assert skipped == 1
    with pytest.raises(MalformedLine) as exc:
        parse_reddit_jsonl(io.BytesIO(stream.getvalue()), lenient=False)
    assert exc.value.line_no == 2


def test_parse_empty_stream_raises():
    with pytest.raises(RagBenchError, match=r"^no documents parsed from stream$"):
        parse_reddit_jsonl(io.BytesIO(b""))


def test_parse_lenient_skips_malformed():
    docs, skipped = parse_reddit_jsonl(
        as_stream(reddit_line(id="a"), "{not json", reddit_line(id="b")),
        lenient=True,
    )
    assert [d.id for d in docs] == ["a", "b"]
    assert skipped == 1


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
    docs, skipped = parse_reddit_jsonl(stream, lenient=True)
    assert [d.id for d in docs] == ["a1", "b"]
    assert skipped == 1


def test_parse_leading_bom_keeps_first_post():
    stream = io.BytesIO(b"\xef\xbb\xbf" + reddit_line().encode() + b"\n"
                        + reddit_line(id="b").encode())
    docs, skipped = parse_reddit_jsonl(stream, lenient=True)
    assert [d.id for d in docs] == ["a1", "b"]
    assert skipped == 0


def test_parse_lenient_string_not_utf8_skipped():
    # the same line that strict mode rejects: no U+FFFD text is kept
    stream = io.BytesIO(reddit_line().encode() + b'\n{"id":"x","title":"caf\xff"}\n')
    docs, skipped = parse_reddit_jsonl(stream, lenient=True)
    assert [d.id for d in docs] == ["a1"]
    assert skipped == 1
    with pytest.raises(MalformedLine):
        parse_reddit_jsonl(io.BytesIO(stream.getvalue()), lenient=False)


def test_ingest_text_dir(tmp_path):
    (tmp_path / "notes.md").write_text("x")
    (tmp_path / "img.png").write_bytes(b"\x89PNG")
    sub = tmp_path / "unit1"
    sub.mkdir()
    (sub / "lec.txt").write_text("lecture")
    docs = ingest_text_dir(tmp_path)
    assert docs == [Document(id="notes.md", body="x"),
                    Document(id="unit1/lec.txt", body="lecture")]


def test_ingest_text_dir_drops_bom(tmp_path):
    # a copy saved with a byte-order mark has the plain copy's body
    (tmp_path / "plain.md").write_bytes("Café notes".encode())
    (tmp_path / "windows.md").write_bytes("\ufeffCafé notes".encode())
    docs = ingest_text_dir(tmp_path)
    assert [d.body for d in docs] == ["Café notes"] * 2
    assert [d.id for d in dedup(docs)] == ["plain.md"]


def test_ingest_empty_dir(tmp_path):
    with pytest.raises(RagBenchError, match=r"^no \.txt/\.md files under "):
        ingest_text_dir(tmp_path)


def test_ingest_text_dir_not_utf8_names_file(tmp_path):
    (tmp_path / "ok.md").write_text("fine")
    (tmp_path / "bad.txt").write_bytes(b"caf\xff")
    with pytest.raises(RagBenchError, match="bad.txt is not UTF-8"):
        ingest_text_dir(tmp_path)


def test_ingest_missing_path(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest_text_dir(tmp_path / "nope")


def make_doc(i, body):
    return Document(id=f"d{i}", body=body)


def test_dedup_whitespace_normalized():
    docs = [make_doc(0, "a  b"), make_doc(1, "a b")]
    assert [d.id for d in dedup(docs)] == ["d0"]


def test_dedup_distinct_kept():
    assert len(dedup([make_doc(0, "a"), make_doc(1, "b")])) == 2


def test_dedup_case_folded():
    docs = [make_doc(0, "A b"), make_doc(1, "a B"), make_doc(2, "c")]
    assert [d.id for d in dedup(docs)] == ["d0", "d2"]


def test_dedup_idempotent():
    docs = [make_doc(i, b) for i, b in enumerate(["x", "X", "y", "x  ", "z"])]
    once = dedup(docs)
    assert dedup(once) == once


def test_dedup_stability():
    docs = [make_doc(i, b) for i, b in enumerate("abcabcdd")]
    ids = [d.id for d in dedup(docs)]
    assert ids == sorted(ids, key=lambda x: int(x[1:]))


def test_store_round_trip(tmp_path):
    docs = [Document(id="a", body="héllo\nwörld"), Document(id="b", body="plain")]
    path = tmp_path / "store.jsonl"
    save_corpus(docs, path)
    assert load_corpus(path) == docs
    # a stored document is its id and its body, in that order
    assert path.read_text(encoding="utf-8") == \
        '{"id": "a", "body": "héllo\\nwörld"}\n{"id": "b", "body": "plain"}\n'


def test_load_corpus_reads_six_field_store(tmp_path):
    # a store whose lines also carry source, title, score and created_at, as
    # stores once did, loads; saving it again keeps only id and body
    path = tmp_path / "store.jsonl"
    path.write_text(json.dumps({"id": "a", "source": "s", "title": "t", "body": "b1",
                                "score": 3, "created_at": 123}) + "\n"
                    + json.dumps({"id": "b", "source": "dir/f.md", "title": "f",
                                  "body": "b2", "score": 0, "created_at": 0}) + "\n")
    docs = load_corpus(path)
    assert docs == [Document(id="a", body="b1"), Document(id="b", body="b2")]
    save_corpus(docs, path)
    assert [json.loads(line) for line in path.read_text().splitlines()] == \
        [{"id": "a", "body": "b1"}, {"id": "b", "body": "b2"}]


def test_write_jsonl_round_trip(tmp_path):
    # non-ASCII text stays raw UTF-8, keys keep dict order, lines end in LF only
    records = [{"z": "café 🙂", "a": 1, "m": None}, {"id": "line\nbreak", "x": [1.5]}]
    path = tmp_path / "out.jsonl"
    write_jsonl(path, iter(records))
    data = path.read_bytes()
    assert data == ('{"z": "café 🙂", "a": 1, "m": null}\n'
                    '{"id": "line\\nbreak", "x": [1.5]}\n').encode("utf-8")
    assert b"\r" not in data and data.count(b"\n") == 2
    with open(path, "rb") as f:  # read_jsonl wants an id; each line is its own
        parsed, skipped = read_jsonl(f, lambda obj: SimpleNamespace(id=repr(obj), obj=obj))
    assert ([r.obj for r in parsed], skipped) == (records, 0)


def test_load_corpus_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path / "nope.jsonl")


def store_line(**kw):
    base = {"id": "a", "body": "b"}
    base.update(kw)
    return json.dumps({k: v for k, v in base.items() if v is not None})


def test_load_corpus_not_utf8_is_malformed_line(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_bytes(store_line().encode() + b"\n" + store_line(id="T").encode()
                     .replace(b'"T"', b'"caf\xff"') + b"\n")
    with pytest.raises(MalformedLine) as exc:
        load_corpus(path)
    assert exc.value.line_no == 2
    assert isinstance(exc.value.__cause__, UnicodeDecodeError)


@pytest.mark.parametrize("field", [
    {"body": 5}, {"id": 1}, {"body": None}, {"id": ["a"]}, {"body": True},
    {"id": False}, {"body": 1.5}, {"id": {"a": 1}}])
def test_load_corpus_field_of_wrong_type_is_malformed_line(tmp_path, field):
    path = tmp_path / "store.jsonl"
    path.write_text(store_line() + "\n" + store_line(**field) + "\n")
    with pytest.raises(MalformedLine) as exc:
        load_corpus(path)
    assert exc.value.line_no == 2
    assert repr(next(iter(field))) in str(exc.value)


@pytest.mark.parametrize("field", [
    {"title": None}, {"source": ["s"]}, {"score": "3"}, {"score": True},
    {"created_at": 1.5}, {"created_at": False}])
def test_load_corpus_other_field_of_any_type_is_ignored(tmp_path, field):
    path = tmp_path / "store.jsonl"
    path.write_text(store_line(**field) + "\n")
    assert load_corpus(path) == [Document(id="a", body="b")]


def test_load_corpus_line_not_an_object_is_malformed_line(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text(store_line() + "\n\n[1, 2]\n")
    with pytest.raises(MalformedLine) as exc:
        load_corpus(path)
    assert exc.value.line_no == 3


# values of every JSON kind, with ids that repeat and the floats NaN,
# Infinity and ones beyond int range among them; lines are arbitrary bytes,
# any such value, or an object whose fields the readers look up are each
# absent, of their own kind or (in half the objects) any value
_IDS = st.sampled_from(["a", "b", 1, True])
_NUMBERS = st.integers() | st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, 1e300])
_VALUES = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=4) | _IDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
_OWN_KIND = {"id": _IDS, "score": _NUMBERS, "created_utc": _NUMBERS, "created_at": _NUMBERS,
             **dict.fromkeys(["title", "selftext", "top_comment", "subreddit", "source",
                              "body", "question", "ground_truth"], st.text(max_size=4))}
_OBJECTS = (st.fixed_dictionaries({}, optional=_OWN_KIND)
            | st.fixed_dictionaries({}, optional={k: v | _VALUES for k, v in _OWN_KIND.items()}))
_LINES = st.one_of(st.binary(max_size=12), _VALUES.map(lambda v: json.dumps(v).encode()),
                   _OBJECTS.map(lambda v: json.dumps(v).encode()))


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_LINES, max_size=5), lenient=st.booleans())
@example(lines=[b'{"id": "a", "title": "t"}', b'{"id": "a", "title": "u"}',
                b'{"id": "b", "title": "t", "score": 1e400}'], lenient=True)
@example(lines=[b'{"id": "b", "title": "t"}',
                b'{"id": "a", "x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"], lenient=True)
@example(lines=[b"[" * 100_000 + b"]" * 100_000], lenient=False)
def test_readers_raise_only_data_errors(tmp_path, lines, lenient):
    # each reader returns records or raises a data error, never another exception
    data = b"\n".join(lines) + b"\n"
    path = tmp_path / "input.jsonl"
    path.write_bytes(data)
    try:
        parse_reddit_jsonl(io.BytesIO(data), lenient=lenient)
    except MalformedLine:
        assert not lenient
    except RagBenchError as exc:
        assert str(exc) == "no documents parsed from stream"
    for read, empty in ((load_corpus, f"no documents in {path}"),
                        (load_qa_jsonl, f"no QA items in {path}")):
        try:
            read(path)
        except MalformedLine:
            pass
        except RagBenchError as exc:
            assert str(exc) == empty
