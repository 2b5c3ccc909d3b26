"""Corpus ingestion: Reddit-style JSONL exports and text/markdown directories.

Documents are normalized into a uniform store (JSONL, one document per line:
its id and its body) with an optional exact-after-normalization dedup pass.
Other fields, of an export line or of an older store's line, are ignored.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import IO, Callable, Iterable

from .errors import InvalidConfig, MalformedLine, RagBenchError

# a stored document's fields and their types
_FIELDS = {"id": (str,), "body": (str,)}
# the fields read from a Reddit export line; the text ones may be null or absent
_REDDIT_FIELDS = {"id": (str,), **dict.fromkeys(
    ("title", "selftext", "top_comment"), (str, type(None)))}


@dataclass(frozen=True)
class Document:
    id: str
    body: str


def compose_body(title: str, selftext: str, top_comment: str) -> str:
    """Join title, post text and top answer into one retrievable unit,
    dropping empty segments."""
    segments = [s.strip() for s in (title, selftext, top_comment)]
    return "\n\n".join(s for s in segments if s)


def read_jsonl(stream: IO[bytes], parse: Callable, lenient: bool = False) -> tuple[list, int]:
    """(parse(obj) of each non-blank line of a binary JSONL stream, the
    number of lines skipped). A UTF-8 byte-order mark that starts a line,
    as Windows tools write at the start of a file, is dropped. A line that
    is not UTF-8 or not JSON, that parse rejects, or whose record's .id an
    earlier one has, raises MalformedLine naming it; in lenient mode it is
    skipped and counted."""
    records, seen, skipped = [], set(), 0
    for line_no, raw in enumerate(stream, start=1):
        try:
            line = raw.decode("utf-8-sig")
            if not line.strip():
                continue
            record = parse(json.loads(line))
            if record.id in seen:
                raise ValueError(f"duplicate id {record.id!r}")
        # decode and JSON errors are ValueErrors, deep nesting a RecursionError;
        # a bad field is a data error here even where its check calls it config
        except (ValueError, TypeError, RecursionError, InvalidConfig) as exc:
            if not lenient:
                raise MalformedLine(line_no, str(exc)) from exc
            skipped += 1
            continue
        seen.add(record.id)
        records.append(record)
    return records, skipped


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write each record as one JSON line, keys in dict order, to path:
    UTF-8 with non-ASCII text kept raw, LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for record in records:
            f.write(json.dumps(record, ensure_ascii=False) + "\n")


def check_fields(obj, fields: dict[str, tuple[type, ...]]) -> None:
    """Raise TypeError unless obj is a JSON object whose named fields each have
    one of their types (absent reads as None); InvalidConfig if one is not
    UTF-8, which read_jsonl reports as a malformed line."""
    if type(obj) is not dict:
        raise TypeError("not a JSON object")
    for name, kinds in fields.items():
        # type(), not isinstance: JSON true is a bool, and bool is an int
        if type(value := obj.get(name)) not in kinds:
            raise TypeError(f"field {name!r} missing or not a "
                            + " or ".join(k.__name__ for k in kinds))
        if type(value) is str:
            try:  # a lone surrogate escape, as from a cut emoji, does not encode
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise InvalidConfig(f"field {name!r} is not UTF-8 text: {exc.reason}") from exc


def _doc_from_reddit_obj(obj) -> Document:
    check_fields(obj, _REDDIT_FIELDS)
    if not obj["id"]:
        raise ValueError("empty 'id'")
    title = obj.get("title") or ""
    selftext = obj.get("selftext") or ""
    top_comment = obj.get("top_comment") or ""
    body = compose_body(title, selftext, top_comment)
    if not body:
        raise ValueError("all text fields empty")
    return Document(id=obj["id"], body=body)


def parse_reddit_jsonl(stream: IO[bytes], lenient: bool = True) -> tuple[list[Document], int]:
    """Parse a binary Reddit-export JSONL stream into (its Documents in
    order, the number of lines skipped) with read_jsonl: in lenient mode
    malformed lines are skipped and counted, in strict mode the first raises
    MalformedLine."""
    docs, skipped = read_jsonl(stream, _doc_from_reddit_obj, lenient)
    if not docs:
        raise RagBenchError("no documents parsed from stream")
    return docs, skipped


def ingest_text_dir(path: str | Path) -> list[Document]:
    """One Document per .txt/.md file under path (recursive), id = relative
    path, sorted by id. Empty files are skipped, and a leading UTF-8
    byte-order mark is dropped."""
    root = Path(path)
    os.listdir(root)  # FileNotFoundError or NotADirectoryError, where rglob finds nothing
    docs = []
    for p in sorted(root.rglob("*")):
        if not p.is_file() or p.suffix.lower() not in (".txt", ".md"):
            continue
        rel = p.relative_to(root).as_posix()
        try:
            rel.encode("utf-8")  # name bytes that do not decode are lone surrogates
            body = p.read_text(encoding="utf-8-sig")
        except UnicodeEncodeError as exc:
            raise RagBenchError(f"file name {rel!r} is not UTF-8 text: {exc.reason}") from exc
        except UnicodeDecodeError as exc:
            raise RagBenchError(f"{p} is not UTF-8 text: {exc.reason}") from exc
        if body.strip():
            docs.append(Document(id=rel, body=body))
    docs.sort(key=lambda d: d.id)
    if not docs:
        raise RagBenchError(f"no .txt/.md files under {path}")
    return docs


def dedup(docs: list[Document]) -> list[Document]:
    """Collapse documents with identical whitespace-normalized, case-folded
    bodies to the earliest occurrence; survivor order is input order."""
    first: dict[str, Document] = {}
    for doc in docs:
        first.setdefault(" ".join(doc.body.split()).casefold(), doc)
    return list(first.values())


def save_corpus(docs: Iterable[Document], path: str | Path) -> None:
    """Persist the document store with write_jsonl, fields in Document's order."""
    write_jsonl(path, map(asdict, docs))


def _stored_document(obj) -> Document:
    check_fields(obj, _FIELDS)
    return Document(**{name: obj[name] for name in _FIELDS})


def load_corpus(path: str | Path) -> list[Document]:
    """Read a document store written by save_corpus. A line that is not
    UTF-8, not JSON or not a document, or that repeats an id, raises
    MalformedLine."""
    with open(path, "rb") as f:
        docs, _ = read_jsonl(f, _stored_document)
    if not docs:
        raise RagBenchError(f"no documents in {path}")
    return docs
