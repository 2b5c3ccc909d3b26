"""Corpus ingestion: Reddit-style JSONL exports and text/markdown directories.

Documents are normalized into a uniform store (JSONL, one document per line)
with an optional exact-after-normalization dedup pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import IO, Iterable

from .errors import EmptyCorpus, MalformedLine, PathNotFound, RagBenchError

# a stored document's fields, in their order on disk, and their types
_FIELDS = {"id": str, "source": str, "title": str, "body": str,
           "score": int, "created_at": int}


@dataclass(frozen=True)
class Document:
    id: str
    source: str
    title: str
    body: str
    score: int = 0
    created_at: int = 0


def compose_body(title: str, selftext: str, top_comment: str) -> str:
    """Join title, post text and top answer into one retrievable unit,
    dropping empty segments."""
    segments = [s.strip() for s in (title, selftext, top_comment)]
    return "\n\n".join(s for s in segments if s)


def _doc_from_reddit_obj(obj: dict) -> Document:
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    doc_id = obj.get("id")
    if not doc_id or not isinstance(doc_id, str):
        raise ValueError("missing or invalid 'id'")
    title = str(obj.get("title") or "")
    selftext = str(obj.get("selftext") or "")
    top_comment = str(obj.get("top_comment") or "")
    body = compose_body(title, selftext, top_comment)
    if not body:
        raise ValueError("all text fields empty")
    return Document(
        id=doc_id,
        source=str(obj.get("subreddit") or ""),
        title=title,
        body=body,
        score=int(obj.get("score") or 0),
        created_at=int(obj.get("created_utc") or 0),
    )


def parse_reddit_jsonl(stream: IO, lenient: bool = True) -> tuple[list[Document], int]:
    """Parse a Reddit-export JSONL stream into (its Documents in order, the
    number of lines skipped).

    In lenient mode malformed lines, such as one that is not UTF-8, are
    skipped and counted; in strict mode the first raises MalformedLine.
    """
    docs: list[Document] = []
    skipped = 0
    for line_no, raw in enumerate(stream, start=1):
        try:
            if isinstance(raw, bytes):
                raw = raw.decode("utf-8")  # UnicodeDecodeError is a ValueError
            if not raw.strip():
                continue
            obj = json.loads(raw)
            doc = _doc_from_reddit_obj(obj)
        except (json.JSONDecodeError, ValueError, TypeError) as exc:
            if not lenient:
                raise MalformedLine(line_no, str(exc)) from exc
            skipped += 1
            continue
        docs.append(doc)
    if not docs:
        raise EmptyCorpus("no documents parsed from stream")
    return docs, skipped


def ingest_text_dir(path: str | Path) -> list[Document]:
    """One Document per .txt/.md file under path (recursive), id = relative
    path, sorted by id. Empty files are skipped."""
    root = Path(path)
    if not root.is_dir():
        raise PathNotFound(str(path))
    docs = []
    for p in sorted(root.rglob("*")):
        if not p.is_file() or p.suffix.lower() not in (".txt", ".md"):
            continue
        try:
            body = p.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise RagBenchError(f"{p} is not UTF-8 text: {exc.reason}") from exc
        if not body.strip():
            continue
        rel = p.relative_to(root).as_posix()
        docs.append(Document(id=rel, source=rel, title=p.stem, body=body))
    docs.sort(key=lambda d: d.id)
    if not docs:
        raise EmptyCorpus(f"no .txt/.md files under {path}")
    return docs


def _dedup_key(body: str) -> str:
    return " ".join(body.split()).casefold()


def dedup(docs: list[Document]) -> list[Document]:
    """Collapse documents with identical whitespace-normalized, case-folded
    bodies to the earliest occurrence; survivor order is input order."""
    seen: set[str] = set()
    kept: list[Document] = []
    for doc in docs:
        key = _dedup_key(doc.body)
        if key in seen:
            continue
        seen.add(key)
        kept.append(doc)
    return kept


def save_corpus(docs: Iterable[Document], path: str | Path) -> None:
    """Persist the document store as JSONL, UTF-8, LF, fixed field order."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for doc in docs:
            d = asdict(doc)
            ordered = {k: d[k] for k in _FIELDS}
            f.write(json.dumps(ordered, ensure_ascii=False) + "\n")


def _stored_document(obj) -> Document:
    """The Document of one decoded store line; TypeError if a field is
    missing or of another type."""
    if not isinstance(obj, dict):
        raise TypeError("not a JSON object")
    for name, kind in _FIELDS.items():
        # type(), not isinstance: JSON true is a bool, and bool is an int
        if type(obj.get(name)) is not kind:
            raise TypeError(f"field {name!r} missing or not a {kind.__name__}")
    return Document(**{name: obj[name] for name in _FIELDS})


def load_corpus(path: str | Path) -> list[Document]:
    """Read a document store written by save_corpus. A line that is not
    UTF-8, not JSON or not a document raises MalformedLine."""
    p = Path(path)
    if not p.is_file():
        raise PathNotFound(str(path))
    docs = []
    with open(p, "rb") as f:
        for line_no, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    docs.append(_stored_document(json.loads(line)))
            except (ValueError, TypeError) as exc:  # decode and JSON errors are ValueErrors
                raise MalformedLine(line_no, str(exc)) from exc
    if not docs:
        raise EmptyCorpus(str(path))
    return docs
