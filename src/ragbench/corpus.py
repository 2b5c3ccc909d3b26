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

_FIELD_ORDER = ("id", "source", "title", "body", "score", "created_at")


@dataclass(frozen=True)
class Document:
    id: str
    source: str
    title: str
    body: str
    score: int = 0
    created_at: int = 0


@dataclass
class CorpusStats:
    documents_in: int = 0
    documents_kept: int = 0
    duplicates_removed: int = 0
    lines_skipped: int = 0


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


def parse_reddit_jsonl(stream: IO, lenient: bool = True) -> tuple[list[Document], CorpusStats]:
    """Parse a Reddit-export JSONL stream into Documents, order preserved.

    In lenient mode malformed lines are skipped and counted; in strict mode
    the first malformed line raises MalformedLine.
    """
    docs: list[Document] = []
    stats = CorpusStats()
    for line_no, raw in enumerate(stream, start=1):
        try:
            if isinstance(raw, bytes):
                # UnicodeDecodeError is a ValueError
                raw = raw.decode("utf-8", errors="strict" if not lenient else "replace")
            if not raw.strip():
                continue
            obj = json.loads(raw)
            doc = _doc_from_reddit_obj(obj)
        except (json.JSONDecodeError, ValueError, TypeError) as exc:
            if not lenient:
                raise MalformedLine(line_no, str(exc)) from exc
            stats.lines_skipped += 1
            continue
        docs.append(doc)
    stats.documents_in = len(docs)
    stats.documents_kept = len(docs)
    if not docs:
        raise EmptyCorpus("no documents parsed from stream")
    return docs, stats


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


def dedup(docs: list[Document]) -> tuple[list[Document], CorpusStats]:
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
    stats = CorpusStats(
        documents_in=len(docs),
        documents_kept=len(kept),
        duplicates_removed=len(docs) - len(kept),
    )
    return kept, stats


def save_corpus(docs: Iterable[Document], path: str | Path) -> None:
    """Persist the document store as JSONL, UTF-8, LF, fixed field order."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for doc in docs:
            d = asdict(doc)
            ordered = {k: d[k] for k in _FIELD_ORDER}
            f.write(json.dumps(ordered, ensure_ascii=False) + "\n")


def load_corpus(path: str | Path) -> list[Document]:
    p = Path(path)
    if not p.is_file():
        raise PathNotFound(str(path))
    docs = []
    with open(p, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                docs.append(Document(**{k: obj[k] for k in _FIELD_ORDER}))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise MalformedLine(line_no, str(exc)) from exc
    if not docs:
        raise EmptyCorpus(str(path))
    return docs
