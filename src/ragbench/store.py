"""Content-addressed store of backend responses, shared by chat completions
and embeddings: one JSON file per request, named by the SHA-256 of the
request's canonical JSON."""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Callable, TypeVar

from .errors import RagBenchError

T = TypeVar("T")

# Entry paths being read or filled right now. Entries are files that every
# caller in the process shares, so fetches take turns on the path, not per caller.
_FILLING: set[Path] = set()
_FILLED = threading.Condition()


def request_key(request: dict) -> str:
    """SHA-256 of the canonical JSON of a request."""
    import hashlib  # here, so that an offline run never loads OpenSSL

    canonical = json.dumps(request, sort_keys=True, separators=(",", ":"),
                           ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _read_entry(path: Path, key: str, field: str, parse: Callable[[object], T]) -> T | None:
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(obj, dict) and obj.get("request_key") == key:
            return parse(obj.get(field))
    except (OSError, ValueError, RecursionError, RagBenchError):
        pass  # absent, unreadable, not JSON, too deep or not what the caller stores: a miss
    return None


def _write_entry(path: Path, key: str, fields: dict) -> None:
    """Atomic write: a temp file unique to this process and thread, then a
    rename over the entry."""
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    tmp.write_bytes(json.dumps({"request_key": key, **fields}, ensure_ascii=False)
                    .encode("utf-8"))
    os.replace(tmp, path)


def fetch(cache_dir: str | Path, key: str, field: str, parse: Callable[[object], T],
          compute: Callable[[], object]) -> tuple[T, bool]:
    """(parse(reply), True) for the reply stored as field under key (a
    request_key), or else (parse(compute()), False), storing that reply.

    compute calls the backend and returns its JSON reply. parse raises a
    RagBenchError for a reply the caller cannot use: a fresh one is not
    stored, and a stored one is a miss and is overwritten, as is one that
    parse maps to None or an entry that is not a JSON object holding the key.
    Each call claims the entry's path, reads the entry once and calls
    compute only on a miss, so threads that fetch one entry at once take
    turns and the first to miss fills it for the rest; if its compute or
    parse fails, the next in turn calls compute. Different entries are read
    at once.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / key

    with _FILLED:
        _FILLED.wait_for(lambda: path not in _FILLING)
        _FILLING.add(path)
    try:
        value = _read_entry(path, key, field, parse)
        if value is not None:
            return value, True
        value = parse(reply := compute())
        _write_entry(path, key, {field: reply})
        return value, False
    finally:
        with _FILLED:
            _FILLING.remove(path)
            _FILLED.notify_all()
