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

# Entry paths being filled right now. Entries are files that every caller in
# the process shares, so fills are single-flighted on the path, not per caller.
_FILLING: set[Path] = set()
_FILLED = threading.Condition()


def request_key(request: dict) -> str:
    """SHA-256 of the canonical JSON of a request."""
    import hashlib  # here, so that an offline run never loads OpenSSL

    canonical = json.dumps(request, sort_keys=True, separators=(",", ":"),
                           ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _read_entry(path: Path, key: str, decode: Callable[[dict], T]) -> T | None:
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(obj, dict) and obj.get("request_key") == key:
            return decode(obj)
    except (OSError, ValueError, RagBenchError):
        pass  # absent, unreadable, not JSON or not what the caller stores: a miss
    return None


def _write_entry(path: Path, key: str, fields: dict) -> None:
    """Atomic write: a temp file unique to this process and thread, then a
    rename over the entry."""
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    tmp.write_text(json.dumps({"request_key": key, **fields}, ensure_ascii=False),
                   encoding="utf-8")
    os.replace(tmp, path)


def fetch(cache_dir: str | Path, key: str, decode: Callable[[dict], T],
          compute: Callable[[], tuple[T, dict]]) -> T:
    """The value stored under key (a request_key), or compute() and store it.

    decode maps a stored entry (a JSON object holding the key) to the
    caller's value, and raises a RagBenchError when its fields are not what
    the caller stores; such an entry, like one that is not a JSON object
    holding the key, is a miss and is overwritten. compute calls the
    backend, validates the response and returns (value, fields to store).
    Threads that miss on one entry at once make one call to compute; the
    others wait for it and then decode the stored entry, one at a time.
    Different entries fill at once.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / key

    value = _read_entry(path, key, decode)
    if value is not None:
        return value
    with _FILLED:
        _FILLED.wait_for(lambda: path not in _FILLING)
        _FILLING.add(path)
    try:
        # the previous filler may have stored it since our read; if it
        # failed, this thread calls compute and raises its own error
        value = _read_entry(path, key, decode)
        if value is None:
            value, fields = compute()
            _write_entry(path, key, fields)
        return value
    finally:
        with _FILLED:
            _FILLING.remove(path)
            _FILLED.notify_all()
