"""Content-addressed store of backend responses, shared by chat completions
and embeddings: one JSON file per request, named by the SHA-256 of the
request's canonical JSON."""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Callable, Hashable, TypeVar

from .errors import RagBenchError

T = TypeVar("T")


class SingleFlight:
    """Table of the keys being computed right now: however many threads ask
    for one key at once, one of them computes its value and the others wait,
    then read what it stored. It holds one Event per key in flight and no
    value."""

    def __init__(self):
        self._lock = threading.Lock()
        self.waiting: dict[Hashable, threading.Event] = {}

    def run(self, key: Hashable, lookup: Callable[[], T | None],
            compute: Callable[[], T]) -> T:
        """Return lookup() if it finds a value, else compute() in one thread.

        compute must store its value where lookup finds it. A thread that
        waited on a failed compute takes its own turn, so each thread raises
        its own error, as it would in a sequential loop.
        """
        value = lookup()
        while value is None:
            with self._lock:
                done = self.waiting.get(key)
                owner = done is None
                if owner:
                    done = self.waiting[key] = threading.Event()
            if owner:
                try:
                    # the previous owner may have stored it since our lookup
                    value = lookup()
                    return compute() if value is None else value
                finally:
                    with self._lock:
                        del self.waiting[key]
                    done.set()
            done.wait()
            value = lookup()
        return value


# Entries are files that every caller in the process shares, so calls are
# single-flighted on the entry path rather than per caller.
_FLIGHT = SingleFlight()


def request_key(request: dict) -> str:
    """SHA-256 of the canonical JSON of a request."""
    import hashlib  # here, so that a run without a cache dir never loads OpenSSL

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
    others wait for it and then decode the stored entry.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / key

    def miss() -> T:
        value, fields = compute()
        _write_entry(path, key, fields)
        return value

    return _FLIGHT.run(path, lambda: _read_entry(path, key, decode), miss)
