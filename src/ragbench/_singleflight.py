"""Single-flight calls: however many threads ask for one key at once, one of
them computes its value and the others wait, then read what it stored."""

from __future__ import annotations

import threading
from typing import Callable, Hashable, TypeVar

T = TypeVar("T")


class SingleFlight:
    """Table of the keys being computed right now.

    It holds one Event per key in flight and nothing once a call ends, so
    finished values live only in the caller's own store.
    """

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
