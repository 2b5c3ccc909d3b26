"""Span tracer for the ragbench benchmark's traced run.

It wraps public functions and methods of ``src/ragbench`` from outside, at
the names their callers look up, so nothing in the program changes. Each
call becomes a span: name, thread, parent span, start, end and a few counts
taken from the arguments or the result, which the report sums per name.
Counts are taken after the span ends, so their cost falls to the caller's
span. Spans stay in memory until ``dump`` writes them out. A target that no
longer exists is reported as absent and skipped.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import threading
import time


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def _texts(tracer, key, args, kwargs, result):
    texts = args[0] if args else kwargs["texts"]
    tracer.seen.setdefault(key, set()).update(_digest(t) for t in texts)
    return {"n": len(texts), "bytes": sum(len(t.encode("utf-8")) for t in texts)}


def _chunks(tracer, key, args, kwargs, result):
    return {"n": len(result)}


def _entries(tracer, key, args, kwargs, result):
    entries = args[1] if len(args) > 1 else kwargs["entries"]
    return {"n": len(entries)}


def _prompt(tracer, key, args, kwargs, result):
    return {"prompt_chars": result.prompt_chars}


def _cache(tracer, key, args, kwargs, result):
    return {"hits": 1} if result.cached else {"misses": 1}


def _http(tracer, key, args, kwargs, result):
    url = args[0] if args else kwargs["url"]
    return {"embed": 1} if url.rstrip("/").endswith("/embeddings") else {"chat": 1}


# (span name, module, attribute path, counts taken from the call)
TARGETS = [
    ("corpus.load", "ragbench.corpus", "load_corpus", None),
    ("corpus.load", "ragbench.cli", "load_qa_jsonl", None),
    ("chunker", "ragbench.sweep", "chunk_corpus", _chunks),
    ("embed.chunk", "ragbench.cli", "embed_texts", _texts),
    ("embed.single", "ragbench.embed", "embed_texts", _texts),
    ("vectorstore.build", "ragbench.sweep", "build", None),
    ("vectorstore.build", "ragbench.vectorstore", "Index.__init__", _entries),
    ("vectorstore.query", "ragbench.vectorstore", "Index.query_topk", None),
    ("rag", "ragbench.sweep", "answer_question", _prompt),
    ("llm.generate", "ragbench.cli", "generate", None),
    ("llm.generate", "ragbench.cli", "mock_generate", None),
    ("llm.cache", "ragbench.llm", "cached", _cache),
    ("http", "ragbench.embed", "post_json_with_retries", _http),
    ("http", "ragbench.llm", "post_json_with_retries", _http),
    ("metrics.score", "ragbench.sweep", "answer_correctness", None),
    ("metrics.judge", "ragbench.metrics", "LexicalJudge.extract", None),
    ("metrics.judge", "ragbench.metrics", "LexicalJudge.classify", None),
    ("metrics.judge", "ragbench.metrics", "RemoteJudge.extract", None),
    ("metrics.judge", "ragbench.metrics", "RemoteJudge.classify", None),
    ("sweep", "ragbench.cli", "run_sweep", None),
    ("sweep.report", "ragbench.cli", "emit_csv", None),
    ("sweep.report", "ragbench.cli", "emit_svg", None),
    ("sweep.report", "ragbench.sweep", "_dump_size_results", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.seen: dict[str, set[str]] = {}
        self.absent: list[str] = []
        self.count_errors: list[str] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    def _open(self, name: str) -> int:
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's span belongs to what the main thread is doing
            main = self._stacks.get(self._main) if ident != self._main else None
            parent = main[-1] if main else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, ident, parent, 0.0, 0.0, None])
        stack.append(idx)
        return idx

    def _wrap(self, name: str, label: str, fn, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][3:5] = t0, time.perf_counter()
                self._stacks[threading.get_ident()].pop()
            if counts is not None:
                try:
                    self.spans[idx][5] = counts(self, name, args, kwargs, result)
                except Exception as exc:  # a changed signature must not fail the sweep
                    self.count_errors.append(f"{label}: {exc!r}")
            return result
        return wrapper

    def install(self) -> None:
        for name, module_name, path, counts in TARGETS:
            label = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(label)
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(label)
                continue
            setattr(owner, attr, self._wrap(name, label, fn, counts))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans,
                       "seen": {k: sorted(v) for k, v in self.seen.items()},
                       "absent": self.absent,
                       "count_errors": self.count_errors}, f)
