"""Fake OpenAI-compatible backend for the remote-rerun workload.

Run as its own process: ``python3 perfbench/fake_server.py``.
It binds 127.0.0.1 on a free port and prints ``PORT <n>`` on stdout.

- ``POST /v1/embeddings``: bag-of-hashed-words vectors, deterministic.
- ``POST /v1/chat/completions``: replies the remote judge can parse (a JSON
  array for extraction prompts, a JSON object with one boolean per statement
  for classification prompts) and a short extractive answer otherwise.
- ``GET /stats``: request counts by endpoint and by status. Not counted.

Every request sleeps DELAY_S before replying. No errors are injected:
the client's retry backoff sleeps 0.5 s and up, which would swamp every
other number. Connections are HTTP/1.1 keep-alive, so a client that reuses
connections is measured as such.
"""

from __future__ import annotations

import json
import re
import signal
import sys
import threading
import time
import zlib
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_SENTENCE_SPLIT = re.compile(r"[.?!]+(?:\s+|$)")
_WORD = re.compile(r"\w+")
_NUMBERED = re.compile(r"(?m)^\d+\. (.*)$")
_NO_CONTEXT = "(no relevant context found)"
_DIM = 64
# A fixed wait per request. It is not taken from a measured backend: it was
# chosen so that the remote workload's time is mostly this steady wait, so
# the remote time figures show request counts, not real model latency.
DELAY_S = 0.020


def embed(text: str) -> list[float]:
    vec = [0.0] * _DIM
    for word in _WORD.findall(text.lower()):
        vec[zlib.crc32(word.encode("utf-8")) % _DIM] += 1.0
    return vec


def _tokens(text: str) -> set[str]:
    return set(_WORD.findall(text.lower()))


def _supported(stmt: str, others: list[str]) -> bool:
    a = _tokens(stmt)
    for other in others:
        b = _tokens(other)
        if a and b and len(a & b) / len(a | b) >= 0.5:
            return True
    return False


def _statements(block: str) -> list[str]:
    return [] if block.strip() == "(none)" else _NUMBERED.findall(block)


def chat_reply(prompt: str) -> str:
    if prompt.startswith("Break the following text"):
        text = prompt.split("\n\nText:\n", 1)[1]
        return json.dumps([s.strip() for s in _SENTENCE_SPLIT.split(text) if s.strip()])
    if prompt.startswith("You are comparing candidate statements"):
        cand = prompt.split("Candidate statements:\n", 1)[1]
        cand, ref = cand.split("\n\nReference statements:\n", 1)
        ref = ref.split("\n\nRespond with JSON", 1)[0]
        answer, truth = _statements(cand), _statements(ref)
        return json.dumps({
            "answer_supported": [_supported(s, truth) for s in answer],
            "ground_truth_supported": [_supported(s, answer) for s in truth],
        })
    context = prompt.split("Context:\n", 1)[-1].split("\n\nQuestion: ", 1)[0]
    if context == _NO_CONTEXT:
        return "I do not know."
    first_chunk = context.split("\n---\n", 1)[0]
    sentences = [s.strip() for s in _SENTENCE_SPLIT.split(first_chunk) if s.strip()]
    return ". ".join(sentences[:2]) + "."


class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.by_endpoint: Counter = Counter()
        self.by_status: Counter = Counter()

    def record(self, endpoint: str, status: int) -> None:
        with self._lock:
            self.by_endpoint[endpoint] += 1
            self.by_status[str(status)] += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {"by_endpoint": dict(self.by_endpoint),
                    "by_status": dict(self.by_status)}


def make_handler(stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _send(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, stats.snapshot())
            else:
                stats.record(self.path, 404)
                self._send(404, {"error": "not found"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}")
            time.sleep(DELAY_S)
            if self.path == "/v1/embeddings":
                body = {"data": [{"index": i, "embedding": embed(t)}
                                 for i, t in enumerate(payload["input"])]}
            elif self.path == "/v1/chat/completions":
                prompt = [m for m in payload["messages"] if m["role"] == "user"][-1]["content"]
                body = {"choices": [{"index": 0, "message": {
                    "role": "assistant", "content": chat_reply(prompt)}}]}
            else:
                stats.record(self.path, 404)
                self._send(404, {"error": "not found"})
                return
            stats.record(self.path, 200)
            self._send(200, body)

        def log_message(self, *args):
            pass

    return Handler


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(Stats()))
    server.daemon_threads = True
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
