import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import ragbench._http as _http


class FakeApiServer:
    """Minimal OpenAI-compatible test server.

    Responses are scripted: push (status, body_dict) tuples, optionally
    followed by a dict of extra response headers and a delay in seconds
    before the response is sent; each request pops the next one. With an
    empty script, serves sensible defaults (echo embeddings / canned chat
    content).
    """

    def __init__(self):
        self.script = []
        self.requests = []
        self.default_dim = 8
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length) or b"{}")
                outer.requests.append((self.path, payload, dict(self.headers)))
                if outer.script:
                    status, body, *extra = outer.script.pop(0)
                else:
                    status, body, extra = 200, outer._default_body(self.path, payload), []
                headers = extra[0] if extra else {}
                delay_s = extra[1] if len(extra) > 1 else 0.0
                time.sleep(delay_s)
                data = json.dumps(body).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # a short poll keeps shutdown() from waiting out the default 0.5 s
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.01}, daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}"

    def _default_body(self, path, payload):
        if path.endswith("/embeddings"):
            inputs = payload.get("input", [])
            return {"data": [{"embedding": [float(len(t))] * self.default_dim}
                             for t in inputs]}
        return {"choices": [{"message": {"content": "canned reply"}}]}

    def close(self):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def fake_server():
    server = FakeApiServer()
    yield server
    server.close()


@pytest.fixture(autouse=True, scope="session")
def no_ragbench_env():
    """As perfbench's child_env: no test, and no module fixture, reads a
    RAGBENCH_* variable, such as a bearer token, from outside."""
    with pytest.MonkeyPatch.context() as mp:
        for name in [k for k in os.environ if k.startswith("RAGBENCH_")]:
            mp.delenv(name)
        yield


@pytest.fixture(autouse=True)
def no_backoff_sleep(monkeypatch):
    """Record backoff sleeps instead of actually sleeping."""
    slept = []
    monkeypatch.setattr(_http, "_sleep", slept.append)
    yield slept


@pytest.fixture
def in_threads():
    """Run fn(i) for i in range(n) on n threads released together, with a
    short switch interval so that threads interleave often. Returns each
    thread's result, or the exception it raised, in thread order."""
    def run(n, fn):
        barrier = threading.Barrier(n)
        out = [None] * n

        def work(i):
            barrier.wait(timeout=10)
            try:
                out[i] = fn(i)
            except Exception as exc:
                out[i] = exc

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        return out
    return run
