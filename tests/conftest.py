import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import ragbench._http as _http


class FakeApiServer:
    """Minimal OpenAI-compatible test server.

    Responses are scripted: push (status, body_dict) tuples; each request
    pops the next one. With an empty script, serves sensible defaults
    (echo embeddings / canned chat content).
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
                    status, body = outer.script.pop(0)
                else:
                    status, body = 200, outer._default_body(self.path, payload)
                data = json.dumps(body).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
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


@pytest.fixture(autouse=True)
def no_backoff_sleep(monkeypatch):
    """Record backoff sleeps instead of actually sleeping."""
    slept = []
    monkeypatch.setattr(_http, "_sleep", slept.append)
    yield slept
