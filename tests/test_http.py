import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import ragbench
import ragbench._http as _http
from ragbench._http import post_json_with_retries
from ragbench.errors import ProtocolError, RateLimitedExhausted, RequestTimeout

OK = (200, {"ok": True})


def post(server, payload=None, timeout_ms=5000, max_retries=2):
    return post_json_with_retries(server.url + "/v1/x", payload or {"a": 1},
                                  timeout_ms=timeout_ms, max_retries=max_retries)


class TestRetryAfter:
    def test_seconds_form_honoured(self, fake_server, no_backoff_sleep):
        fake_server.script.extend([(429, {}, {"Retry-After": "3"}), OK])
        assert post(fake_server) == {"ok": True}
        assert no_backoff_sleep == [3]

    def test_capped(self, fake_server, no_backoff_sleep):
        fake_server.script.extend([(429, {}, {"Retry-After": "86400"}),
                                   (429, {}, {"Retry-After": "0"}), OK])
        post(fake_server)
        assert no_backoff_sleep == [_http._RETRY_AFTER_MAX_S, 0]

    @pytest.mark.parametrize("value", ["Wed, 21 Oct 2015 07:28:00 GMT", "-1",
                                       "1.5", "soon", ""])
    def test_other_forms_fall_back_to_backoff(self, fake_server, no_backoff_sleep,
                                              value):
        fake_server.script.extend([(429, {}, {"Retry-After": value}),
                                   (429, {}, {"Retry-After": value}), OK])
        post(fake_server)
        assert no_backoff_sleep == [0.5, 1.0]

    def test_only_on_429(self, fake_server, no_backoff_sleep):
        fake_server.script.extend([(503, {}, {"Retry-After": "7"}), OK])
        post(fake_server)
        assert no_backoff_sleep == [0.5]

    def test_exhausted_after_honouring(self, fake_server, no_backoff_sleep):
        fake_server.script.extend([(429, {}, {"Retry-After": "2"})] * 3)
        with pytest.raises(RateLimitedExhausted):
            post(fake_server)
        assert no_backoff_sleep == [2, 2]


class TestFailures:
    def test_timeout(self, fake_server, no_backoff_sleep):
        fake_server.script.append((200, {"ok": True}, {}, 0.5))
        with pytest.raises(RequestTimeout, match="timed out"):
            post(fake_server, timeout_ms=50)
        assert no_backoff_sleep == []

    def test_nan_payload_not_sent(self, fake_server):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            post(fake_server, {"input": [float("nan")]})
        assert fake_server.requests == []

    def test_connection_refused_not_retried(self, no_backoff_sleep):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        with pytest.raises(ProtocolError, match="failed"):
            post_json_with_retries(f"http://127.0.0.1:{port}/v1/x", {"a": 1},
                                   timeout_ms=2000, max_retries=2)
        assert no_backoff_sleep == []

    def test_client_error_not_retried(self, fake_server, no_backoff_sleep):
        fake_server.script.append((400, {"error": "bad"}))
        with pytest.raises(ProtocolError, match="HTTP 400"):
            post(fake_server)
        assert no_backoff_sleep == []
        assert len(fake_server.requests) == 1

    @pytest.mark.parametrize("url", ["localhost/v1/x", "file:///dev/null",
                                     "ftp://127.0.0.1:1/x", "http://127.0.0.1:x/v1"])
    def test_url_not_http(self, url):
        with pytest.raises(ProtocolError, match="failed"):
            post_json_with_retries(url, {"a": 1}, timeout_ms=100, max_retries=0)


def test_cli_import_leaves_out_requests():
    code = ("import sys, ragbench.cli; "
            "print(sorted(m for m in ('requests', 'urllib3') if m in sys.modules))")
    src = str(Path(ragbench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60, env=env)
    assert out.stdout.strip() == "[]"
