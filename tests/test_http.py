import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import ragbench
import ragbench._http as _http
from ragbench._http import post_json_with_retries
from ragbench.errors import RagBenchError

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
        with pytest.raises(RagBenchError, match=r"^rate limited after 2 retries: "):
            post(fake_server)
        assert no_backoff_sleep == [2, 2]


class TestFailures:
    def test_timeout(self, fake_server, no_backoff_sleep):
        fake_server.script.append((200, {"ok": True}, {}, 0.5))
        with pytest.raises(RagBenchError, match="timed out"):
            post(fake_server, timeout_ms=50)
        assert no_backoff_sleep == []

    def test_nan_payload_not_sent(self, fake_server):
        with pytest.raises(RagBenchError, match="not valid JSON"):
            post(fake_server, {"input": [float("nan")]})
        assert fake_server.requests == []

    def test_connection_refused_not_retried(self, no_backoff_sleep):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        with pytest.raises(RagBenchError, match="failed"):
            post_json_with_retries(f"http://127.0.0.1:{port}/v1/x", {"a": 1},
                                   timeout_ms=2000, max_retries=2)
        assert no_backoff_sleep == []

    def test_client_error_not_retried(self, fake_server, no_backoff_sleep):
        fake_server.script.append((400, {"error": "bad"}))
        with pytest.raises(RagBenchError, match="HTTP 400"):
            post(fake_server)
        assert no_backoff_sleep == []
        assert len(fake_server.requests) == 1

    @pytest.mark.parametrize("url", ["localhost/v1/x", "file:///dev/null",
                                     "ftp://127.0.0.1:1/x", "http://127.0.0.1:x/v1"])
    def test_url_not_http(self, url):
        with pytest.raises(RagBenchError, match="failed"):
            post_json_with_retries(url, {"a": 1}, timeout_ms=100, max_retries=0)


def fresh_python(code, *args, cwd=None):
    """Run code in a new interpreter that imports this checkout's ragbench,
    with no cache dir set in its environment; return its stdout."""
    src = str(Path(ragbench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop("RAGBENCH_CACHE_DIR", None)
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, check=True, timeout=60, env=env, cwd=cwd)
    return out.stdout


def test_cli_import_leaves_out_requests():
    code = ("import sys, ragbench.cli; "
            "print(sorted(m for m in ('requests', 'urllib3', 'click') if m in sys.modules))")
    assert fresh_python(code).strip() == "[]"


# Only a remote request loads the HTTP and TLS stack, and hashlib, which keys
# its reply in the response store. Each test counts a module as loaded only
# beyond what `import numpy` loads, since some Python or numpy versions load
# one.
WATCH_PRELUDE = """
import json, os, sys
import numpy
WATCHED = ("http.client", "urllib.request", "urllib.error", "ssl", "email",
           "socket", "hashlib", "_hashlib")
BASE = {m for m in WATCHED if m in sys.modules}


def loaded():
    return sorted(m for m in WATCHED if m in sys.modules and m not in BASE)
"""


def test_offline_commands_load_no_http_tls_or_hashlib(tmp_path):
    code = WATCH_PRELUDE + """
from ragbench.cli import main
sweep = ["sweep", "--corpus", "corpus.jsonl", "--qa", "qa.jsonl",
         "--backend", "offline", "--sizes", "100,200"]
codes = [main(["ingest", "--format", "reddit-jsonl", "--in", "export.jsonl",
               "--out", "corpus.jsonl"]),
         main(sweep + ["--out", "out"]),
         main(["ask", "--corpus", "corpus.jsonl", "--question", "When are keys rotated?"])]
offline = loaded()
codes.append(main(sweep + ["--out", "cached-out", "--cache-dir", "cache"]))
print(json.dumps({"codes": codes, "offline": offline, "cached": loaded(),
                  "cache_made": os.path.exists("cache")}))
"""
    (tmp_path / "export.jsonl").write_text(
        '{"id": "a", "title": "Patch servers monthly."}\n'
        '{"id": "b", "title": "Rotate keys after a breach."}\n')
    (tmp_path / "qa.jsonl").write_text(
        '{"id": "q1", "question": "When are keys rotated?", "ground_truth": "After a breach."}\n')
    got = json.loads(fresh_python(code, cwd=tmp_path).splitlines()[-1])
    assert got["codes"] == [0, 0, 0, 0]
    assert got["offline"] == []  # ingest, sweep and ask loaded none of them
    # the offline backend is never cached, so --cache-dir adds none of them
    # and creates no store
    assert got["cached"] == [] and not got["cache_made"]


def test_first_requests_from_several_threads_at_once(fake_server, tmp_path):
    # the first remote requests import the HTTP stack on each worker thread
    # at once; every row and the reply must still come back right
    code = WATCH_PRELUDE + """
sys.setswitchinterval(1e-6)
from ragbench.embed import _MAX_BATCH, EmbedderConfig, embed_remote
from ragbench.llm import ChatRequest, generate
before = loaded()
url = sys.argv[1]
texts = ["x" * (1 + i % 97) for i in range(4 * _MAX_BATCH + 1)]
vecs = embed_remote(texts, EmbedderConfig(kind="remote", endpoint_url=url), sys.argv[2])
rows_ok = [list(v) for v in vecs] == [[float(len(t))] * 8 for t in texts]
reply = generate(ChatRequest(model="m", messages=[{"role": "user", "content": "hi"}]),
                 url).content
print(json.dumps({"before": before, "after": loaded(), "rows_ok": rows_ok, "reply": reply}))
"""
    got = json.loads(fresh_python(code, fake_server.url, str(tmp_path)))
    assert got["before"] == [] and "urllib.request" in got["after"]
    assert got["rows_ok"] and got["reply"] == "canned reply"
    embeds = [r for r in fake_server.requests if r[0] == "/v1/embeddings"]
    assert len(embeds) == 5
