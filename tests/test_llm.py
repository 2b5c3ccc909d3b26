import json
import os
import threading
import time

import pytest

from ragbench.errors import (EmptyCompletion, InvalidConfig, ProtocolError,
                             RateLimitedExhausted)
import ragbench.llm as llm_mod
from ragbench.llm import (ChatRequest, LlmConfig, cached, generate,
                          make_cached_fn, mock_generate, request_key)


def req(content="Q", model="m", **kw):
    return ChatRequest(model=model,
                       messages=[{"role": "system", "content": "sys"},
                                 {"role": "user", "content": content}], **kw)


class TestRequestValidation:
    def test_needs_user_message(self):
        with pytest.raises(InvalidConfig):
            ChatRequest(model="m", messages=[{"role": "system", "content": "s"}])

    def test_negative_temperature(self):
        with pytest.raises(InvalidConfig):
            req(temperature=-0.1)


class TestGenerate:
    def cfg(self, server):
        return LlmConfig(endpoint_url=server.url, model="m", max_retries=2)

    def test_maps_first_choice(self, fake_server):
        fake_server.script.append(
            (200, {"choices": [{"message": {"content": "X"}}]}))
        resp = generate(req(), self.cfg(fake_server))
        assert resp.content == "X"
        assert resp.cached is False
        assert resp.latency_ms >= 0

    def test_wire_shape(self, fake_server):
        generate(req("hello", temperature=0.5, max_tokens=99), self.cfg(fake_server))
        path, payload, _ = fake_server.requests[0]
        assert path == "/v1/chat/completions"
        assert payload["model"] == "m"
        assert payload["temperature"] == 0.5
        assert payload["max_tokens"] == 99
        assert payload["messages"][-1] == {"role": "user", "content": "hello"}

    def test_empty_choices(self, fake_server):
        fake_server.script.append((200, {"choices": []}))
        with pytest.raises(ProtocolError):
            generate(req(), self.cfg(fake_server))

    def test_empty_content(self, fake_server):
        fake_server.script.append(
            (200, {"choices": [{"message": {"content": ""}}]}))
        with pytest.raises(EmptyCompletion):
            generate(req(), self.cfg(fake_server))

    def test_retries_exhausted(self, fake_server, no_backoff_sleep):
        fake_server.script.extend([(429, {})] * 3)
        with pytest.raises(RateLimitedExhausted):
            generate(req(), self.cfg(fake_server))
        assert len(no_backoff_sleep) == 2

    def test_5xx_then_success(self, fake_server, no_backoff_sleep):
        fake_server.script.append((503, {}))
        fake_server.script.append(
            (200, {"choices": [{"message": {"content": "ok"}}]}))
        assert generate(req(), self.cfg(fake_server)).content == "ok"
        assert no_backoff_sleep == [0.5]


class TestMock:
    def test_echoes_last_user_message(self):
        assert mock_generate(req("Q")).content == "MOCK-ANSWER: Q"

    def test_deterministic(self):
        assert mock_generate(req("same")) == mock_generate(req("same"))

    def test_truncation(self):
        long = "x" * 2500
        content = mock_generate(req(long)).content
        assert len(content) == len("MOCK-ANSWER: ") + 2000

    def test_uses_last_user_message(self):
        r = ChatRequest(model="m", messages=[
            {"role": "user", "content": "first"},
            {"role": "user", "content": "second"},
        ])
        assert mock_generate(r).content == "MOCK-ANSWER: second"

    def test_zero_latency(self):
        assert mock_generate(req()).latency_ms == 0


class TestCache:
    def test_hit_skips_backend(self, tmp_path):
        calls = []

        def op(r):
            calls.append(r)
            return mock_generate(r)

        first = cached(op, req("Q"), tmp_path)
        second = cached(op, req("Q"), tmp_path)
        assert len(calls) == 1
        assert first.cached is False
        assert second.cached is True
        assert second.content == first.content

    def test_distinct_keys_by_temperature(self, tmp_path):
        assert request_key(req("Q", temperature=0.0)) != \
            request_key(req("Q", temperature=0.7))

    def test_distinct_keys_by_endpoint_and_model(self):
        assert request_key(req("Q"), endpoint="a") != request_key(req("Q"), endpoint="b")
        assert request_key(req("Q", model="m1")) != request_key(req("Q", model="m2"))

    def test_key_stable_under_dict_ordering(self):
        a = ChatRequest(model="m", messages=[{"role": "user", "content": "Q"}])
        b = ChatRequest(model="m", messages=[{"content": "Q", "role": "user"}])
        assert request_key(a) == request_key(b)

    def test_corrupt_entry_recomputed(self, tmp_path):
        cached(mock_generate, req("Q"), tmp_path)
        (entry,) = list(tmp_path.iterdir())
        entry.write_text("{truncated")
        resp = cached(mock_generate, req("Q"), tmp_path)
        assert resp.cached is False
        assert resp.content == "MOCK-ANSWER: Q"
        # entry repaired
        assert cached(mock_generate, req("Q"), tmp_path).cached is True

    def test_entry_file_format(self, tmp_path):
        cached(mock_generate, req("Q"), tmp_path, endpoint="mock")
        key = request_key(req("Q"), endpoint="mock")
        obj = json.loads((tmp_path / key).read_text())
        assert obj == {"request_key": key, "content": "MOCK-ANSWER: Q"}

    def test_make_cached_fn(self, tmp_path):
        fn = make_cached_fn(mock_generate, tmp_path, endpoint="mock")
        assert fn(req("Q")).cached is False
        assert fn(req("Q")).cached is True

    def test_transparency_for_deterministic_backend(self, tmp_path):
        for content in ["a", "b", "héllo", "x" * 100]:
            direct = mock_generate(req(content))
            via_cache = cached(mock_generate, req(content), tmp_path)
            assert via_cache.content == direct.content


class TestCacheThreads:
    def test_single_flight_one_backend_call(self, tmp_path, in_threads):
        calls = []

        def op(r):
            calls.append(r)
            time.sleep(0.05)
            return mock_generate(r)

        out = in_threads(8, lambda i: cached(op, req("Q"), tmp_path))
        assert len(calls) == 1
        assert sorted(r.cached for r in out) == [False] + [True] * 7
        assert {r.content for r in out} == {"MOCK-ANSWER: Q"}
        assert llm_mod._FLIGHT.waiting == {}

    def test_two_threads_write_one_key(self, tmp_path, monkeypatch, in_threads):
        # both temp files are written before either is renamed over the entry
        barrier = threading.Barrier(2)
        real_replace = os.replace

        def replace_together(src, dst):
            barrier.wait(timeout=10)
            real_replace(src, dst)

        monkeypatch.setattr(llm_mod.os, "replace", replace_together)
        path = tmp_path / "entry"
        out = in_threads(2, lambda i: llm_mod._write_entry(path, "entry", f"c{i}"))
        assert out == [None, None]
        assert json.loads(path.read_text())["content"] in ("c0", "c1")
        assert [p.name for p in tmp_path.iterdir()] == ["entry"]
