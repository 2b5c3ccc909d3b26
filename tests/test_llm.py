import json
import os
import threading
import time

import pytest

from ragbench.errors import RagBenchError
import ragbench.store as store_mod
from ragbench.llm import (ChatRequest, ChatResponse, cached, generate, mock_generate,
                          request_key)


def req(content="Q", model="m", **kw):
    return ChatRequest(model=model,
                       messages=[{"role": "system", "content": "sys"},
                                 {"role": "user", "content": content}], **kw)


class TestGenerate:
    def test_maps_first_choice(self, fake_server):
        fake_server.script.append(
            (200, {"choices": [{"message": {"content": "X"}}]}))
        resp = generate(req(), fake_server.url)
        assert resp.content == "X"
        assert resp.cached is False

    def test_wire_shape(self, fake_server):
        generate(req("hello"), fake_server.url)
        path, payload, _ = fake_server.requests[0]
        assert path == "/v1/chat/completions"
        assert payload == {"model": "m", "temperature": 0.0, "max_tokens": 512,
                           "messages": [{"role": "system", "content": "sys"},
                                        {"role": "user", "content": "hello"}]}

    def test_empty_choices(self, fake_server):
        fake_server.script.append((200, {"choices": []}))
        with pytest.raises(RagBenchError, match=r"^malformed chat response: "):
            generate(req(), fake_server.url)

    def test_retries_exhausted(self, fake_server, no_backoff_sleep):
        fake_server.script.extend([(429, {})] * 4)
        with pytest.raises(RagBenchError, match=r"^rate limited after 3 retries: "):
            generate(req(), fake_server.url)
        assert len(no_backoff_sleep) == 3

    def test_5xx_then_success(self, fake_server, no_backoff_sleep):
        fake_server.script.append((503, {}))
        fake_server.script.append(
            (200, {"choices": [{"message": {"content": "ok"}}]}))
        assert generate(req(), fake_server.url).content == "ok"
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

    def test_key_pinned(self):
        # these keys name the entries of existing caches, so they must not move
        assert request_key(req("Q")) == \
            "2497647519dcd7d1dbf2a2ace1d03235dcdd0475ac019ee2b40d28f913178009"
        assert request_key(req("Q"), endpoint="http://127.0.0.1:8080") == \
            "11c2cbc098f7f516078dfd602834ea3ab921ba30eeee5f9b19123126b56ab341"
        # a request's reply check is not part of its key
        assert request_key(req("Q", check=json.loads)) == request_key(req("Q"))

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

    @pytest.mark.parametrize("entry", [
        [1], "x", {"request_key": "0" * 64, "content": "stale"},
        {"request_key": request_key(req("Q")), "content": 5},
        # half an emoji, as JSON's ASCII escape: no reply holds it
        {"request_key": request_key(req("Q")), "content": "half an emoji \ud83d"},
        {"request_key": request_key(req("Q")), "content": ""}])
    def test_entry_of_wrong_shape_recomputed(self, tmp_path, entry):
        (tmp_path / request_key(req("Q"))).write_text(json.dumps(entry))
        calls = []

        def op(r):
            calls.append(r)
            return mock_generate(r)

        resp = cached(op, req("Q"), tmp_path)
        assert len(calls) == 1
        assert (resp.content, resp.cached) == ("MOCK-ANSWER: Q", False)
        # entry overwritten
        assert cached(op, req("Q"), tmp_path).cached is True
        assert len(calls) == 1

    def test_entry_nested_too_deep_recomputed(self, tmp_path):
        # deeper than the JSON parser's recursion limit
        (tmp_path / request_key(req("Q"))).write_text("[" * 200_000 + "]" * 200_000)
        calls = []

        def op(r):
            calls.append(r)
            return mock_generate(r)

        resp = cached(op, req("Q"), tmp_path)
        assert (resp.content, resp.cached) == ("MOCK-ANSWER: Q", False)
        # entry overwritten
        assert cached(op, req("Q"), tmp_path).cached is True
        assert len(calls) == 1

    def test_reply_not_utf8_text_not_stored(self, tmp_path):
        # half an emoji: a lone surrogate, which no UTF-8 entry can hold
        with pytest.raises(RagBenchError,
                           match=r"^reply is not UTF-8 text: surrogates not allowed$"):
            cached(lambda r: ChatResponse("half an emoji \ud83d"), req("Q"), tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_empty_content(self, tmp_path, fake_server):
        fake_server.script.append(
            (200, {"choices": [{"message": {"content": ""}}]}))
        with pytest.raises(RagBenchError, match=r"^empty completion content$"):
            cached(lambda r: generate(r, fake_server.url), req(), tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_null_content(self, tmp_path, fake_server):
        fake_server.script.append(
            (200, {"choices": [{"message": {"content": None}}]}))
        with pytest.raises(RagBenchError, match=r"^completion content is not a string$"):
            cached(lambda r: generate(r, fake_server.url), req(), tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_entry_file_format(self, tmp_path):
        cached(mock_generate, req("Q"), tmp_path, endpoint="mock")
        key = request_key(req("Q"), endpoint="mock")
        obj = json.loads((tmp_path / key).read_text())
        assert obj == {"request_key": key, "content": "MOCK-ANSWER: Q"}

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
        assert store_mod._FILLING == set()

    def test_two_threads_write_one_key(self, tmp_path, monkeypatch, in_threads):
        # both temp files are written before either is renamed over the entry
        barrier = threading.Barrier(2)
        real_replace = os.replace

        def replace_together(src, dst):
            barrier.wait(timeout=10)
            real_replace(src, dst)

        monkeypatch.setattr(store_mod.os, "replace", replace_together)
        path = tmp_path / "entry"
        out = in_threads(2, lambda i: store_mod._write_entry(path, "entry",
                                                             {"content": f"c{i}"}))
        assert out == [None, None]
        assert json.loads(path.read_text())["content"] in ("c0", "c1")
        assert [p.name for p in tmp_path.iterdir()] == ["entry"]
