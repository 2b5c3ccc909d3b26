import math
import time

import pytest
from hypothesis import given, settings, strategies as st

import ragbench.embed as embed_mod
from ragbench.embed import (EmbedderConfig, Vector, cosine, embed_offline,
                            embed_offline_batch, embed_remote, embed_texts,
                            make_embed_fn)
from ragbench.errors import (DimMismatch, EmptyText, ProtocolError,
                             RateLimitedExhausted)


def vec(*values):
    return Vector(dim=len(values), values=tuple(float(v) for v in values))


class TestOffline:
    def test_deterministic(self):
        assert embed_offline("abc", 256) == embed_offline("abc", 256)

    def test_self_cosine_one(self):
        v = embed_offline("abc", 256)
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_empty_text(self):
        with pytest.raises(EmptyText):
            embed_offline("", 256)

    def test_unit_norm(self):
        for t in ["a", "ab", "abc", "héllo wörld", "x" * 500]:
            v = embed_offline(t, 256)
            assert math.sqrt(sum(x * x for x in v.values)) == pytest.approx(1.0, abs=1e-9)

    def test_short_text_single_gram(self):
        v = embed_offline("ab", 32)
        assert sum(1 for x in v.values if x != 0.0) == 1

    def test_case_folded(self):
        assert embed_offline("HeLLo", 64) == embed_offline("hello", 64)

    def test_similar_texts_score_higher_than_unrelated(self):
        a = embed_offline("patch the vulnerable server immediately", 256)
        b = embed_offline("patch the vulnerable server now", 256)
        c = embed_offline("qqq zzz 12345 xxyyzz", 256)
        assert cosine(a, b) > cosine(a, c)

    @settings(max_examples=200)
    @given(st.text(min_size=1, max_size=100))
    def test_property_unit_norm(self, text):
        v = embed_offline(text, 256)
        assert abs(math.sqrt(sum(x * x for x in v.values)) - 1.0) < 1e-9


# casefold expands "ß" to "ss", "İ" to "i̇" and "ﬁ" to "fi"; texts of 1 and 2
# bytes take embed_offline's single-hash branch
_BATCH_TEXT = st.text(alphabet=st.sampled_from("aZ 1éß İﬁ日\U0001F600"),
                      min_size=1, max_size=40)


class TestOfflineBatch:
    @settings(max_examples=200)
    @given(st.lists(_BATCH_TEXT, min_size=1, max_size=20),
           st.sampled_from([1, 7, 64, 256]))
    def test_equals_scalar_reference(self, texts, dim):
        assert embed_offline_batch(texts, dim) == [embed_offline(t, dim) for t in texts]

    @settings(max_examples=100)
    @given(st.lists(st.one_of(_BATCH_TEXT, st.text(min_size=1, max_size=3)),
                    min_size=1, max_size=30))
    def test_equals_scalar_reference_across_blocks(self, texts):
        # shrink the block budget so one batch spans many blocks, and a text
        # longer than the budget gets a block of its own
        old = embed_mod._BLOCK_BYTES
        embed_mod._BLOCK_BYTES = 16
        try:
            assert embed_offline_batch(texts, 32) == [embed_offline(t, 32) for t in texts]
        finally:
            embed_mod._BLOCK_BYTES = old

    def test_long_batch_spans_blocks_at_default_budget(self):
        texts = [f"chunk {i} " + "Straße İstanbul ﬁle " * (i % 50 + 1) for i in range(400)]
        assert sum(len(t.casefold().encode()) for t in texts) > 2 * embed_mod._BLOCK_BYTES
        assert embed_offline_batch(texts, 256) == [embed_offline(t, 256) for t in texts]

    def test_empty_text_rejected(self):
        with pytest.raises(EmptyText):
            embed_offline_batch(["ok", ""], 16)


class TestCosine:
    def test_identity(self):
        assert cosine(vec(1, 0), vec(1, 0)) == 1.0

    def test_orthogonal(self):
        assert cosine(vec(1, 0), vec(0, 1)) == 0.0

    def test_zero_norm(self):
        assert cosine(vec(0, 0), vec(1, 0)) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            cosine(vec(1, 0), vec(1, 0, 0))

    def test_symmetry_exact(self):
        a = embed_offline("alpha beta", 64)
        b = embed_offline("gamma delta", 64)
        assert cosine(a, b) == cosine(b, a)

    def test_scale_invariance(self):
        a, b = vec(1, 2, 3), vec(-1, 0.5, 2)
        scaled = Vector(dim=3, values=tuple(7.5 * x for x in a.values))
        assert cosine(scaled, b) == pytest.approx(cosine(a, b), abs=1e-9)

    def test_range(self):
        a, b = vec(1, -2, 3), vec(-4, 5, -6)
        assert -1 - 1e-9 <= cosine(a, b) <= 1 + 1e-9


class TestRemote:
    def cfg(self, server, **kw):
        defaults = dict(kind="remote", endpoint_url=server.url, model="m",
                        max_retries=2)
        defaults.update(kw)
        return EmbedderConfig(**defaults)

    def test_maps_in_order(self, fake_server):
        fake_server.script.append(
            (200, {"data": [{"embedding": [1.0] * 8}, {"embedding": [2.0] * 8}]}))
        vecs = embed_remote(["a", "b"], self.cfg(fake_server))
        assert [v.dim for v in vecs] == [8, 8]
        assert vecs[0].values[0] == 1.0 and vecs[1].values[0] == 2.0

    def test_dim_mismatch_in_response(self, fake_server):
        fake_server.script.append(
            (200, {"data": [{"embedding": [1.0] * 8}, {"embedding": [1.0] * 9}]}))
        with pytest.raises(DimMismatch):
            embed_remote(["a", "b"], self.cfg(fake_server))

    def test_retry_on_429_then_success(self, fake_server, no_backoff_sleep):
        fake_server.script.append((429, {"error": "slow down"}))
        vecs = embed_remote(["a"], self.cfg(fake_server))
        assert len(vecs) == 1
        assert no_backoff_sleep == [0.5]

    def test_rate_limit_exhausted(self, fake_server, no_backoff_sleep):
        fake_server.script.extend([(429, {})] * 3)
        with pytest.raises(RateLimitedExhausted):
            embed_remote(["a"], self.cfg(fake_server))
        assert no_backoff_sleep == [0.5, 1.0]

    def test_malformed_response(self, fake_server):
        fake_server.script.append((200, {"nope": []}))
        with pytest.raises(ProtocolError):
            embed_remote(["a"], self.cfg(fake_server))

    def test_batching_max_64(self, fake_server):
        texts = [f"t{i}" for i in range(130)]
        vecs = embed_remote(texts, self.cfg(fake_server))
        assert len(vecs) == 130
        sizes = [len(p["input"]) for _, p, _ in fake_server.requests]
        assert all(s <= 64 for s in sizes)
        assert sum(sizes) == 130

    def test_wire_shape(self, fake_server):
        embed_remote(["hello"], self.cfg(fake_server))
        path, payload, _ = fake_server.requests[0]
        assert path == "/v1/embeddings"
        assert payload == {"model": "m", "input": ["hello"]}

    def test_bearer_token_from_env(self, fake_server, monkeypatch):
        monkeypatch.setenv("RAGBENCH_API_KEY", "sekret")
        embed_remote(["hello"], self.cfg(fake_server))
        headers = fake_server.requests[0][2]
        assert headers.get("Authorization") == "Bearer sekret"

    def test_empty_input_rejected(self, fake_server):
        with pytest.raises(EmptyText):
            embed_remote([], self.cfg(fake_server))
        with pytest.raises(EmptyText):
            embed_remote(["ok", ""], self.cfg(fake_server))


def test_embed_texts_offline_dispatch():
    cfg = EmbedderConfig(kind="offline", dim=32)
    vecs = embed_texts(["a", "b"], cfg)
    assert [v.dim for v in vecs] == [32, 32]


def test_make_embed_fn_memoizes(monkeypatch):
    calls = []
    real = embed_mod.embed_offline_batch
    monkeypatch.setattr(embed_mod, "embed_offline_batch",
                        lambda ts, d: calls.append(list(ts)) or real(ts, d))
    fn = make_embed_fn(EmbedderConfig(kind="offline", dim=16))
    fn("q")
    fn("q")
    assert calls == [["q"]]


def test_make_embed_fn_single_flight(monkeypatch, in_threads):
    calls = []

    def slow(texts, cfg):
        calls.append(list(texts))
        time.sleep(0.05)
        return embed_offline_batch(texts, cfg.dim)

    monkeypatch.setattr(embed_mod, "embed_texts", slow)
    fn = make_embed_fn(EmbedderConfig(kind="offline", dim=16))
    out = in_threads(8, lambda i: fn("same question"))
    assert calls == [["same question"]]
    assert out == [embed_offline("same question", 16)] * 8
    assert fn.flight.waiting == {}


def test_make_embed_fn_waiter_retries_after_failure(monkeypatch, in_threads):
    calls = []

    def fail_first(texts, cfg):
        calls.append(list(texts))
        time.sleep(0.05)
        if len(calls) == 1:
            raise ProtocolError("first call fails")
        return embed_offline_batch(texts, cfg.dim)

    monkeypatch.setattr(embed_mod, "embed_texts", fail_first)
    fn = make_embed_fn(EmbedderConfig(kind="offline", dim=16))
    out = in_threads(8, lambda i: fn("q"))
    assert len(calls) == 2
    assert sum(isinstance(r, ProtocolError) for r in out) == 1
    assert sum(r == embed_offline("q", 16) for r in out) == 7
    assert fn.flight.waiting == {}
