import json
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ragbench.embed as embed_mod
import ragbench.store as store_mod
from ragbench.embed import (EmbedderConfig, cosine, embed_offline_batch,
                            embed_remote, embed_texts)
from ragbench.errors import RagBenchError

from oracles import embed_offline


def vec(*values):
    return np.array(values, dtype=np.float64)


def same_rows(got, expected):
    """Equal lengths and bit-identical float64 rows."""
    return len(got) == len(expected) and all(
        g.dtype == e.dtype == np.float64 and g.tobytes() == e.tobytes()
        for g, e in zip(got, expected))


class TestOffline:
    def test_deterministic(self):
        assert same_rows([embed_offline("abc", 256)], [embed_offline("abc", 256)])

    def test_self_cosine_one(self):
        v = embed_offline("abc", 256)
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_empty_text(self):
        with pytest.raises(RagBenchError, match=r"^cannot embed empty text$"):
            embed_offline("", 256)

    def test_unit_norm(self):
        for t in ["a", "ab", "abc", "héllo wörld", "x" * 500]:
            v = embed_offline(t, 256)
            assert math.sqrt(sum(x * x for x in v.tolist())) == pytest.approx(1.0, abs=1e-9)

    def test_short_text_single_gram(self):
        v = embed_offline("ab", 32)
        assert sum(1 for x in v.tolist() if x != 0.0) == 1

    def test_case_folded(self):
        assert same_rows([embed_offline("HeLLo", 64)], [embed_offline("hello", 64)])

    def test_similar_texts_score_higher_than_unrelated(self):
        a = embed_offline("patch the vulnerable server immediately", 256)
        b = embed_offline("patch the vulnerable server now", 256)
        c = embed_offline("qqq zzz 12345 xxyyzz", 256)
        assert cosine(a, b) > cosine(a, c)

    @settings(max_examples=200)
    @given(st.text(min_size=1, max_size=100))
    def test_property_unit_norm(self, text):
        v = embed_offline(text, 256)
        assert abs(math.sqrt(sum(x * x for x in v.tolist())) - 1.0) < 1e-9


# casefold expands "ß" to "ss", "İ" to "i̇" and "ﬁ" to "fi"; texts of 1 and 2
# bytes take embed_offline's single-hash branch
_BATCH_TEXT = st.text(alphabet=st.sampled_from("aZ 1éß İﬁ日\U0001F600"),
                      min_size=1, max_size=40)


class TestOfflineBatch:
    @settings(max_examples=200)
    @given(st.lists(_BATCH_TEXT, min_size=1, max_size=20),
           st.sampled_from([1, 7, 64, 100, 256, 384, 1024]))
    def test_equals_scalar_reference(self, texts, dim):
        # dims that divide 2**16 hash in uint16 lanes, the others in uint64
        assert same_rows(embed_offline_batch(texts, dim),
                         [embed_offline(t, dim) for t in texts])

    @pytest.mark.parametrize("dim", [2**16, 2**17, 3 * 2**15])
    def test_equals_scalar_reference_at_the_lane_edges(self, dim):
        # the largest dim hashed in uint16 lanes, the smallest power of two
        # hashed in uint64, and a multiple of 2**15 that does not divide 2**16
        texts = ["Straße İstanbul ﬁle", "ab", "日本語のテキスト",
                 "the quick brown fox jumps over the lazy dog " * 3]
        assert same_rows(embed_offline_batch(texts, dim),
                         [embed_offline(t, dim) for t in texts])

    @settings(max_examples=100)
    @given(st.lists(st.one_of(_BATCH_TEXT, st.text(min_size=1, max_size=3)),
                    min_size=1, max_size=30))
    def test_equals_scalar_reference_across_blocks(self, texts):
        # shrink both block budgets so one batch spans many blocks of at most
        # three texts, and a text longer than the byte budget gets a block of
        # its own
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embed_mod, "_BLOCK_BYTES", 16)
            mp.setattr(embed_mod, "_BLOCK_CELLS", 3 * 32)
            assert same_rows(embed_offline_batch(texts, 32),
                             [embed_offline(t, 32) for t in texts])

    def test_many_short_texts_keep_peak_memory_near_the_result(self):
        # 30,000 texts of 2 bytes fit one byte budget, but each row is a view
        # of its block's float matrix, and hashing a block also allocates an
        # int64 count matrix of that size: one block would double the peak
        texts = ["ab"] * 30000
        result_bytes = len(texts) * 256 * 8
        tracemalloc.start()
        try:
            rows = embed_offline_batch(texts, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == len(texts)
        assert peak - result_bytes < 16 * 2**20

    def test_long_batch_spans_blocks_at_default_budget(self):
        texts = [f"chunk {i} " + "Straße İstanbul ﬁle " * (i % 50 + 1) for i in range(400)]
        assert sum(len(t.casefold().encode()) for t in texts) > 2 * embed_mod._BLOCK_BYTES
        assert same_rows(embed_offline_batch(texts, 256),
                         [embed_offline(t, 256) for t in texts])

    def test_empty_text_rejected(self):
        with pytest.raises(RagBenchError, match=r"^cannot embed empty text$"):
            embed_offline_batch(["ok", ""], 16)


def _row(n):
    value = st.one_of(st.just(0.0), st.just(-0.0),
                      st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    return st.one_of(st.lists(value, min_size=n, max_size=n), st.just([0.0] * n))


class TestCosine:
    def test_identity(self):
        assert cosine(vec(1, 0), vec(1, 0)) == 1.0

    def test_orthogonal(self):
        assert cosine(vec(1, 0), vec(0, 1)) == 0.0

    def test_zero_norm(self):
        assert cosine(vec(0, 0), vec(1, 0)) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(RagBenchError, match=r"^dim 2 != 3$"):
            cosine(vec(1, 0), vec(1, 0, 0))

    def test_symmetry_exact(self):
        a = embed_offline("alpha beta", 64)
        b = embed_offline("gamma delta", 64)
        assert cosine(a, b) == cosine(b, a)

    def test_scale_invariance(self):
        a, b = vec(1, 2, 3), vec(-1, 0.5, 2)
        scaled = 7.5 * a
        assert cosine(scaled, b) == pytest.approx(cosine(a, b), abs=1e-9)

    def test_range(self):
        a, b = vec(1, -2, 3), vec(-4, 5, -6)
        assert -1 - 1e-9 <= cosine(a, b) <= 1 + 1e-9

    @settings(max_examples=200)
    @given(st.integers(1, 300).flatmap(lambda n: st.tuples(_row(n), _row(n))))
    def test_equals_sequential_loop_exactly(self, rows):
        # left-to-right float sums, as a scalar loop does them; a numpy dot
        # or a compensated sum() rounds differently in the last bits
        a, b = rows
        dot = na = nb = 0.0
        for x, y in zip(a, b):
            dot += x * y
            na += x * x
            nb += y * y
        expected = 0.0
        if na != 0.0 and nb != 0.0:
            expected = dot / (math.sqrt(na) * math.sqrt(nb))
        assert cosine(np.array(a), np.array(b)) == expected


class TestRemote:
    def cfg(self, server):
        return EmbedderConfig(kind="remote", endpoint_url=server.url, model="m")

    def test_maps_in_order(self, fake_server, tmp_path):
        fake_server.script.append(
            (200, {"data": [{"embedding": [1.0] * 8}, {"embedding": [2.0] * 8}]}))
        vecs = embed_remote(["a", "b"], self.cfg(fake_server), tmp_path)
        assert [len(v) for v in vecs] == [8, 8]
        assert vecs[0][0] == 1.0 and vecs[1][0] == 2.0

    def test_dim_mismatch_in_response(self, fake_server, tmp_path):
        fake_server.script.append(
            (200, {"data": [{"embedding": [1.0] * 8}, {"embedding": [1.0] * 9}]}))
        with pytest.raises(RagBenchError, match=r"^embedding dims disagree within response: \[8, 9\]$"):
            embed_remote(["a", "b"], self.cfg(fake_server), tmp_path)

    def test_retry_on_429_then_success(self, fake_server, no_backoff_sleep, tmp_path):
        fake_server.script.append((429, {"error": "slow down"}))
        vecs = embed_remote(["a"], self.cfg(fake_server), tmp_path)
        assert len(vecs) == 1
        assert no_backoff_sleep == [0.5]

    def test_rate_limit_exhausted(self, fake_server, no_backoff_sleep, tmp_path):
        fake_server.script.extend([(429, {})] * 4)
        with pytest.raises(RagBenchError, match=r"^rate limited after 3 retries: "):
            embed_remote(["a"], self.cfg(fake_server), tmp_path)
        assert no_backoff_sleep == [0.5, 1.0, 2.0]

    def test_malformed_response(self, fake_server, tmp_path):
        fake_server.script.append((200, {"nope": []}))
        with pytest.raises(RagBenchError, match=r"^malformed embeddings response: "):
            embed_remote(["a"], self.cfg(fake_server), tmp_path)

    def test_batching_max_64(self, fake_server, tmp_path):
        texts = [f"t{i}" for i in range(130)]
        vecs = embed_remote(texts, self.cfg(fake_server), tmp_path)
        assert len(vecs) == 130
        sizes = [len(p["input"]) for _, p, _ in fake_server.requests]
        assert all(s <= 64 for s in sizes)
        assert sum(sizes) == 130

    def test_wire_shape(self, fake_server, tmp_path):
        embed_remote(["hello"], self.cfg(fake_server), tmp_path)
        path, payload, _ = fake_server.requests[0]
        assert path == "/v1/embeddings"
        assert payload == {"model": "m", "input": ["hello"]}

    def test_bearer_token_from_env(self, fake_server, monkeypatch, tmp_path):
        monkeypatch.setenv("RAGBENCH_API_KEY", "sekret")
        embed_remote(["hello"], self.cfg(fake_server), tmp_path)
        headers = fake_server.requests[0][2]
        assert headers.get("Authorization") == "Bearer sekret"

    def test_empty_input_rejected(self, fake_server, tmp_path):
        with pytest.raises(RagBenchError, match=r"^no texts to embed$"):
            embed_remote([], self.cfg(fake_server), tmp_path)
        with pytest.raises(RagBenchError, match=r"^cannot embed empty text$"):
            embed_remote(["ok", ""], self.cfg(fake_server), tmp_path)

    @pytest.mark.parametrize("row", [[None], [1.0, None], [[1.0, 2.0]],
                                     [[1.0], [2.0, 3.0]], [], [True], [1.0, "2"],
                                     "1.0", 1.0, {"x": 1.0}, None, [float("nan"), 1.0],
                                     [1.0, float("inf")], [float("-inf")]])
    def test_malformed_values_rejected(self, fake_server, row, tmp_path):
        fake_server.script.append((200, {"data": [{"embedding": row}]}))
        with pytest.raises(RagBenchError, match=r"^(malformed embedding: |embedding is not a "
                                                r"non-empty list of finite numbers$)"):
            embed_remote(["a"], self.cfg(fake_server), tmp_path)

    def test_integer_values_become_float64(self, fake_server, tmp_path):
        fake_server.script.append((200, {"data": [{"embedding": [1, 2, 3]}]}))
        (v,) = embed_remote(["a"], self.cfg(fake_server), tmp_path)
        assert same_rows([v], [vec(1, 2, 3)])


class TestRemoteCache:
    def cfg(self, server, model="m"):
        return EmbedderConfig(kind="remote", endpoint_url=server.url, model=model)

    def test_warm_rerun_sends_no_requests(self, fake_server, tmp_path):
        texts = [f"text {i}" for i in range(130)]
        cold = embed_remote(texts, self.cfg(fake_server), tmp_path)
        sent = len(fake_server.requests)
        assert sent == 3
        warm = embed_remote(texts, self.cfg(fake_server), tmp_path)
        assert len(fake_server.requests) == sent
        assert same_rows(warm, cold)

    def test_key_covers_model_and_input(self, fake_server, tmp_path):
        embed_remote(["a", "b"], self.cfg(fake_server), tmp_path)
        embed_remote(["a", "b"], self.cfg(fake_server, model="m2"), tmp_path)
        embed_remote(["a"], self.cfg(fake_server), tmp_path)
        assert len(fake_server.requests) == 3
        assert len(list(tmp_path.iterdir())) == 3

    def test_invalid_response_not_stored(self, fake_server, tmp_path):
        fake_server.script.append((200, {"data": [{"embedding": [None]}]}))
        with pytest.raises(RagBenchError,
                           match=r"^embedding is not a non-empty list of finite numbers$"):
            embed_remote(["a"], self.cfg(fake_server), tmp_path)
        assert list(tmp_path.iterdir()) == []
        (v,) = embed_remote(["a"], self.cfg(fake_server), tmp_path)
        assert same_rows([v], [np.full(8, 1.0)])

    @pytest.mark.parametrize("embeddings", [None, "x", [], [[None]], [[1.0]],
                                            [[1.0] * 8, [1.0] * 9],
                                            [[float("nan")] * 8, [2.0] * 8],
                                            [[1.0] * 8, [2.0] * 7 + [float("inf")]]])
    def test_entry_of_wrong_shape_is_a_miss(self, fake_server, tmp_path, embeddings):
        cfg = self.cfg(fake_server)
        embed_remote(["a", "bb"], cfg, tmp_path)
        (entry,) = tmp_path.iterdir()
        key = json.loads(entry.read_text())["request_key"]
        entry.write_text(json.dumps({"request_key": key, "embeddings": embeddings}))
        vecs = embed_remote(["a", "bb"], cfg, tmp_path)
        assert len(fake_server.requests) == 2
        assert same_rows(vecs, [np.full(8, 1.0), np.full(8, 2.0)])
        # entry overwritten
        embed_remote(["a", "bb"], cfg, tmp_path)
        assert len(fake_server.requests) == 2

    def test_cold_store_single_flight(self, fake_server, tmp_path, in_threads):
        cfg = self.cfg(fake_server)
        out = in_threads(2, lambda i: embed_remote(["same"], cfg, tmp_path))
        assert len(fake_server.requests) == 1
        assert same_rows([v for (v,) in out], [np.full(8, 4.0)] * 2)
        assert store_mod._FILLING == set()


def test_embed_texts_offline_dispatch():
    cfg = EmbedderConfig(kind="offline", dim=32)
    vecs = embed_texts(["a", "b"], cfg)
    assert [len(v) for v in vecs] == [32, 32]


@pytest.mark.parametrize("error", [RagBenchError, RuntimeError],
                         ids=lambda e: e.__name__)
def test_store_fetch_waiter_retries_after_failure(tmp_path, in_threads, error):
    # 8 threads miss one entry at once: the owner's compute fails, and one
    # waiter then computes again and stores what the other six read
    calls = []

    def fail_first():
        calls.append(1)
        time.sleep(0.05)
        if len(calls) == 1:
            raise error("first call fails")
        return "value", {"value": "value"}

    out = in_threads(8, lambda i: store_mod.fetch(tmp_path, "k", lambda e: e["value"],
                                                  fail_first))
    assert len(calls) == 2
    assert sum(isinstance(r, error) for r in out) == 1
    assert out.count("value") == 7
    assert store_mod._FILLING == set()


def test_store_fetch_two_threads_fill_two_entries_at_once(tmp_path, in_threads):
    # each compute waits for the other's: fills of different entries that
    # ran one after another would break the barrier
    barrier = threading.Barrier(2, timeout=5)

    def compute(i):
        barrier.wait()
        return i, {"value": i}

    out = in_threads(2, lambda i: store_mod.fetch(tmp_path, f"k{i}", lambda e: e["value"],
                                                  lambda: compute(i)))
    assert out == [0, 1]
    assert store_mod._FILLING == set()
