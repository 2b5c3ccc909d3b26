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
    @given(st.lists(st.one_of(_BATCH_TEXT, st.text(min_size=1, max_size=3)),
                    min_size=1, max_size=20))
    def test_equals_scalar_reference(self, texts):
        # the uint8 lane's hash is FNV-1a-64's low byte, its bucket of 256
        assert same_rows(embed_offline_batch(texts),
                         [embed_offline(t, 256) for t in texts])

    @settings(max_examples=100)
    @given(st.lists(st.one_of(_BATCH_TEXT, st.text(min_size=1, max_size=3)),
                    min_size=1, max_size=30))
    def test_equals_scalar_reference_across_blocks(self, texts):
        # shrink both block budgets so one batch spans many blocks of at most
        # three texts, and a text longer than the byte budget gets a block of
        # its own
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embed_mod, "_BLOCK_BYTES", 16)
            mp.setattr(embed_mod, "_BLOCK_TEXTS", 3)
            assert same_rows(embed_offline_batch(texts),
                             [embed_offline(t, 256) for t in texts])

    def test_blocks_hold_at_most_block_texts(self, monkeypatch):
        blocks = []
        embed_block = embed_mod._embed_block
        monkeypatch.setattr(embed_mod, "_embed_block",
                            lambda datas: blocks.append(len(datas)) or embed_block(datas))
        monkeypatch.setattr(embed_mod, "_BLOCK_TEXTS", 3)
        texts = ["a", "ab", "abc", "日本", "x" * 40, "Straße", "z"]
        assert same_rows(embed_offline_batch(texts), [embed_offline(t, 256) for t in texts])
        assert blocks == [3, 3, 1]

    def test_many_short_texts_keep_peak_memory_near_the_result(self):
        # 30,000 texts of 2 bytes fit one byte budget, but each row is a view
        # of its block's float matrix, and hashing a block also allocates an
        # int64 count matrix of that size: one block would double the peak
        texts = ["ab"] * 30000
        result_bytes = len(texts) * 256 * 8
        tracemalloc.start()
        try:
            rows = embed_offline_batch(texts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == len(texts)
        assert peak - result_bytes < 16 * 2**20

    def test_long_batch_spans_blocks_at_default_budget(self):
        texts = [f"chunk {i} " + "Straße İstanbul ﬁle " * (i % 50 + 1) for i in range(400)]
        assert sum(len(t.casefold().encode()) for t in texts) > 2 * embed_mod._BLOCK_BYTES
        assert same_rows(embed_offline_batch(texts),
                         [embed_offline(t, 256) for t in texts])

    def test_every_short_text_equals_scalar_reference(self):
        # every text of one code point up to U+07FF or two ASCII ones: nearly
        # all are under 3 bytes, so hashed whole, and in one batch they fill
        # many blocks of _BLOCK_TEXTS texts
        texts = [chr(c) for c in range(0x800)]
        texts += [chr(a) + chr(b) for a in range(128) for b in range(128)]
        assert len(texts) == 18432 and len(texts) > 2 * embed_mod._BLOCK_TEXTS
        assert same_rows(embed_offline_batch(texts),
                         [embed_offline(t, 256) for t in texts])

    def test_empty_text_rejected(self):
        with pytest.raises(RagBenchError, match=r"^cannot embed empty text$"):
            embed_offline_batch(["ok", ""])


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
        with pytest.raises(RagBenchError, match=r"^cannot embed empty text$"):
            embed_remote(["ok", ""], self.cfg(fake_server), tmp_path)
        assert fake_server.requests == []

    def test_no_texts_send_no_request(self, fake_server, tmp_path):
        # as embed_offline_batch returns [] for []
        assert embed_remote([], self.cfg(fake_server), tmp_path) == []
        assert fake_server.requests == []
        assert list(tmp_path.iterdir()) == []

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
    vecs = embed_texts(["a", "bcd"], EmbedderConfig(kind="offline"), None)
    assert same_rows(vecs, [embed_offline("a", 256), embed_offline("bcd", 256)])


def same(reply):
    return reply


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
        return "value"

    out = in_threads(8, lambda i: store_mod.fetch(tmp_path, "k", "value", same, fail_first))
    assert len(calls) == 2
    assert sum(isinstance(r, error) for r in out) == 1
    assert out.count(("value", False)) == 1
    assert out.count(("value", True)) == 6
    assert store_mod._FILLING == set()


def test_store_fetch_two_threads_fill_two_entries_at_once(tmp_path, in_threads):
    # each compute waits for the other's: fills of different entries that
    # ran one after another would break the barrier
    barrier = threading.Barrier(2, timeout=5)

    def compute(i):
        barrier.wait()
        return i

    out = in_threads(2, lambda i: store_mod.fetch(tmp_path, f"k{i}", "value", same,
                                                  lambda: compute(i)))
    assert out == [(0, False), (1, False)]
    assert store_mod._FILLING == set()


def test_store_fetch_waiters_read_a_stored_entry(tmp_path, in_threads):
    # 8 threads fetch an entry that is already stored: each reads it in turn
    # and none calls compute
    store_mod.fetch(tmp_path, "k", "value", same, lambda: "value")
    calls = []

    def compute():
        calls.append(1)
        return "other"

    out = in_threads(8, lambda i: store_mod.fetch(tmp_path, "k", "value", same, compute))
    assert out == [("value", True)] * 8
    assert calls == []
    assert store_mod._FILLING == set()


def test_store_fetch_reads_an_entry_once_per_call(tmp_path, monkeypatch):
    reads = []
    read_entry = store_mod._read_entry
    monkeypatch.setattr(store_mod, "_read_entry",
                        lambda *args: reads.append(1) or read_entry(*args))
    for hit in (False, True):  # a miss, then a hit
        assert store_mod.fetch(tmp_path, "k", "value", same,
                               lambda: "value") == ("value", hit)
    assert len(reads) == 2


def test_store_fetch_stores_and_replays_only_what_parse_accepts(tmp_path):
    def parse(reply):  # a list of numbers; an empty one parses to None
        if not isinstance(reply, list):
            raise RagBenchError("not a list")
        return tuple(reply) or None

    replies = [{"rows": [1]}, [1, 2]]
    calls = []

    def compute():
        calls.append(1)
        return replies[len(calls) - 1]

    def fetch():
        return store_mod.fetch(tmp_path, "k", "rows", parse, compute)

    # a fresh reply that parse rejects raises and is not stored, so the next
    # fetch calls compute again: a miss, stored, then a hit
    with pytest.raises(RagBenchError, match=r"^not a list$"):
        fetch()
    assert list(tmp_path.iterdir()) == []
    assert fetch() == ((1, 2), False)
    assert fetch() == ((1, 2), True)
    assert len(calls) == 2
    entry = tmp_path / "k"
    assert json.loads(entry.read_text()) == {"request_key": "k", "rows": [1, 2]}
    # a stored field that parse rejects, or maps to None, is a miss and is
    # overwritten
    for n, stored in enumerate(["x", []], start=3):
        entry.write_text(json.dumps({"request_key": "k", "rows": stored}))
        replies.append([n])
        assert fetch() == ((n,), False)
        assert fetch() == ((n,), True)
        assert len(calls) == n
        assert json.loads(entry.read_text())["rows"] == [n]
