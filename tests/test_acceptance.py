"""Acceptance suite; it needs no network (the remote criterion runs against
an in-process fake server). Each test prints one PASS/FAIL line."""

import functools
import random
import time

import numpy as np

from ragbench.chunker import chunk_text
from ragbench.config import AppConfig
from ragbench.corpus import Document
from ragbench.embed import EmbedderConfig, embed_texts
from ragbench.llm import cached, generate, mock_generate
from ragbench.metrics import (LexicalJudge, MetricConfig, QAItem,
                              answer_correctness, f1)
from ragbench.rag import RagConfig
from ragbench.report import SweepReport, SweepRow, emit_csv, emit_svg
from ragbench.sweep import run_sweep
from ragbench.vectorstore import Index

from oracles import Entry, embed_offline, oracle_topk

EMB = EmbedderConfig(kind="offline")
SIZES = [250, 500, 1000, 2000, 4000, 8000]


def offline_batch(texts):
    return embed_texts(texts, EMB, None)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {desc}")
                raise
            print(f"PASS criterion {num}: {desc}")
        return wrapper
    return deco


def random_text(rng, max_len=400):
    alphabet = (
        "abcdefghijklmnopqrstuvwxyz .,!?"
        "éüßő中文Жא\U0001F600"
    )
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))


@criterion(1, "chunker property suite (1000 random strings, < 10 s)")
def test_criterion_1_chunker_properties():
    rng = random.Random(101)
    t0 = time.monotonic()
    for _ in range(1000):
        text = random_text(rng)
        size = rng.randint(1, 64)
        chunks = chunk_text(text, size)
        n = len(text)
        covered = set()
        for k, c in enumerate(chunks):
            start = k * size
            assert 0 < len(c) <= size                      # size bound
            assert c == text[start:start + size]           # window positions
            assert c.encode("utf-8").decode("utf-8") == c  # cp safety
            covered.update(range(start, start + len(c)))
        assert covered == set(range(n))                    # coverage
        assert "".join(chunks) == text                     # concat identity
    assert time.monotonic() - t0 < 10.0


@criterion(2, "vector store equals brute-force oracle (1000x100, k in {1,5,10}, < 5 s)")
def test_criterion_2_vectorstore_oracle():
    rng = random.Random(202)
    t0 = time.monotonic()
    entries = [
        Entry(chunk_ref=(f"doc{i // 20}", i % 20),
              vector=np.array([rng.uniform(-1, 1) for _ in range(32)]),
              text=f"text {i}")
        for i in range(1000)
    ]
    # chunk i has its own text, and so its own row
    index = Index([(e.chunk_ref, e.text) for e in entries], {e.text: e.vector for e in entries})
    for _ in range(100):
        q = np.array([rng.uniform(-1, 1) for _ in range(32)])
        expected_all = oracle_topk(entries, q, 10)
        for k in (1, 5, 10):
            hits = index.query_topk([q], k)[0]
            expected = expected_all[:k]
            assert [h.chunk_ref for h in hits] == [r for _, r in expected]
            for h, (s, _) in zip(hits, expected):
                assert abs(h.score - s) <= 1e-12
    assert time.monotonic() - t0 < 5.0


@criterion(4, "metric algebra: hand tables exact; range over 10^4 random triples")
def test_criterion_4_metric_algebra():
    assert f1(1, 0, 0) == 1.0
    assert f1(1, 1, 1) == 0.5
    assert abs(0.75 * 0.5 + 0.25 * 0.9 - 0.600000) <= 1e-12
    cfg = MetricConfig()
    rng = random.Random(404)
    for _ in range(10_000):
        tp, fp, fn = rng.randint(0, 20), rng.randint(0, 20), rng.randint(0, 20)
        if tp == fp == fn == 0:
            tp = 1
        f = f1(tp, fp, fn)
        s = rng.random()
        assert 0.0 <= f <= 1.0
        score = cfg.w_factual * f + (1 - cfg.w_factual) * s
        assert 0.0 <= score <= 1.0


@criterion(5, "perfect-answer fixpoint: answer == ground truth scores 1.0")
def test_criterion_5_perfect_answer_fixpoint():
    rng = random.Random(505)
    words = ["patch", "server", "router", "threat", "audit", "firewall",
             "backup", "incident", "log", "scan", "segment", "token"]

    def embed_fn(text):
        return embed_texts([text], EMB, None)[0]

    for _ in range(50):
        gt = " ".join(
            " ".join(rng.choices(words, k=rng.randint(3, 8))).capitalize() + "."
            for _ in range(rng.randint(1, 4))
        )
        qa = QAItem(id="q", question="?", ground_truth=gt)
        r = answer_correctness(gt, qa, embed_fn, MetricConfig(), LexicalJudge())
        assert abs(r.answer_correctness - 1.0) <= 1e-9


def synthetic_corpus(n=100, seed=606):
    rng = random.Random(seed)
    words = ["network", "threat", "patch", "router", "malware", "phishing",
             "firewall", "audit", "backup", "incident", "report", "scan",
             "segment", "token", "policy", "vector"]
    docs = []
    for i in range(n):
        body = " ".join(rng.choices(words, k=rng.randint(100, 220))) + "."
        docs.append(Document(id=f"doc{i:03d}", body=body))
    return docs


def synthetic_qa(n=6):
    return [QAItem(id=f"q{i}", question=f"What does the policy say about threat {i}?",
                   ground_truth=f"Threat {i} requires a patch and an audit. "
                                f"The firewall policy must log every scan.")
            for i in range(n)]


@criterion(6, "end-to-end offline sweep determinism (< 60 s)")
def test_criterion_6_end_to_end_determinism(tmp_path):
    # as the CLI's offline backend: the mock, never cached
    t0 = time.monotonic()
    docs = synthetic_corpus()
    qa = synthetic_qa()
    cfg = AppConfig(chunk_sizes=list(SIZES))
    outputs = []
    for run_id in ("one", "two"):
        report = run_sweep(docs, qa, cfg, embed_texts_fn=offline_batch,
                           embed_single_fn=offline_batch,
                           generate_fn=mock_generate, judge=LexicalJudge())
        out = tmp_path / run_id
        out.mkdir()
        emit_csv(report, out)
        emit_svg(report, out)
        outputs.append(out)
    csv_a = (outputs[0] / "report.csv").read_bytes()
    csv_b = (outputs[1] / "report.csv").read_bytes()
    assert csv_a == csv_b
    assert len(csv_a.decode().splitlines()) == 7
    assert (outputs[0] / "report.svg").read_bytes() == \
        (outputs[1] / "report.svg").read_bytes()
    assert time.monotonic() - t0 < 60.0


@criterion(6, "remote sweep: warm cache makes zero backend calls; reports identical")
def test_criterion_6_remote_warm_cache(tmp_path, fake_server):
    docs = synthetic_corpus(n=20)
    qa = synthetic_qa(n=3)
    cfg = AppConfig(chunk_sizes=[500, 2000])
    emb = EmbedderConfig(kind="remote", endpoint_url=fake_server.url, model="e")
    cache_dir = tmp_path / "cache"
    outputs, requests = [], []

    def remote_generate(req):
        return cached(lambda r: generate(r, fake_server.url), req, cache_dir, fake_server.url)

    for run_id in ("one", "two"):
        before = len(fake_server.requests)
        report = run_sweep(docs, qa, cfg,
                           embed_texts_fn=lambda texts: embed_texts(texts, emb, cache_dir),
                           embed_single_fn=lambda texts: embed_texts(texts, emb, cache_dir),
                           generate_fn=remote_generate, judge=LexicalJudge())
        requests.append(len(fake_server.requests) - before)
        out = tmp_path / run_id
        out.mkdir()
        emit_csv(report, out)
        emit_svg(report, out)
        outputs.append(out)
    assert requests[0] > 0
    assert requests[1] == 0  # warm cache: no chat and no embedding requests
    for name in ("report.csv", "report.svg"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()


VOCAB_PLANTED = ["quartz", "lattice", "osmium", "tundra", "falcon", "ember",
                 "glacier", "nimbus", "orchid", "zephyr", "cobalt", "maroon",
                 "sierra", "krypton", "velvet", "saffron"]
VOCAB_NOISE = ["wobble", "jelly", "trampoline", "kazoo", "noodle", "pickle",
               "banjo", "walrus", "yodel", "muffin", "slinky", "gnome"]

PLANTED_RAG = dict(top_k=1)


def run_means(docs, qa, sizes=SIZES, rag_kw=PLANTED_RAG):
    cfg = AppConfig(chunk_sizes=list(sizes), rag=RagConfig(**rag_kw))
    report = run_sweep(docs, qa, cfg, embed_texts_fn=offline_batch,
                       embed_single_fn=offline_batch,
                       generate_fn=mock_generate, judge=LexicalJudge())
    return {row.chunk_size: row.mean_correctness for row in report.rows}


@criterion(7, "planted corpus scores >= 0.3 above unrelated corpus at every size")
def test_criterion_7_planted_corpus_sensitivity():
    rng = random.Random(707)
    qa, docs_a = [], []
    for i in range(5):
        w = rng.sample(VOCAB_PLANTED, 8)
        gt = (f"The {w[0]} {w[1]} protocol requires {w[2]} {w[3]} validation. "
              f"Always inspect the {w[4]} {w[5]} register before {w[6]} {w[7]} handoff.")
        qa.append(QAItem(id=f"q{i}",
                         question=f"What does the {w[0]} {w[1]} protocol "
                                  f"require before {w[6]} {w[7]} handoff?",
                         ground_truth=gt))
        docs_a.append(Document(id=f"a{i}", body=gt))
    docs_b = [Document(id=f"b{i}",
                       body=" ".join(rng.choices(VOCAB_NOISE, k=30)) + ".")
              for i in range(5)]

    # pre-check with the brute-force oracle: each planted doc is rank-0
    entries = [Entry(chunk_ref=(d.id, 0),
                     vector=embed_offline(d.body), text=d.body)
               for d in docs_a]
    for i, item in enumerate(qa):
        top = oracle_topk(entries, embed_offline(item.question), 1)
        assert top[0][1] == (f"a{i}", 0)

    means_a = run_means(docs_a, qa)
    means_b = run_means(docs_b, qa)
    for size in SIZES:
        assert means_a[size] - means_b[size] >= 0.3, \
            f"size {size}: {means_a[size]:.4f} vs {means_b[size]:.4f}"


@criterion(8, "300-cp spans score strictly higher at sizes >= 500 than at 250")
def test_criterion_8_span_effect():
    rng = random.Random(808)
    qa, docs = [], []
    for i in range(5):
        sents = []
        while True:
            w = rng.sample(VOCAB_PLANTED, 6)
            sents.append(f"Rule {i} part {len(sents)}: the {w[0]} {w[1]} module "
                         f"binds {w[2]} {w[3]} to the {w[4]} {w[5]} bus.")
            span = " ".join(sents)
            if len(span) >= 280:
                break
        span = span[:300] if len(span) > 300 else span.ljust(300, ".")
        prefix = (" ".join(rng.choices(VOCAB_NOISE, k=40)) + ".")[:99] + " "
        suffix = " " + (" ".join(rng.choices(VOCAB_NOISE, k=80)) + ".")[:199]
        body = prefix + span + suffix
        assert len(span) == 300 and body.index(span) == 100
        docs.append(Document(id=f"d{i}", body=body))
        qa.append(QAItem(id=f"q{i}", question=f"What does rule {i} specify?",
                         ground_truth=span))
    means = run_means(docs, qa)
    for size in (500, 1000, 2000, 4000, 8000):
        assert means[size] > means[250], \
            f"size {size}: {means[size]:.4f} not > {means[250]:.4f}"


@criterion(9, "report shape: one ascending row per size; SVG bars; argmax")
def test_criterion_9_report_shape(tmp_path):
    docs = synthetic_corpus(n=10)
    qa = synthetic_qa(n=3)
    cfg = AppConfig(chunk_sizes=list(SIZES))
    report = run_sweep(docs, qa, cfg, embed_texts_fn=offline_batch,
                       embed_single_fn=offline_batch,
                       generate_fn=mock_generate, judge=LexicalJudge())
    emit_csv(report, tmp_path)
    emit_svg(report, tmp_path)
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "chunk_size,mean_correctness,n"
    row_sizes = [int(line.split(",")[0]) for line in lines[1:]]
    assert row_sizes == SIZES
    svg = (tmp_path / "report.svg").read_text()
    assert svg.count('class="bar"') == len(report.rows)
    # argmax on hand-built reports
    hand = [SweepRow(250, 0.4, 3), SweepRow(500, 0.9, 3), SweepRow(1000, 0.9, 3)]
    assert SweepReport(hand, {}).argmax_sizes == [500, 1000]
    assert SweepReport([SweepRow(250, 0.2, 3)], {}).argmax_sizes == [250]
