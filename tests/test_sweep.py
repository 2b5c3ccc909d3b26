import json
import random
import re
import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import asdict

import numpy as np
import pytest

from ragbench.config import AppConfig
from ragbench.corpus import Document
import ragbench.embed as embed_mod
from ragbench.chunker import ChunkConfig, chunk_corpus
from ragbench.embed import EmbedderConfig, embed_texts
from ragbench.errors import InvalidConfig, RagBenchError
import ragbench.store as store_mod
from ragbench.llm import ChatResponse, make_cached_fn, mock_generate
from ragbench.metrics import LexicalJudge, QAItem, answer_correctness
from ragbench.rag import answer_question
from ragbench.report import SweepReport, SweepRow, clear, emit_csv, emit_svg
import ragbench.sweep as sweep_mod
from ragbench.vectorstore import Index

from ragbench.sweep import _collect, _submit, run_sweep

from oracles import embed_offline

EMB = EmbedderConfig(kind="offline")


def offline_batch(texts):
    return embed_texts(texts, EMB, None)


def single_batch(texts):
    """offline_batch through the embed module's name, as the CLI embeds
    single texts, so that a test can patch it there."""
    return embed_mod.embed_texts(texts, EMB, None)


def recording(calls):
    """single_batch that first appends the list of texts it gets to calls."""
    return lambda texts: calls.append(texts) or single_batch(texts)


def make_corpus(n=12, seed=4):
    rng = random.Random(seed)
    words = ["network", "threat", "patch", "router", "malware", "phishing",
             "firewall", "audit", "backup", "incident", "report", "scan"]
    docs = []
    for i in range(n):
        body = " ".join(rng.choices(words, k=80)) + "."
        docs.append(Document(id=f"doc{i}", source="synthetic", title="", body=body))
    return docs


def make_qa(n=4):
    return [QAItem(id=f"q{i}", question=f"What about threat number {i}?",
                   ground_truth=f"Threat number {i} requires a patch. "
                                f"Then audit the firewall logs.")
            for i in range(n)]


def embed_short_only(texts):
    """offline_batch that fails for any text over 150 characters."""
    if any(len(t) > 150 for t in texts):
        raise RagBenchError("boom")
    return offline_batch(texts)


def down_for_q1(calls):
    """embed_mod.embed_texts that first appends the list of texts it gets to
    calls, and fails a batch that holds q1's question."""
    def embed(texts, cfg, cache_dir):
        calls.append(list(texts))
        if "What about threat number 1?" in texts:
            raise RagBenchError("embedder down")
        return embed_texts(texts, cfg, cache_dir)
    return embed


def run(cfg=None, docs=None, qa=None, **kw):
    cfg = cfg or AppConfig(chunk_sizes=[100, 200, 400])
    return run_sweep(docs or make_corpus(), qa or make_qa(), cfg,
                     embed_texts_fn=offline_batch, embed_single_fn=single_batch,
                     generate_fn=mock_generate, judge=LexicalJudge(), **kw)


class TestConfig:
    def test_default_sizes(self):
        assert AppConfig().chunk_sizes == [250, 500, 1000, 2000, 4000, 8000]

    def test_sizes_must_increase(self):
        with pytest.raises(InvalidConfig):
            AppConfig(chunk_sizes=[100, 50])

    def test_sizes_exceed_overlap(self):
        with pytest.raises(InvalidConfig):
            AppConfig(chunk_sizes=[10, 20], overlap=10)

    def test_negative_overlap(self):
        with pytest.raises(InvalidConfig):
            AppConfig(chunk_sizes=[10, 20], overlap=-1)

    def test_empty_sizes(self):
        with pytest.raises(InvalidConfig):
            AppConfig(chunk_sizes=[])


class TestRunSweep:
    def test_one_row_per_size(self):
        report = run(AppConfig(chunk_sizes=[250, 500, 1000, 2000, 4000, 8000]))
        assert [r.chunk_size for r in report.rows] == \
            [250, 500, 1000, 2000, 4000, 8000]
        assert all(0.0 <= r.mean_correctness <= 1.0 for r in report.rows)
        assert all(r.n == 4 for r in report.rows)

    def test_deterministic(self):
        a, b = run(), run()
        assert a == b

    def test_size_isolation(self):
        both = run(AppConfig(chunk_sizes=[100, 200]))
        alone = run(AppConfig(chunk_sizes=[100]))
        assert both.per_question[100] == alone.per_question[100]
        assert both.rows[0].mean_correctness == alone.rows[0].mean_correctness

    def test_report_conservation(self):
        report = run()
        for row in report.rows:
            scores = [r.answer_correctness for r in report.per_question[row.chunk_size]]
            assert row.mean_correctness == sum(scores) / len(scores)
            assert row.n == len(scores)

    def test_per_size_jsonl_dump(self, tmp_path):
        run(out_dir=tmp_path)
        for size in (100, 200, 400):
            assert (tmp_path / str(size) / "results.jsonl").is_file()

    def test_jsonl_lines_are_results_as_dicts(self, tmp_path):
        report = run(out_dir=tmp_path)
        for size, results in report.per_question.items():
            lines = (tmp_path / str(size) / "results.jsonl").read_text(
                encoding="utf-8").splitlines()
            assert lines == [json.dumps(asdict(r), ensure_ascii=False) for r in results]

    def test_abort_by_default(self):
        with pytest.raises(RagBenchError):
            run_sweep(make_corpus(), make_qa(),
                      AppConfig(chunk_sizes=[100, 400]),
                      embed_texts_fn=embed_short_only, embed_single_fn=single_batch,
                      generate_fn=mock_generate, judge=LexicalJudge())

    def test_keep_going_records_failed_row(self):
        report = run_sweep(make_corpus(), make_qa(),
                           AppConfig(chunk_sizes=[100, 400]),
                           embed_texts_fn=embed_short_only,
                           embed_single_fn=single_batch,
                           generate_fn=mock_generate, judge=LexicalJudge(),
                           keep_going=True)
        assert [r.chunk_size for r in report.rows] == [100, 400]
        assert not report.rows[0].failed
        assert report.rows[1].failed
        assert "boom" in report.rows[1].error
        assert report.argmax_sizes == [100]

    def test_aborted_sweep_removes_old_results(self, tmp_path):
        # run_sweep deletes nothing; after the clear that cmd_sweep runs
        # first, an aborted sweep writes results for the sizes that succeeded
        # and none for the failed size or the sizes it never reached
        cfg = AppConfig(chunk_sizes=[100, 400, 800])
        run(cfg, out_dir=tmp_path)
        clear(tmp_path)
        with pytest.raises(RagBenchError):
            run_sweep(make_corpus(), make_qa(), cfg,
                      embed_texts_fn=embed_short_only, embed_single_fn=single_batch,
                      generate_fn=mock_generate, judge=LexicalJudge(), out_dir=tmp_path)
        assert (tmp_path / "100" / "results.jsonl").is_file()
        assert not (tmp_path / "400" / "results.jsonl").exists()
        assert not (tmp_path / "800" / "results.jsonl").exists()

    def test_keep_going_removes_old_results_of_failed_size(self, tmp_path):
        # after the clear that cmd_sweep runs first, a keep-going sweep writes
        # no results for its failed size; the clear itself is checked by
        # test_cli.py's test_failed_sweep_leaves_no_old_outputs
        cfg = AppConfig(chunk_sizes=[100, 400])
        run(cfg, out_dir=tmp_path)
        assert (tmp_path / "400" / "results.jsonl").is_file()
        clear(tmp_path)
        report = run_sweep(make_corpus(), make_qa(), cfg,
                           embed_texts_fn=embed_short_only, embed_single_fn=single_batch,
                           generate_fn=mock_generate, judge=LexicalJudge(),
                           keep_going=True, out_dir=tmp_path)
        assert report.rows[1].failed
        assert (tmp_path / "100" / "results.jsonl").is_file()
        assert not (tmp_path / "400" / "results.jsonl").exists()


def slow_early_generate(n, fail=()):
    """mock_generate that sleeps longer for earlier questions, so a pool
    finishes QA items in reverse input order; raises for the numbers in
    fail."""
    def fn(req):
        i = int(re.search(r"threat number (\d+)", req.messages[-1]["content"])[1])
        time.sleep(0.003 * (n - i))
        if i in fail:
            raise RagBenchError(f"backend down for question {i}")
        return mock_generate(req)
    return fn


class TestConcurrency:
    def test_same_report_and_bytes_as_sequential(self, tmp_path):
        qa = make_qa(8)
        outs = {}
        for workers in (1, 4):
            out = tmp_path / str(workers)
            report = run(qa=qa, out_dir=out, concurrency=workers)
            report_bytes = {size: (out / str(size) / "results.jsonl").read_bytes()
                            for size in (100, 200, 400)}
            outs[workers] = report, report_bytes
        assert outs[4] == outs[1]

    @pytest.mark.parametrize("keep_going", [True, False])
    def test_earliest_failure_in_input_order(self, keep_going):
        # q5 fails first in time, q2 first in input order
        def sweep(workers):
            return run_sweep(make_corpus(), make_qa(8),
                             AppConfig(chunk_sizes=[100, 200]),
                             embed_texts_fn=offline_batch,
                             embed_single_fn=single_batch,
                             generate_fn=slow_early_generate(8, fail={2, 5}),
                             judge=LexicalJudge(), keep_going=keep_going,
                             concurrency=workers)

        if keep_going:
            rows = sweep(4).rows
            assert rows == sweep(1).rows
            assert rows[0].error == "[qa q2] backend down for question 2"
        else:
            with pytest.raises(RagBenchError, match=r"^\[qa q2\] backend down for question 2$"):
                sweep(4)

    def test_no_waiters_left_after_sweep(self, tmp_path):
        run_sweep(make_corpus(), make_qa(8), AppConfig(chunk_sizes=[100, 200]),
                  embed_texts_fn=offline_batch, embed_single_fn=single_batch,
                  generate_fn=make_cached_fn(slow_early_generate(8), tmp_path),
                  judge=LexicalJudge(), concurrency=4)
        assert store_mod._FILLING == set()


class TestPipeline:
    def test_answering_overlaps_next_size_indexing(self):
        # no answer can finish until the second size's chunks are embedded:
        # a sweep that answers a size before it indexes the next one fails
        second_size = threading.Event()
        chunk_calls = []

        def embed_chunks(texts):
            chunk_calls.append(texts)
            if len(chunk_calls) == 2:
                second_size.set()
            return offline_batch(texts)

        def generate(req):
            if not second_size.wait(timeout=5):
                raise RagBenchError("the next size was not indexed while answering")
            return mock_generate(req)

        cfg = AppConfig(chunk_sizes=[100, 200])
        report = run_sweep(make_corpus(), make_qa(8), cfg, embed_texts_fn=embed_chunks,
                           embed_single_fn=single_batch, generate_fn=generate,
                           judge=LexicalJudge(), concurrency=4)
        assert report == run(cfg, qa=make_qa(8))

    @pytest.mark.parametrize("keep_going", [True, False])
    def test_failure_cancels_queued_items(self, keep_going):
        # q0 fails once every item is queued, the others later: only the
        # items already started when q0 fails (one per thread) may run
        calls = []

        def generate(req):
            calls.append(req)
            first = "threat number 0?" in req.messages[-1]["content"]
            time.sleep(0.01 if first else 0.05)
            raise RagBenchError("backend down")

        def sweep():
            return run_sweep(make_corpus(), make_qa(8),
                             AppConfig(chunk_sizes=[100, 200, 400]),
                             embed_texts_fn=offline_batch, embed_single_fn=single_batch,
                             generate_fn=generate, judge=LexicalJudge(),
                             keep_going=keep_going, concurrency=4)

        if keep_going:
            assert [r.error for r in sweep().rows] == ["[qa q0] backend down"] * 3
            assert len(calls) <= 4 * 3
        else:
            with pytest.raises(RagBenchError, match=r"^\[qa q0\] backend down$"):
                sweep()
            assert len(calls) <= 4

    def test_answers_embedded_in_one_batch_per_sweep(self, monkeypatch):
        single, answers = [], set()
        monkeypatch.setattr(embed_mod, "embed_texts",
                            lambda texts, cfg, cache_dir:
                            single.append(list(texts)) or embed_texts(texts, cfg, cache_dir))
        answer = sweep_mod.answer_question

        def recording(*args):
            record = answer(*args)
            answers.add(record.answer)
            return record

        monkeypatch.setattr(sweep_mod, "answer_question", recording)
        qa = make_qa(5)
        run(AppConfig(chunk_sizes=[250, 500, 1000, 2000, 4000, 8000]), qa=qa)
        questions_and_truths = [q.question for q in qa] + [q.ground_truth for q in qa]
        assert len(single) == 2
        assert single[0] == questions_and_truths
        assert set(single[1]) == answers - set(questions_and_truths)
        assert len(single[1]) == len(set(single[1]))


    @pytest.mark.parametrize("keep_going", [True, False])
    def test_sequential_results_under_frequent_thread_switches(self, keep_going):
        # more threads than cores share the sweep's queue and failure records
        def sweep(workers):
            try:
                return run_sweep(make_corpus(), make_qa(16),
                                 AppConfig(chunk_sizes=[100, 200, 400]),
                                 embed_texts_fn=offline_batch, embed_single_fn=single_batch,
                                 generate_fn=slow_early_generate(16, fail={5, 11}),
                                 judge=FailingJudge({3}), keep_going=keep_going,
                                 concurrency=workers)
            except RagBenchError as exc:
                return str(exc)

        expected = sweep(1)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert sweep(8) == expected
        finally:
            sys.setswitchinterval(old)
        if keep_going:
            assert [r.error for r in expected.rows] == ["[qa q3] judge down"] * 3
        else:
            assert expected == "[qa q3] judge down"


class LastFirstPool:
    """Stands in for ThreadPoolExecutor: once a result is asked for, runs
    every item queued so far, last first. Threads that took items in queue
    order may reach them in that order."""

    def __init__(self, max_workers):
        self.queued = []

    def submit(self, fn, *args):
        future = LastFirstFuture(self)
        self.queued.append((future, fn, args))
        return future

    def run_queued(self):
        while self.queued:
            future, fn, args = self.queued.pop()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)

    def shutdown(self, cancel_futures=False):
        self.queued.clear()


class LastFirstFuture(Future):
    def __init__(self, pool):
        super().__init__()
        self.pool = pool

    def result(self, timeout=None):
        self.pool.run_queued()
        return super().result(timeout)


class TestItemsStartedOutOfOrder:
    @pytest.mark.parametrize("fail", [{2}, {1, 2}])
    def test_later_failure_skips_no_earlier_item(self, fail):
        # q3 runs first, then q2 fails before q1 and q0 start
        def fn(qa):
            if int(qa.id[1:]) in fail:
                raise RagBenchError("backend down")
            return qa.id

        qa = make_qa(4)
        results, error = _collect(qa, _submit(LastFirstPool(2), fn, qa))
        first = min(fail)
        assert results == [q.id for q in qa[:first]]
        assert str(error) == f"[qa q{first}] backend down"

    def test_later_size_failure_leaves_earlier_sizes_whole(self, monkeypatch):
        # the last item of the last size is answered first, and fails
        calls = []

        def generate(req):
            calls.append(req)
            if len(calls) == 1:
                raise RagBenchError("backend down")
            return mock_generate(req)

        monkeypatch.setattr(sweep_mod, "ThreadPoolExecutor", LastFirstPool)
        with pytest.raises(RagBenchError, match=r"^\[qa q7\] backend down$"):
            run_sweep(make_corpus(), make_qa(8), AppConfig(chunk_sizes=[100, 200]),
                      embed_texts_fn=offline_batch, embed_single_fn=single_batch,
                      generate_fn=generate, judge=LexicalJudge(), concurrency=2)
        assert len(calls) == 16


class FailingJudge(LexicalJudge):
    """Lexical judge whose extraction fails for any text about one of the
    given threat numbers."""

    def __init__(self, fail):
        super().__init__()
        self.fail = fail

    def extract(self, text):
        if any(f"number {i}" in text for i in self.fail):
            raise RagBenchError("judge down")
        return super().extract(text)


class TestStages:
    def test_equals_one_item_at_a_time(self):
        # reference: the unstaged loop, every chunk embedded at every size
        cfg = AppConfig(chunk_sizes=[100, 200, 400])
        docs, qa = make_corpus(), make_qa(6)

        def embed_fn(text):
            return offline_batch([text])[0]

        expected = {}
        for size in cfg.chunk_sizes:
            chunks = chunk_corpus(docs, ChunkConfig(size=size))
            texts = [c.text for c in chunks]
            index = Index(chunks, dict(zip(texts, offline_batch(texts))))
            expected[size] = [
                answer_correctness(
                    answer_question(item.question,
                                    index.query_topk([embed_fn(item.question)], cfg.rag.top_k)[0],
                                    mock_generate, cfg.rag).answer,
                    item, embed_fn, cfg.metric, LexicalJudge())
                for item in qa]
        assert run(cfg, docs=docs, qa=qa).per_question == expected

    def test_equal_chunk_texts_share_one_row(self):
        # every document 20 times under other ids, about 2,000 chunks: each
        # chunk text is embedded once and is one hit, at its smallest ref
        # with its other refs ascending, so the top k holds k distinct texts
        originals = make_corpus(20)
        docs = [Document(id=f"copy{j:02d}-{d.id}", source="synthetic", title="", body=d.body)
                for j in random.Random(1).sample(range(20), 20) for d in originals]
        embedded = []
        index = sweep_mod.build_index(
            docs, 100, 0, lambda texts: embedded.extend(texts) or offline_batch(texts), {})
        chunks = chunk_corpus(docs, ChunkConfig(100))
        assert sorted(embedded) == sorted({c.text for c in chunks})
        refs_of = {}
        for ref, text in sorted(chunks):
            refs_of.setdefault(text, []).append(ref)
        queries = np.stack([embed_offline(q.question) for q in make_qa(64)])
        for hits in index.query_topk(queries, len(chunks)):
            assert sorted(h.text for h in hits) == sorted(refs_of)
            for h in hits:
                assert [h.chunk_ref, *h.also] == refs_of[h.text]
        for hits in index.query_topk(queries, 4):
            assert len({h.text for h in hits}) == 4

    def test_one_query_per_size(self, monkeypatch):
        shapes = []
        query = Index.query_topk
        monkeypatch.setattr(Index, "query_topk",
                            lambda self, q, k: shapes.append(np.shape(q)) or query(self, q, k))
        run(AppConfig(chunk_sizes=[100, 200, 400]), qa=make_qa(6))
        assert shapes == [(6, embed_mod.OFFLINE_DIM)] * 3

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("keep_going", [True, False])
    def test_wrong_dim_questions_fail_their_size(self, monkeypatch, workers, keep_going):
        # single texts 64 wide against 256-wide chunks, as when the embedder
        # changes dims between calls: no item is at fault, so each size
        # reached fails untagged and answers no item
        def embed_single(texts):
            return [v[:64] for v in embed_texts(texts, EMB, None)]

        answered, indexed = [], []
        answer = sweep_mod.answer_question
        monkeypatch.setattr(sweep_mod, "answer_question",
                            lambda q, *a: answered.append(q) or answer(q, *a))

        def sweep():
            return run_sweep(make_corpus(), make_qa(), AppConfig(chunk_sizes=[100, 200]),
                             embed_texts_fn=lambda t: indexed.append(t) or offline_batch(t),
                             embed_single_fn=embed_single, generate_fn=mock_generate,
                             judge=LexicalJudge(), keep_going=keep_going,
                             concurrency=workers)

        message = "query dim 64 != index dim 256"
        if keep_going:
            rows = sweep().rows
            assert [(r.chunk_size, r.failed, r.error) for r in rows] == \
                [(100, True, message), (200, True, message)]
            sizes_run = 2
        else:
            with pytest.raises(RagBenchError, match=rf"^{message}$") as info:
                sweep()
            assert not hasattr(info.value, "qa_id")
            sizes_run = 1
        assert len(indexed) == sizes_run
        assert answered == []

    def test_single_texts_batched_chunk_texts_embedded_once(self, monkeypatch):
        single, chunk = [], []
        monkeypatch.setattr(embed_mod, "embed_texts",
                            lambda texts, cfg, cache_dir:
                            single.append(list(texts)) or embed_texts(texts, cfg, cache_dir))
        sizes = [250, 500, 1000, 2000, 4000, 8000]
        docs, qa = make_corpus(), make_qa(5)
        run_sweep(docs, qa, AppConfig(chunk_sizes=sizes),
                  embed_texts_fn=lambda texts: chunk.extend(texts) or offline_batch(texts),
                  embed_single_fn=single_batch, generate_fn=mock_generate,
                  judge=LexicalJudge())
        assert single[0] == [q.question for q in qa] + [q.ground_truth for q in qa]
        assert len(single) <= 1 + len(sizes)
        assert len(chunk) == len(set(chunk))
        every = {c.text for size in sizes
                 for c in chunk_corpus(docs, ChunkConfig(size=size))}
        assert set(chunk) == every

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("keep_going", [True, False])
    def test_score_error_before_answer_error(self, workers, keep_going):
        # q2 fails to be scored, q5 fails to be answered: q2 comes first
        def sweep():
            return run_sweep(make_corpus(), make_qa(8), AppConfig(chunk_sizes=[100, 200]),
                             embed_texts_fn=offline_batch, embed_single_fn=single_batch,
                             generate_fn=slow_early_generate(8, fail={5}),
                             judge=FailingJudge({2}), keep_going=keep_going,
                             concurrency=workers)

        if keep_going:
            assert [r.error for r in sweep().rows] == ["[qa q2] judge down"] * 2
        else:
            with pytest.raises(RagBenchError, match=r"^\[qa q2\] judge down$"):
                sweep()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_answer_error_before_score_error(self, workers):
        with pytest.raises(RagBenchError, match=r"^\[qa q2\] backend down"):
            run_sweep(make_corpus(), make_qa(8), AppConfig(chunk_sizes=[100]),
                      embed_texts_fn=offline_batch, embed_single_fn=single_batch,
                      generate_fn=slow_early_generate(8, fail={2}),
                      judge=FailingJudge({5}), concurrency=workers)

    @pytest.mark.parametrize("keep_going", [True, False])
    def test_failed_priming_leaves_per_item_error(self, monkeypatch, keep_going):
        calls = []
        monkeypatch.setattr(embed_mod, "embed_texts", down_for_q1(calls))
        kw = dict(embed_texts_fn=offline_batch, embed_single_fn=single_batch,
                  generate_fn=mock_generate, judge=LexicalJudge(),
                  keep_going=keep_going)
        if keep_going:
            report = run_sweep(make_corpus(), make_qa(), AppConfig(chunk_sizes=[100]), **kw)
            assert report.rows[0].error == "[qa q1] embedder down"
        else:
            with pytest.raises(RagBenchError, match=r"^\[qa q1\] embedder down$"):
                run_sweep(make_corpus(), make_qa(), AppConfig(chunk_sizes=[100]), **kw)
        assert len(calls[0]) == 8  # the batch was tried first
        assert ["What about threat number 1?"] in calls

    def test_failed_question_row_tried_once_per_sweep(self, monkeypatch):
        # the question rows are taken once, before the sizes: a question
        # that cannot be embedded fails every size with one error
        calls = []
        monkeypatch.setattr(embed_mod, "embed_texts", down_for_q1(calls))
        report = run_sweep(make_corpus(), make_qa(), AppConfig(chunk_sizes=[100, 200, 400]),
                           embed_texts_fn=offline_batch, embed_single_fn=single_batch,
                           generate_fn=mock_generate, judge=LexicalJudge(), keep_going=True)
        assert [r.error for r in report.rows] == ["[qa q1] embedder down"] * 3
        assert calls.count(["What about threat number 1?"]) == 1

    def test_text_both_question_and_ground_truth_embedded_once(self):
        shared = "Threat number 0 requires a patch."
        qa = [QAItem(id="q0", question="What does threat number 0 need?", ground_truth=shared),
              QAItem(id="q1", question=shared, ground_truth="A patch for threat number 1.")]
        calls = []
        report = run_sweep(make_corpus(), qa, AppConfig(chunk_sizes=[100, 200]),
                           embed_texts_fn=offline_batch,
                           embed_single_fn=recording(calls),
                           generate_fn=mock_generate, judge=LexicalJudge())
        assert calls[0] == [qa[0].question, shared, qa[1].ground_truth]
        embedded = [t for texts in calls for t in texts]
        assert len(embedded) == len(set(embedded))
        assert [r.n for r in report.rows] == [2, 2]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_empty_answer_never_embedded(self, workers):
        calls = []

        def generate(req):
            if "threat number 1?" in req.messages[-1]["content"]:
                return ChatResponse(content="")
            return mock_generate(req)

        report = run_sweep(make_corpus(), make_qa(), AppConfig(chunk_sizes=[100, 200]),
                           embed_texts_fn=offline_batch,
                           embed_single_fn=recording(calls),
                           generate_fn=generate, judge=LexicalJudge(), concurrency=workers)
        assert len(calls) == 2
        assert "" not in calls[1]
        assert [r.qa_id for r in report.per_question[100]] == ["q0", "q1", "q2", "q3"]
        assert report.per_question[100][1].semantic_sim == 0.0

    @pytest.mark.parametrize("keep_going", [True, False])
    def test_failed_first_batch_gives_item_errors(self, keep_going):
        # the first batch holds q2's ground truth, which cannot be embedded:
        # every other item embeds its own texts, and q2 fails when scored
        ground_truth = make_qa()[2].ground_truth

        def down_for_q2(texts):
            if ground_truth in texts:
                raise RagBenchError("embedder down")
            return single_batch(texts)

        def sweep(workers):
            try:
                return run_sweep(make_corpus(), make_qa(), AppConfig(chunk_sizes=[100, 200]),
                                 embed_texts_fn=offline_batch, embed_single_fn=down_for_q2,
                                 generate_fn=mock_generate, judge=LexicalJudge(),
                                 keep_going=keep_going, concurrency=workers)
            except RagBenchError as exc:
                return str(exc)

        expected = sweep(1)
        assert sweep(4) == expected
        if keep_going:
            assert [r.error for r in expected.rows] == ["[qa q2] embedder down"] * 2
        else:
            assert expected == "[qa q2] embedder down"


def hand_report(means):
    return SweepReport(rows=[SweepRow(chunk_size=s, mean_correctness=m, n=3)
                             for s, m in means], per_question={})


class TestEmitCsv:
    def test_format(self, tmp_path):
        report = hand_report([(250, 0.5), (500, 0.25)])
        emit_csv(report, tmp_path)
        path = tmp_path / "report.csv"
        data = path.read_bytes().decode()
        assert data == ("chunk_size,mean_correctness,n\n"
                        "250,0.500000,3\n"
                        "500,0.250000,3\n")
        assert b"\r" not in path.read_bytes()

    def test_seven_lines_for_six_rows(self, tmp_path):
        report = run(AppConfig(chunk_sizes=[250, 500, 1000, 2000, 4000, 8000]))
        emit_csv(report, tmp_path)
        assert len((tmp_path / "report.csv").read_text().splitlines()) == 7


class TestEmitSvg:
    def test_bar_count_matches_rows(self, tmp_path):
        report = hand_report([(250, 0.1), (500, 0.9), (1000, 0.4)])
        emit_svg(report, tmp_path)
        svg = (tmp_path / "report.svg").read_text()
        assert svg.count('class="bar"') == 3
        assert svg.startswith("<svg")
        assert svg.count("#cccccc") == 5  # gridlines at 0, .25, .5, .75, 1

    def test_zero_means_zero_height_bars(self, tmp_path):
        report = hand_report([(250, 0.0), (500, 0.0)])
        emit_svg(report, tmp_path)
        svg = (tmp_path / "report.svg").read_text()
        assert svg.count('height="0.00"') == 2

    def test_full_height_for_mean_one(self, tmp_path):
        report = hand_report([(250, 1.0)])
        emit_svg(report, tmp_path)
        svg = (tmp_path / "report.svg").read_text()
        plot_h = 400 - 30 - 50
        assert f'height="{plot_h:.2f}"' in svg

    def test_deterministic_bytes(self, tmp_path):
        report = hand_report([(250, 0.123456), (500, 0.654321)])
        for run_id in ("a", "b"):
            (tmp_path / run_id).mkdir()
            emit_svg(report, tmp_path / run_id)
        assert (tmp_path / "a" / "report.svg").read_bytes() == \
            (tmp_path / "b" / "report.svg").read_bytes()


class TestArgmax:
    def test_single_max(self):
        assert hand_report([(250, 0.3), (500, 0.7)]).argmax_sizes == [500]

    def test_tied_max(self):
        assert hand_report([(250, 0.7), (500, 0.2), (1000, 0.7)]).argmax_sizes == \
            [250, 1000]

    def test_failed_rows_never_best(self):
        failed = SweepRow(500, 0.0, 0, failed=True, error="boom")
        assert SweepReport([SweepRow(250, 0.0, 3), failed], {}).argmax_sizes == [250]
        assert SweepReport([failed], {}).argmax_sizes == []
