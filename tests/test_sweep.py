import json
import random
import re
import time
from dataclasses import asdict

import numpy as np
import pytest

from ragbench.corpus import Document
import ragbench.embed as embed_mod
from ragbench.chunker import ChunkConfig, chunk_corpus
from ragbench.embed import (EmbedderConfig, embed_offline, embed_texts,
                            make_embed_fn)
from ragbench.errors import (DimMismatch, EmptyText, InvalidConfig,
                             ProtocolError, RagBenchError)
import ragbench.store as store_mod
from ragbench.llm import make_cached_fn, mock_generate
from ragbench.metrics import (LexicalJudge, MetricConfig, QAItem, aggregate,
                              answer_correctness)
from ragbench.rag import answer_question
import ragbench.sweep as sweep_mod
from ragbench.vectorstore import Index, IndexEntry

from ragbench.sweep import (SweepConfig, SweepReport, SweepRow, emit_csv,
                            emit_svg, run_sweep)

EMB = EmbedderConfig(kind="offline", dim=128)


def offline_batch(texts):
    return embed_texts(texts, EMB)


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
        raise EmptyText("boom")
    return offline_batch(texts)


def run(cfg=None, docs=None, qa=None, **kw):
    cfg = cfg or SweepConfig(chunk_sizes=[100, 200, 400])
    return run_sweep(docs or make_corpus(), qa or make_qa(), cfg,
                     embed_texts_fn=offline_batch, embed_fn=make_embed_fn(EMB),
                     generate_fn=mock_generate, judge=LexicalJudge(), **kw)


class TestConfig:
    def test_default_sizes(self):
        assert SweepConfig().chunk_sizes == [250, 500, 1000, 2000, 4000, 8000]

    def test_sizes_must_increase(self):
        with pytest.raises(InvalidConfig):
            SweepConfig(chunk_sizes=[100, 50])

    def test_sizes_exceed_overlap(self):
        with pytest.raises(InvalidConfig):
            SweepConfig(chunk_sizes=[10, 20], overlap=10)

    def test_empty_sizes(self):
        with pytest.raises(InvalidConfig):
            SweepConfig(chunk_sizes=[])


class TestRunSweep:
    def test_one_row_per_size(self):
        report = run(SweepConfig(chunk_sizes=[250, 500, 1000, 2000, 4000, 8000]))
        assert [r.chunk_size for r in report.rows] == \
            [250, 500, 1000, 2000, 4000, 8000]
        assert all(0.0 <= r.mean_correctness <= 1.0 for r in report.rows)
        assert all(r.n == 4 for r in report.rows)

    def test_deterministic(self):
        a, b = run(), run()
        assert a == b

    def test_size_isolation(self):
        both = run(SweepConfig(chunk_sizes=[100, 200]))
        alone = run(SweepConfig(chunk_sizes=[100]))
        assert both.per_question[100] == alone.per_question[100]
        assert both.rows[0].mean_correctness == alone.rows[0].mean_correctness

    def test_report_conservation(self):
        report = run()
        for row in report.rows:
            recomputed = aggregate(report.per_question[row.chunk_size])
            assert row.mean_correctness == recomputed["mean"]
            assert row.n == recomputed["n"]

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
                      SweepConfig(chunk_sizes=[100, 400]),
                      embed_texts_fn=embed_short_only, embed_fn=make_embed_fn(EMB),
                      generate_fn=mock_generate, judge=LexicalJudge())

    def test_keep_going_records_failed_row(self):
        report = run_sweep(make_corpus(), make_qa(),
                           SweepConfig(chunk_sizes=[100, 400]),
                           embed_texts_fn=embed_short_only,
                           embed_fn=make_embed_fn(EMB),
                           generate_fn=mock_generate, judge=LexicalJudge(),
                           keep_going=True)
        assert [r.chunk_size for r in report.rows] == [100, 400]
        assert not report.rows[0].failed
        assert report.rows[1].failed
        assert "boom" in report.rows[1].error
        assert report.argmax_sizes == [100]

    def test_aborted_sweep_removes_old_results(self, tmp_path):
        # without keep-going, the failed size's results and those of the
        # sizes it never reached are gone too
        cfg = SweepConfig(chunk_sizes=[100, 400, 800])
        run(cfg, out_dir=tmp_path)
        with pytest.raises(RagBenchError):
            run_sweep(make_corpus(), make_qa(), cfg,
                      embed_texts_fn=embed_short_only, embed_fn=make_embed_fn(EMB),
                      generate_fn=mock_generate, judge=LexicalJudge(), out_dir=tmp_path)
        assert (tmp_path / "100" / "results.jsonl").is_file()
        assert not (tmp_path / "400" / "results.jsonl").exists()
        assert not (tmp_path / "800" / "results.jsonl").exists()

    def test_keep_going_removes_old_results_of_failed_size(self, tmp_path):
        cfg = SweepConfig(chunk_sizes=[100, 400])
        run(cfg, out_dir=tmp_path)
        assert (tmp_path / "400" / "results.jsonl").is_file()
        report = run_sweep(make_corpus(), make_qa(), cfg,
                           embed_texts_fn=embed_short_only, embed_fn=make_embed_fn(EMB),
                           generate_fn=mock_generate, judge=LexicalJudge(),
                           keep_going=True, out_dir=tmp_path)
        assert report.rows[1].failed
        assert (tmp_path / "100" / "results.jsonl").is_file()
        assert not (tmp_path / "400" / "results.jsonl").exists()

    def test_default_judge_is_lexical_at_config_threshold(self):
        reports = {}
        for threshold in (0.3, 0.6):
            cfg = SweepConfig(chunk_sizes=[100, 200, 400],
                              metric=MetricConfig(jaccard_threshold=threshold))
            common = dict(embed_texts_fn=offline_batch, embed_fn=make_embed_fn(EMB),
                          generate_fn=mock_generate)
            reports[threshold] = run_sweep(make_corpus(), make_qa(), cfg,
                                           judge=None, **common)
            assert reports[threshold] == run_sweep(make_corpus(), make_qa(), cfg,
                                                   judge=LexicalJudge(threshold),
                                                   **common)
        # the threshold matters on these inputs, so the default must use it
        assert reports[0.3] != reports[0.6]


def slow_early_generate(n, fail=()):
    """mock_generate that sleeps longer for earlier questions, so a pool
    finishes QA items in reverse input order; raises for the numbers in
    fail."""
    def fn(req):
        i = int(re.search(r"threat number (\d+)", req.messages[-1]["content"])[1])
        time.sleep(0.003 * (n - i))
        if i in fail:
            raise ProtocolError(f"backend down for question {i}")
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
                             SweepConfig(chunk_sizes=[100, 200]),
                             embed_texts_fn=offline_batch,
                             embed_fn=make_embed_fn(EMB),
                             generate_fn=slow_early_generate(8, fail={2, 5}),
                             judge=LexicalJudge(), keep_going=keep_going,
                             concurrency=workers)

        if keep_going:
            rows = sweep(4).rows
            assert rows == sweep(1).rows
            assert rows[0].error == "[qa q2] backend down for question 2"
        else:
            with pytest.raises(ProtocolError, match=r"^\[qa q2\] "):
                sweep(4)

    def test_no_waiters_left_after_sweep(self, tmp_path):
        embed_fn = make_embed_fn(EMB)
        run_sweep(make_corpus(), make_qa(8), SweepConfig(chunk_sizes=[100, 200]),
                  embed_texts_fn=offline_batch, embed_fn=embed_fn,
                  generate_fn=make_cached_fn(slow_early_generate(8), tmp_path),
                  judge=LexicalJudge(), concurrency=4)
        assert embed_fn.flight.waiting == {}
        assert store_mod._FLIGHT.waiting == {}


class FailingJudge(LexicalJudge):
    """Lexical judge whose extraction fails for any text about one of the
    given threat numbers."""

    def __init__(self, fail):
        super().__init__()
        self.fail = fail

    def extract(self, text):
        if any(f"number {i}" in text for i in self.fail):
            raise ProtocolError("judge down")
        return super().extract(text)


class TestStages:
    def test_equals_one_item_at_a_time(self):
        # reference: the unstaged loop, every chunk embedded at every size
        cfg = SweepConfig(chunk_sizes=[100, 200, 400])
        docs, qa = make_corpus(), make_qa(6)
        embed_fn = make_embed_fn(EMB)
        expected = {}
        for size in cfg.chunk_sizes:
            chunks = chunk_corpus(docs, ChunkConfig(size=size))
            index = Index([IndexEntry((c.doc_id, c.seq), v, c.text) for c, v in
                           zip(chunks, offline_batch([c.text for c in chunks]))])
            expected[size] = [
                answer_correctness(
                    answer_question(item.question,
                                    index.query_topk(embed_fn(item.question), cfg.rag.top_k),
                                    mock_generate, cfg.rag).answer,
                    item, embed_fn, cfg.metric, LexicalJudge())
                for item in qa]
        assert run(cfg, docs=docs, qa=qa).per_question == expected

    def test_one_query_per_size(self, monkeypatch):
        shapes = []
        query = Index.query_topk
        monkeypatch.setattr(Index, "query_topk",
                            lambda self, q, k: shapes.append(np.shape(q)) or query(self, q, k))
        run(SweepConfig(chunk_sizes=[100, 200, 400]), qa=make_qa(6))
        assert shapes == [(6, EMB.dim)] * 3

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("keep_going", [True, False])
    def test_wrong_dim_question_fails_as_its_own_item(self, monkeypatch, workers,
                                                      keep_going):
        # q2's vector is too short: q2 fails with its own DimMismatch, and
        # q0 and q1 are still answered and scored at every size run
        memo = make_embed_fn(EMB)

        def embed_fn(text):
            vec = memo(text)
            return vec[:64] if text == "What about threat number 2?" else vec

        embed_fn.prime = memo.prime
        answered, scored = [], []
        ids = {qa.question: qa.id for qa in make_qa()}
        answer, score = sweep_mod.answer_question, sweep_mod.answer_correctness
        monkeypatch.setattr(sweep_mod, "answer_question",
                            lambda q, *a: answered.append(ids[q]) or answer(q, *a))
        monkeypatch.setattr(sweep_mod, "answer_correctness",
                            lambda ans, qa, *a: scored.append(qa.id) or score(ans, qa, *a))

        def sweep():
            return run_sweep(make_corpus(), make_qa(), SweepConfig(chunk_sizes=[100, 200]),
                             embed_texts_fn=offline_batch, embed_fn=embed_fn,
                             generate_fn=mock_generate, judge=LexicalJudge(),
                             keep_going=keep_going, concurrency=workers)

        if keep_going:
            assert [r.error for r in sweep().rows] == \
                [f"[qa q2] query dim 64 != index dim {EMB.dim}"] * 2
            sizes_run = 2
        else:
            with pytest.raises(DimMismatch, match=r"^\[qa q2\] query dim 64 "):
                sweep()
            sizes_run = 1
        assert sorted(answered) == sorted(scored) == ["q0"] * sizes_run + ["q1"] * sizes_run

    def test_plain_embed_fn_without_prime(self):
        report = run_sweep(make_corpus(), make_qa(), SweepConfig(chunk_sizes=[100, 200]),
                           embed_texts_fn=offline_batch,
                           embed_fn=lambda text: embed_offline(text, EMB.dim),
                           generate_fn=mock_generate, judge=LexicalJudge())
        assert report == run(SweepConfig(chunk_sizes=[100, 200]))

    def test_single_texts_batched_chunk_texts_embedded_once(self, monkeypatch):
        single, chunk = [], []
        monkeypatch.setattr(embed_mod, "embed_texts",
                            lambda texts, cfg, cache_dir=None:
                            single.append(list(texts)) or embed_texts(texts, cfg))
        sizes = [250, 500, 1000, 2000, 4000, 8000]
        docs, qa = make_corpus(), make_qa(5)
        run_sweep(docs, qa, SweepConfig(chunk_sizes=sizes),
                  embed_texts_fn=lambda texts: chunk.extend(texts) or offline_batch(texts),
                  embed_fn=make_embed_fn(EMB), generate_fn=mock_generate,
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
            return run_sweep(make_corpus(), make_qa(8), SweepConfig(chunk_sizes=[100, 200]),
                             embed_texts_fn=offline_batch, embed_fn=make_embed_fn(EMB),
                             generate_fn=slow_early_generate(8, fail={5}),
                             judge=FailingJudge({2}), keep_going=keep_going,
                             concurrency=workers)

        if keep_going:
            assert [r.error for r in sweep().rows] == ["[qa q2] judge down"] * 2
        else:
            with pytest.raises(ProtocolError, match=r"^\[qa q2\] judge down$"):
                sweep()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_answer_error_before_score_error(self, workers):
        with pytest.raises(ProtocolError, match=r"^\[qa q2\] backend down"):
            run_sweep(make_corpus(), make_qa(8), SweepConfig(chunk_sizes=[100]),
                      embed_texts_fn=offline_batch, embed_fn=make_embed_fn(EMB),
                      generate_fn=slow_early_generate(8, fail={2}),
                      judge=FailingJudge({5}), concurrency=workers)

    @pytest.mark.parametrize("keep_going", [True, False])
    def test_failed_priming_leaves_per_item_error(self, monkeypatch, keep_going):
        calls = []

        def down_for_q1(texts, cfg, cache_dir=None):
            calls.append(list(texts))
            if "What about threat number 1?" in texts:
                raise ProtocolError("embedder down")
            return embed_texts(texts, cfg)

        monkeypatch.setattr(embed_mod, "embed_texts", down_for_q1)
        kw = dict(embed_texts_fn=offline_batch, embed_fn=make_embed_fn(EMB),
                  generate_fn=mock_generate, judge=LexicalJudge(),
                  keep_going=keep_going)
        if keep_going:
            report = run_sweep(make_corpus(), make_qa(), SweepConfig(chunk_sizes=[100]), **kw)
            assert report.rows[0].error == "[qa q1] embedder down"
        else:
            with pytest.raises(ProtocolError, match=r"^\[qa q1\] embedder down$"):
                run_sweep(make_corpus(), make_qa(), SweepConfig(chunk_sizes=[100]), **kw)
        assert len(calls[0]) == 8  # the batch was tried first
        assert ["What about threat number 1?"] in calls


def hand_report(means):
    rows = [SweepRow(chunk_size=s, mean_correctness=m, n=3)
            for s, m in means]
    per_q = {}
    from ragbench.sweep import _argmax_sizes
    return SweepReport(rows=rows, per_question=per_q,
                       argmax_sizes=_argmax_sizes(rows))


class TestEmitCsv:
    def test_format(self, tmp_path):
        report = hand_report([(250, 0.5), (500, 0.25)])
        path = tmp_path / "report.csv"
        emit_csv(report, path)
        data = path.read_bytes().decode()
        assert data == ("chunk_size,mean_correctness,n\n"
                        "250,0.500000,3\n"
                        "500,0.250000,3\n")
        assert b"\r" not in path.read_bytes()

    def test_seven_lines_for_six_rows(self, tmp_path):
        report = run(SweepConfig(chunk_sizes=[250, 500, 1000, 2000, 4000, 8000]))
        path = tmp_path / "report.csv"
        emit_csv(report, path)
        assert len(path.read_text().splitlines()) == 7


class TestEmitSvg:
    def test_bar_count_matches_rows(self, tmp_path):
        report = hand_report([(250, 0.1), (500, 0.9), (1000, 0.4)])
        path = tmp_path / "r.svg"
        emit_svg(report, path)
        svg = path.read_text()
        assert svg.count('class="bar"') == 3
        assert svg.startswith("<svg")
        assert svg.count("#cccccc") == 5  # gridlines at 0, .25, .5, .75, 1

    def test_zero_means_zero_height_bars(self, tmp_path):
        report = hand_report([(250, 0.0), (500, 0.0)])
        emit_svg(report, tmp_path / "r.svg")
        svg = (tmp_path / "r.svg").read_text()
        assert svg.count('height="0.00"') == 2

    def test_full_height_for_mean_one(self, tmp_path):
        report = hand_report([(250, 1.0)])
        emit_svg(report, tmp_path / "r.svg")
        svg = (tmp_path / "r.svg").read_text()
        plot_h = 400 - 30 - 50
        assert f'height="{plot_h:.2f}"' in svg

    def test_deterministic_bytes(self, tmp_path):
        report = hand_report([(250, 0.123456), (500, 0.654321)])
        emit_svg(report, tmp_path / "a.svg")
        emit_svg(report, tmp_path / "b.svg")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


class TestArgmax:
    def test_single_max(self):
        assert hand_report([(250, 0.3), (500, 0.7)]).argmax_sizes == [500]

    def test_tied_max(self):
        assert hand_report([(250, 0.7), (500, 0.2), (1000, 0.7)]).argmax_sizes == \
            [250, 1000]
