import random
import re
import time

import pytest

from ragbench.corpus import Document
from ragbench.embed import EmbedderConfig, embed_texts, make_embed_fn
from ragbench.errors import (EmptyText, InvalidConfig, ProtocolError,
                             RagBenchError)
import ragbench.llm as llm_mod
from ragbench.llm import make_cached_fn, mock_generate
from ragbench.metrics import LexicalJudge, QAItem, aggregate

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

    def test_abort_by_default(self):
        def flaky_embed(texts):
            if any(len(t) > 150 for t in texts):
                raise EmptyText("boom")
            return offline_batch(texts)

        with pytest.raises(RagBenchError):
            run_sweep(make_corpus(), make_qa(),
                      SweepConfig(chunk_sizes=[100, 400]),
                      embed_texts_fn=flaky_embed, embed_fn=make_embed_fn(EMB),
                      generate_fn=mock_generate, judge=LexicalJudge())

    def test_keep_going_records_failed_row(self):
        def flaky_embed(texts):
            if any(len(t) > 150 for t in texts):
                raise EmptyText("boom")
            return offline_batch(texts)

        report = run_sweep(make_corpus(), make_qa(),
                           SweepConfig(chunk_sizes=[100, 400]),
                           embed_texts_fn=flaky_embed,
                           embed_fn=make_embed_fn(EMB),
                           generate_fn=mock_generate, judge=LexicalJudge(),
                           keep_going=True)
        assert [r.chunk_size for r in report.rows] == [100, 400]
        assert not report.rows[0].failed
        assert report.rows[1].failed
        assert "boom" in report.rows[1].error
        assert report.argmax_sizes == [100]


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
        assert llm_mod._FLIGHT.waiting == {}


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
