import json
import random

import pytest
from hypothesis import given, strategies as st

from ragbench.embed import embed_offline
from ragbench.errors import (EmptyResults, InvalidConfig, MalformedLine,
                             MetricUndefined, ProtocolError)
from ragbench.llm import ChatResponse
from ragbench.metrics import (EvalResult, LexicalJudge, MetricConfig, QAItem,
                              RemoteJudge, aggregate, answer_correctness,
                              classify, extract_statements, f1, load_qa_jsonl)


def offline_embed(text):
    return embed_offline(text, 256)


LEX = LexicalJudge()


class TestExtractLexical:
    def test_split_on_terminators(self):
        assert extract_statements("Patch now. Reboot later.", LEX) == \
            ["Patch now", "Reboot later"]

    def test_empty(self):
        assert extract_statements("", LEX) == []

    def test_no_terminator(self):
        assert extract_statements("No terminator", LEX) == ["No terminator"]

    def test_mixed_terminators(self):
        assert extract_statements("Really?! Yes. Go", LEX) == \
            ["Really", "Yes", "Go"]


class TestClassifyLexical:
    def test_identity(self):
        assert classify(["patch the server"], ["patch the server"], LEX) == (1, 0, 0)

    def test_disjoint(self):
        assert classify(["buy apples"], ["patch the server"], LEX) == (0, 1, 1)

    def test_jaccard_three_quarters(self):
        # |{patch,the,server}| / |{patch,the,server,now}| = 0.75 >= 0.6
        assert classify(["patch the server now"], ["patch the server"], LEX) == (1, 0, 0)

    def test_threshold_boundary(self):
        judge = LexicalJudge(jaccard_threshold=0.76)
        assert judge.classify(["patch the server now"], ["patch the server"]) == (0, 1, 1)

    def test_no_exclusivity(self):
        # both answer statements may be supported by the same gt statement
        assert classify(["patch the server", "patch the server"],
                        ["patch the server"], LEX) == (2, 0, 0)

    def test_empty_answer(self):
        assert classify([], ["a b c", "d e f"], LEX) == (0, 0, 2)

    @given(st.lists(st.lists(st.sampled_from(["Patch", "the", "server", "now", "a", "!"]),
                             max_size=5).map(" ".join), max_size=6),
           st.lists(st.lists(st.sampled_from(["patch", "THE", "router", "now", "b"]),
                             max_size=5).map(" ".join), max_size=6),
           st.sampled_from([0.3, 0.6, 1.0]))
    def test_matches_pairwise_supports(self, answer_stmts, gt_stmts, threshold):
        judge = LexicalJudge(threshold)
        tp = sum(1 for s in answer_stmts
                 if any(judge.supports(s, g) for g in gt_stmts))
        fn = sum(1 for g in gt_stmts
                 if not any(judge.supports(s, g) for s in answer_stmts))
        assert judge.classify(answer_stmts, gt_stmts) == \
            (tp, len(answer_stmts) - tp, fn)


class TestF1:
    def test_perfect(self):
        assert f1(1, 0, 0) == 1.0

    def test_balanced(self):
        assert f1(1, 1, 1) == 0.5

    def test_zero_tp(self):
        assert f1(0, 2, 3) == 0.0

    def test_all_zero_undefined(self):
        with pytest.raises(MetricUndefined):
            f1(0, 0, 0)


class TestMetricConfig:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidConfig):
            MetricConfig(w_factual=0.6, w_semantic=0.6)

    def test_negative_weight(self):
        with pytest.raises(InvalidConfig):
            MetricConfig(w_factual=1.5, w_semantic=-0.5)


class TestAnswerCorrectness:
    def test_blend_arithmetic(self):
        # tp=1, fp=1, fn=1 -> f=0.5; stub embedder pins s=0.9
        from math import sqrt
        from ragbench.embed import Vector
        answer = "patch the server. zzz qqq unrelated."
        gt = "patch the server. reboot the router now."
        vecs = {answer: Vector(2, (1.0, 0.0)),
                gt: Vector(2, (0.9, sqrt(1 - 0.81)))}
        qa = QAItem(id="q", question="?", ground_truth=gt)
        r = answer_correctness(answer, qa, vecs.__getitem__, MetricConfig())
        assert (r.tp, r.fp, r.fn) == (1, 1, 1)
        assert r.f1 == 0.5
        assert r.semantic_sim == pytest.approx(0.9, abs=1e-12)
        assert r.answer_correctness == pytest.approx(0.6, abs=1e-12)

    def test_identity_scores_one(self):
        qa = QAItem(id="q", question="?", ground_truth="Patch now. Reboot later.")
        r = answer_correctness("Patch now. Reboot later.", qa, offline_embed,
                               MetricConfig())
        assert r.f1 == 1.0
        assert r.semantic_sim == pytest.approx(1.0, abs=1e-9)
        assert r.answer_correctness == pytest.approx(1.0, abs=1e-9)

    def test_empty_answer(self):
        qa = QAItem(id="q", question="?", ground_truth="One fact. Two facts.")
        r = answer_correctness("", qa, offline_embed, MetricConfig())
        assert (r.tp, r.fp, r.fn) == (0, 0, 2)
        assert r.f1 == 0.0
        assert r.semantic_sim == 0.0
        assert r.answer_correctness == 0.0

    def test_range_property(self):
        rng = random.Random(5)
        words = ["patch", "server", "network", "threat", "update", "scan",
                 "firewall", "reboot", "log", "alert"]
        for _ in range(50):
            answer = ". ".join(" ".join(rng.choices(words, k=4))
                               for _ in range(rng.randint(1, 4))) + "."
            gt = ". ".join(" ".join(rng.choices(words, k=4))
                           for _ in range(rng.randint(1, 4))) + "."
            qa = QAItem(id="q", question="?", ground_truth=gt)
            r = answer_correctness(answer, qa, offline_embed, MetricConfig())
            assert 0.0 <= r.answer_correctness <= 1.0
            assert 0.0 <= r.f1 <= 1.0
            assert 0.0 <= r.semantic_sim <= 1.0

    def test_weight_swap_changes_score_when_f_ne_s(self):
        qa = QAItem(id="q", question="?",
                    ground_truth="patch the server. reboot the router.")
        answer = "patch the server. unrelated words entirely here."
        a = answer_correctness(answer, qa, offline_embed,
                               MetricConfig(w_factual=0.75, w_semantic=0.25))
        b = answer_correctness(answer, qa, offline_embed,
                               MetricConfig(w_factual=0.25, w_semantic=0.75))
        assert a.f1 != a.semantic_sim
        assert a.answer_correctness != b.answer_correctness


    def test_error_tagged_in_place(self):
        qa = QAItem(id="q9", question="?", ground_truth="Patch now.")

        def embed_fn(text):
            raise MalformedLine(5, "bad vector")

        with pytest.raises(MalformedLine) as exc:
            answer_correctness("Patch now.", qa, embed_fn, MetricConfig())
        assert str(exc.value) == "[qa q9] malformed line 5: bad vector"
        assert (exc.value.line_no, exc.value.qa_id) == (5, "q9")


class TestAggregate:
    def res(self, score):
        return EvalResult(qa_id="q", tp=1, fp=0, fn=0, f1=1.0,
                          semantic_sim=1.0, answer_correctness=score)

    def test_mean(self):
        agg = aggregate([self.res(0.4), self.res(0.6)])
        assert agg["mean"] == pytest.approx(0.5)
        assert agg["n"] == 2

    def test_single(self):
        agg = aggregate([self.res(0.7)])
        assert agg == {"mean": pytest.approx(0.7), "n": 1,
                       "min": pytest.approx(0.7), "max": pytest.approx(0.7)}

    def test_thirty_results(self):
        rng = random.Random(1)
        agg = aggregate([self.res(rng.random()) for _ in range(30)])
        assert agg["n"] == 30
        assert agg["min"] <= agg["mean"] <= agg["max"]

    def test_empty(self):
        with pytest.raises(EmptyResults):
            aggregate([])


class ScriptedGenerator:
    def __init__(self, replies):
        self.replies = list(replies)
        self.requests = []

    def __call__(self, req):
        self.requests.append(req)
        return ChatResponse(content=self.replies.pop(0))


class TestRemoteJudge:
    def test_extract_parses_json_array(self):
        gen = ScriptedGenerator(['["Fact one", "Fact two"]'])
        judge = RemoteJudge(gen)
        assert judge.extract("whatever text") == ["Fact one", "Fact two"]
        assert len(gen.requests) == 1

    def test_extract_strips_code_fence(self):
        gen = ScriptedGenerator(['```json\n["A"]\n```'])
        assert RemoteJudge(gen).extract("t") == ["A"]

    def test_extract_unparseable(self):
        gen = ScriptedGenerator(["not json at all"])
        with pytest.raises(ProtocolError):
            RemoteJudge(gen).extract("t")

    def test_classify_counts(self):
        reply = json.dumps({"answer_supported": [True, False],
                            "ground_truth_supported": [True]})
        gen = ScriptedGenerator([reply])
        assert RemoteJudge(gen).classify(["s1", "s2"], ["g1"]) == (1, 1, 0)

    def test_classify_length_mismatch(self):
        reply = json.dumps({"answer_supported": [True],
                            "ground_truth_supported": [True]})
        gen = ScriptedGenerator([reply])
        with pytest.raises(ProtocolError):
            RemoteJudge(gen).classify(["s1", "s2"], ["g1"])


class TestQASetFile:
    def test_load(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text(
            '{"id":"1","question":"Q1","ground_truth":"G1"}\n'
            '{"id":"2","question":"Q2","ground_truth":"G2"}\n')
        items = load_qa_jsonl(path)
        assert [i.id for i in items] == ["1", "2"]
        assert items[1].ground_truth == "G2"

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text('{"id":"1","question":"Q","ground_truth":"G"}\n' * 2)
        with pytest.raises(MalformedLine):
            load_qa_jsonl(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text('{"id":"1","question":"Q"}\n')
        with pytest.raises(MalformedLine):
            load_qa_jsonl(path)
