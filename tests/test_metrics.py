import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ragbench.config import AppConfig
from ragbench.corpus import Document
from ragbench.errors import InvalidConfig, MalformedLine, RagBenchError
from ragbench.llm import ChatResponse, make_cached_fn, mock_generate
from ragbench.metrics import (LexicalJudge, MetricConfig, QAItem, RemoteJudge,
                              answer_correctness, f1, load_qa_jsonl)
from ragbench.sweep import run_sweep

from oracles import embed_offline


def offline_embed(text):
    return embed_offline(text, 256)


LEX = LexicalJudge()


def offline_batch(texts):
    return [offline_embed(t) for t in texts]


def sweep(qa_set, workers, embed_single_fn=offline_batch, generate_fn=mock_generate):
    """A one-size sweep of qa_set over a two-sentence corpus."""
    docs = [Document(id="d", source="s", title="", body="Patch now. Reboot later.")]
    return run_sweep(docs, qa_set, AppConfig(chunk_sizes=[100]),
                     embed_texts_fn=offline_batch,
                     embed_single_fn=embed_single_fn, generate_fn=generate_fn,
                     judge=LEX, concurrency=workers)


class TestExtractLexical:
    def test_split_on_terminators(self):
        assert LEX.extract("Patch now. Reboot later.") == \
            ["Patch now", "Reboot later"]

    def test_empty(self):
        assert LEX.extract("") == []

    def test_no_terminator(self):
        assert LEX.extract("No terminator") == ["No terminator"]

    def test_mixed_terminators(self):
        assert LEX.extract("Really?! Yes. Go") == \
            ["Really", "Yes", "Go"]


class TestClassifyLexical:
    def test_identity(self):
        assert LEX.classify(["patch the server"], ["patch the server"]) == (1, 0, 0)

    def test_disjoint(self):
        assert LEX.classify(["buy apples"], ["patch the server"]) == (0, 1, 1)

    def test_jaccard_three_quarters(self):
        # |{patch,the,server}| / |{patch,the,server,now}| = 0.75 >= 0.6
        assert LEX.classify(["patch the server now"], ["patch the server"]) == (1, 0, 0)

    def test_threshold_boundary(self):
        judge = LexicalJudge(jaccard_threshold=0.76)
        assert judge.classify(["patch the server now"], ["patch the server"]) == (0, 1, 1)

    def test_no_exclusivity(self):
        # both answer statements may be supported by the same gt statement
        assert LEX.classify(["patch the server", "patch the server"],
                            ["patch the server"]) == (2, 0, 0)

    def test_empty_answer(self):
        assert LEX.classify([], ["a b c", "d e f"]) == (0, 0, 2)

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


def jaccard_supports(a, b, threshold):
    """Support by the textbook Jaccard index of two token sets."""
    ta = set(re.findall(r"[^\W_]+", a.casefold()))
    tb = set(re.findall(r"[^\W_]+", b.casefold()))
    return bool(ta and tb) and len(ta & tb) / len(ta | tb) >= threshold


def pairwise_counts(answer_stmts, gt_stmts, supports):
    tp = sum(1 for s in answer_stmts if any(supports(s, g) for g in gt_stmts))
    fn = sum(1 for g in gt_stmts if not any(supports(s, g) for s in answer_stmts))
    return tp, len(answer_stmts) - tp, fn


# repeated tokens, case variants, overlapping statements, and statements of
# equal length with other tokens
MEMO_STATEMENTS = ["Patch the server", "patch the server", "patch the router",
                   "PATCH THE SERVER now", "patch the patch", "the router now",
                   "reboot the router", "Reboot the Router now", "server now",
                   "router now", "now now", "zzz", "!"]


class TestJudgeMemo:
    @given(st.lists(st.tuples(st.lists(st.sampled_from(MEMO_STATEMENTS), max_size=4),
                              st.lists(st.sampled_from(MEMO_STATEMENTS), max_size=4)),
                    min_size=1, max_size=8),
           st.sampled_from([0.3, 0.6, 1.0]))
    def test_reused_judge_matches_fresh_and_pairwise(self, calls, threshold):
        reused = LexicalJudge(threshold)
        for answer_stmts, gt_stmts in calls:
            got = reused.classify(answer_stmts, gt_stmts)
            assert got == LexicalJudge(threshold).classify(answer_stmts, gt_stmts)
            assert got == pairwise_counts(
                answer_stmts, gt_stmts,
                lambda a, b: LexicalJudge(threshold).supports(a, b))
            assert got == pairwise_counts(
                answer_stmts, gt_stmts,
                lambda a, b: jaccard_supports(a, b, threshold))

    def test_jaccard_equal_to_threshold_supports(self):
        # 3 shared tokens over a union of 5 is exactly 0.6
        stmts = ["patch the server now"], ["patch the server later"]
        assert LexicalJudge(0.6).classify(*stmts) == (1, 0, 0)
        assert LexicalJudge(0.61).classify(*stmts) == (0, 1, 1)

    def test_shared_across_threads(self, in_threads):
        calls = [([a, b], [g]) for a in MEMO_STATEMENTS for b in MEMO_STATEMENTS[::3]
                 for g in MEMO_STATEMENTS[::2]]
        expected = [LexicalJudge().classify(*c) for c in calls]
        shared = LexicalJudge()

        def work(i):
            # each thread starts at another call, so threads race on new statements
            order = [(i * 37 + j) % len(calls) for j in range(len(calls))]
            return {j: shared.classify(*calls[j]) for j in order}

        for out in in_threads(8, work):
            assert out == dict(enumerate(expected))


class TestF1:
    def test_perfect(self):
        assert f1(1, 0, 0) == 1.0

    def test_balanced(self):
        assert f1(1, 1, 1) == 0.5

    def test_zero_tp(self):
        assert f1(0, 2, 3) == 0.0

    def test_all_zero_undefined(self):
        with pytest.raises(RagBenchError, match=r"^no statements on either side$"):
            f1(0, 0, 0)


class TestMetricConfig:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidConfig):
            MetricConfig(w_factual=0.6, w_semantic=0.6)

    def test_negative_weight(self):
        with pytest.raises(InvalidConfig):
            MetricConfig(w_factual=1.5, w_semantic=-0.5)

    @pytest.mark.parametrize("w_factual, w_semantic", [
        (float("nan"), 0.25), (0.75, float("nan")), (float("nan"), float("nan")),
        (float("inf"), 0.25), (float("inf"), float("-inf"))])
    def test_non_finite_weight_rejected(self, w_factual, w_semantic):
        with pytest.raises(InvalidConfig, match=r"^metric weights must "):
            MetricConfig(w_factual=w_factual, w_semantic=w_semantic)

    @pytest.mark.parametrize("threshold", [0.0, -0.1, 1.01, float("nan")])
    def test_jaccard_threshold_outside_unit_interval(self, threshold):
        with pytest.raises(InvalidConfig, match="jaccard_threshold"):
            MetricConfig(jaccard_threshold=threshold)

    @pytest.mark.parametrize("threshold", [1e-9, 0.3, 1.0])
    def test_jaccard_threshold_in_unit_interval(self, threshold):
        assert MetricConfig(jaccard_threshold=threshold).jaccard_threshold == threshold


class TestAnswerCorrectness:
    def test_blend_arithmetic(self):
        # tp=1, fp=1, fn=1 -> f=0.5; stub embedder pins s=0.9
        from math import sqrt
        answer = "patch the server. zzz qqq unrelated."
        gt = "patch the server. reboot the router now."
        vecs = {answer: np.array([1.0, 0.0]),
                gt: np.array([0.9, sqrt(1 - 0.81)])}
        qa = QAItem(id="q", question="?", ground_truth=gt)
        r = answer_correctness(answer, qa, vecs.__getitem__, MetricConfig(), LEX)
        assert (r.tp, r.fp, r.fn) == (1, 1, 1)
        assert r.f1 == 0.5
        assert r.semantic_sim == pytest.approx(0.9, abs=1e-12)
        assert r.answer_correctness == pytest.approx(0.6, abs=1e-12)

    def test_identity_scores_one(self):
        qa = QAItem(id="q", question="?", ground_truth="Patch now. Reboot later.")
        r = answer_correctness("Patch now. Reboot later.", qa, offline_embed,
                               MetricConfig(), LEX)
        assert r.f1 == 1.0
        assert r.semantic_sim == pytest.approx(1.0, abs=1e-9)
        assert r.answer_correctness == pytest.approx(1.0, abs=1e-9)

    def test_empty_answer(self):
        qa = QAItem(id="q", question="?", ground_truth="One fact. Two facts.")
        r = answer_correctness("", qa, offline_embed, MetricConfig(), LEX)
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
            r = answer_correctness(answer, qa, offline_embed, MetricConfig(), LEX)
            assert 0.0 <= r.answer_correctness <= 1.0
            assert 0.0 <= r.f1 <= 1.0
            assert 0.0 <= r.semantic_sim <= 1.0

    def test_weight_swap_changes_score_when_f_ne_s(self):
        qa = QAItem(id="q", question="?",
                    ground_truth="patch the server. reboot the router.")
        answer = "patch the server. unrelated words entirely here."
        a = answer_correctness(answer, qa, offline_embed,
                               MetricConfig(w_factual=0.75, w_semantic=0.25), LEX)
        b = answer_correctness(answer, qa, offline_embed,
                               MetricConfig(w_factual=0.25, w_semantic=0.75), LEX)
        assert a.f1 != a.semantic_sim
        assert a.answer_correctness != b.answer_correctness


    def test_error_tagged_in_place(self):
        # the sweep tags a scoring error with its item's id, on one thread
        # or several; answer_correctness itself does not tag
        qa_set = [QAItem(id="q8", question="When?", ground_truth="Reboot later."),
                  QAItem(id="q9", question="What?", ground_truth="Patch now.")]

        def embed_texts(texts):
            if "Patch now." in texts:
                raise MalformedLine(5, "bad vector")
            return offline_batch(texts)

        for workers in (1, 4):
            with pytest.raises(MalformedLine) as exc:
                sweep(qa_set, workers, embed_single_fn=embed_texts)
            assert str(exc.value) == "[qa q9] malformed line 5: bad vector"
            assert (exc.value.line_no, exc.value.qa_id) == (5, "q9")
        with pytest.raises(MalformedLine, match="^malformed line 5"):
            answer_correctness("Patch now.", qa_set[1], lambda t: embed_texts([t])[0],
                               MetricConfig(), LEX)

    def test_metric_undefined_tagged_in_sweep(self):
        # no statements in the answer or the ground truth: F1 is undefined,
        # and the sweep tags that error like any other
        qa_set = [QAItem(id="q1", question="When?", ground_truth="Reboot later."),
                  QAItem(id="q2", question="What?", ground_truth="...")]

        def generate_fn(req):
            if "Question: What?" in req.messages[-1]["content"]:
                return ChatResponse(content="...")
            return mock_generate(req)

        for workers in (1, 4):
            with pytest.raises(RagBenchError, match=r"no statements on either side") as exc:
                sweep(qa_set, workers, generate_fn=generate_fn)
            assert str(exc.value) == "[qa q2] no statements on either side"
            assert exc.value.qa_id == "q2"


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
        with pytest.raises(RagBenchError, match=r"^judge reply is not valid JSON: "):
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
        with pytest.raises(RagBenchError, match=r"^classification reply length mismatch$"):
            RemoteJudge(gen).classify(["s1", "s2"], ["g1"])

    @pytest.mark.parametrize("key", ["answer_supported", "ground_truth_supported"])
    @pytest.mark.parametrize("flags", [["false"], [0], [None], "true"])
    def test_classify_needs_lists_of_json_booleans(self, key, flags):
        # bool("false") is True: a string verdict must not count as support
        reply = {"answer_supported": [True], "ground_truth_supported": [True], key: flags}
        gen = ScriptedGenerator([json.dumps(reply)])
        with pytest.raises(RagBenchError, match=r"^classification reply malformed: "):
            RemoteJudge(gen).classify(["s1"], ["g1"])

    @pytest.mark.parametrize("call, bad, good, expected", [
        ("classify",
         json.dumps({"answer_supported": ["false"], "ground_truth_supported": [True]}),
         json.dumps({"answer_supported": [False], "ground_truth_supported": [True]}),
         (0, 1, 0)),
        ("extract", "not json at all", '["Fact"]', ["Fact"]),
    ], ids=["classify", "extract"])
    def test_invalid_reply_neither_cached_nor_replayed(self, tmp_path, call, bad, good,
                                                       expected):
        def ask(gen):
            judge = RemoteJudge(make_cached_fn(gen, tmp_path))
            return judge.classify(["s1"], ["g1"]) if call == "classify" else judge.extract("t")

        gen = ScriptedGenerator([bad, good])
        with pytest.raises(RagBenchError):
            ask(gen)
        assert list(tmp_path.iterdir()) == []
        assert ask(gen) == expected
        assert len(gen.requests) == 2
        # a stored reply that does not parse is a miss, and is overwritten
        (entry,) = tmp_path.iterdir()
        entry.write_text(json.dumps({**json.loads(entry.read_text()), "content": bad}))
        again = ScriptedGenerator([good])
        assert ask(again) == expected
        assert ask(again) == expected
        assert len(again.requests) == 1


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
        with pytest.raises(MalformedLine,
                           match="^malformed line 1: field 'ground_truth' missing or not a str$"):
            load_qa_jsonl(path)

    def test_line_not_utf8_is_a_malformed_line(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_bytes(b'{"id":"1","question":"Q","ground_truth":"G"}\n'
                         b'{"id":"2","question":"Q\xff","ground_truth":"G"}\n')
        with pytest.raises(MalformedLine) as exc:
            load_qa_jsonl(path)
        assert exc.value.line_no == 2
        assert isinstance(exc.value.__cause__, UnicodeDecodeError)

    def test_int_id_kept_as_text(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text('{"id":7,"question":"Q","ground_truth":"G"}\n')
        assert load_qa_jsonl(path) == [QAItem(id="7", question="Q", ground_truth="G")]

    @pytest.mark.parametrize("field, value, kind", [
        ("id", True, "str or int"), ("id", 1.5, "str or int"), ("id", None, "str or int"),
        ("question", None, "str"), ("question", 3, "str"),
        ("ground_truth", ["a", "b"], "str"), ("ground_truth", {"a": 1}, "str")])
    def test_field_of_wrong_type_is_a_malformed_line(self, tmp_path, field, value, kind):
        obj = {"id": "2", "question": "Q", "ground_truth": "G", field: value}
        path = tmp_path / "qa.jsonl"
        path.write_text('{"id":"1","question":"Q","ground_truth":"G"}\n' + json.dumps(obj) + "\n")
        with pytest.raises(MalformedLine) as exc:
            load_qa_jsonl(path)
        assert exc.value.line_no == 2
        assert f"field {field!r} missing or not a {kind}" in str(exc.value)

    def test_line_not_an_object_is_a_malformed_line(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text('["1", "Q", "G"]\n')
        with pytest.raises(MalformedLine) as exc:
            load_qa_jsonl(path)
        assert exc.value.line_no == 1

    def test_empty_ground_truth_is_a_malformed_line(self, tmp_path):
        # so is a blank one, and an empty or blank question
        path = tmp_path / "qa.jsonl"
        for field, value in (("ground_truth", ""), ("ground_truth", "   "),
                             ("question", ""), ("question", " \t\n")):
            obj = {"id": "2", "question": "Q", "ground_truth": "G", field: value}
            path.write_text('{"id":"1","question":"Q","ground_truth":"G"}\n'
                            + json.dumps(obj) + "\n")
            with pytest.raises(MalformedLine) as exc:
                load_qa_jsonl(path)
            assert exc.value.line_no == 2
            assert f"empty {field}" in str(exc.value)
            assert isinstance(exc.value.__cause__, InvalidConfig)
