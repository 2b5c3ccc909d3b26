import pytest
from hypothesis import given, strategies as st

from ragbench.chunker import ChunkConfig, chunk_corpus
from ragbench.config import AppConfig
from ragbench.corpus import Document
from ragbench.errors import InvalidConfig, MalformedLine
from ragbench.llm import mock_generate
from ragbench.metrics import LexicalJudge, QAItem
from ragbench.rag import (NO_CONTEXT, SYSTEM_PROMPT, RagConfig, AnswerRecord,
                          assemble_prompt, answer_question)
from ragbench.sweep import run_sweep
from ragbench.vectorstore import Hit, Index

from oracles import embed_offline


def offline_embed(text):
    return embed_offline(text, 256)


def hits_for(qa, index, k=RagConfig().top_k):
    return index.query_topk([offline_embed(qa.question)], k)[0]


def build_index(docs, size=200, overlap=0, dim=256):
    chunks = chunk_corpus(docs, ChunkConfig(size, overlap))
    return Index(chunks, {c.text: embed_offline(c.text, dim) for c in chunks})


class TestConfig:
    def test_defaults_valid(self):
        cfg = RagConfig()
        assert cfg.top_k == 4
        assert cfg.max_context_chars == 8000

    def test_bad_top_k(self):
        with pytest.raises(InvalidConfig):
            RagConfig(top_k=0)


# text that may hold either placeholder, whole or in part
_PIECES = st.lists(st.sampled_from(["{context}", "{question}", "{", "}", "context",
                                    "question", "x", " ", "\n"]),
                   max_size=6).map("".join)
# a value that is not blank
_VALUES = st.tuples(_PIECES, st.sampled_from(["x", "{context}", "{question}", "{", "}"]),
                    _PIECES).map("".join)


def hit(doc_id, text):
    return Hit(chunk_ref=(doc_id, 0), score=0.0, text=text)


class TestAssemblePrompt:
    def test_substitution(self):
        prompt, n = assemble_prompt("q", [hit("d", "x")], RagConfig())
        assert prompt == "Context:\nx\n\nQuestion: q\nAnswer:"
        assert n == 1

    def test_zero_hits_fallback(self):
        prompt, n = assemble_prompt("q", [], RagConfig())
        assert NO_CONTEXT in prompt
        assert n == 0

    def test_budget_exact_fit_excludes_second_chunk(self):
        hits = [hit("a", "x" * 50), hit("b", "y" * 10)]
        prompt, n = assemble_prompt("q", hits, RagConfig(max_context_chars=50))
        assert n == 1
        assert "y" not in prompt

    def test_separator_between_chunks(self):
        hits = [hit("a", "aaa"), hit("b", "bbb")]
        prompt, n = assemble_prompt("q", hits, RagConfig())
        assert "aaa\n---\nbbb" in prompt
        assert n == 2

    def test_separator_counts_toward_budget(self):
        # 3 + 5 + 3 = 11 codepoints; budget 10 admits only the first chunk
        hits = [hit("a", "aaa"), hit("b", "bbb")]
        _, n = assemble_prompt("q", hits, RagConfig(max_context_chars=10))
        assert n == 1

    def test_budget_respected_property(self):
        # the context is exactly the first n texts, within the budget, and
        # the next hit, if there is one, would overflow it
        hits = [hit(f"d{i}", "z" * (i * 7 + 1)) for i in range(20)]
        for budget in (1, 5, 17, 100, 1000):
            prompt, n = assemble_prompt("q", hits, RagConfig(max_context_chars=budget))
            context = prompt[len("Context:\n"):prompt.rindex("\n\nQuestion: q\nAnswer:")]
            sep = "\n---\n"
            used = sep.join(h.text for h in hits[:n])
            assert context == (used if n else NO_CONTEXT)
            assert len(used) <= budget
            if n < len(hits):
                assert len(used) + (len(sep) if n else 0) + len(hits[n].text) > budget

    def test_question_containing_placeholder_is_not_rescanned(self):
        prompt, _ = assemble_prompt("{context}", [hit("d", "CTX")], RagConfig())
        assert prompt == "Context:\nCTX\n\nQuestion: {context}\nAnswer:"

    @given(question=_VALUES, context=_VALUES)
    def test_prompt_is_template_parts_and_values_concatenated(self, question, context):
        # neither value is rescanned, whatever placeholders or braces it holds
        prompt, _ = assemble_prompt(question, [hit("d", context)],
                                    RagConfig(max_context_chars=len(context)))
        assert prompt == "Context:\n" + context + "\n\nQuestion: " + question + "\nAnswer:"


class TestAnswerQuestion:
    def planted_docs(self):
        docs = [Document(id=f"filler{i}", source="s", title="",
                         body=f"unrelated musings number {i} about gardening "
                              f"and weather patterns in region {i}")
                for i in range(10)]
        docs.append(Document(id="planted", source="s", title="",
                             body="The secret marker ZEBRA-7 identifies the "
                                  "planted document for retrieval checks."))
        return docs

    def test_planted_marker_retrieved_and_echoed(self):
        index = build_index(self.planted_docs())
        qa = QAItem(id="q1", question="What is ZEBRA-7?", ground_truth="g")
        record = answer_question(qa.question, hits_for(qa, index), mock_generate,
                                 RagConfig())
        assert record.retrieved[0][0][0] == "planted"
        assert "ZEBRA-7" in record.answer

    def test_retrieved_length_clamped(self):
        docs = self.planted_docs()[:3]
        index = build_index(docs)
        qa = QAItem(id="q", question="anything", ground_truth="g")
        record = answer_question(qa.question, hits_for(qa, index, 50), mock_generate,
                                 RagConfig(top_k=50))
        assert len(record.retrieved) == min(50, len(chunk_corpus(docs, ChunkConfig(200))))

    def test_n_used_counts_the_hits_in_the_prompt(self):
        index = build_index(self.planted_docs())
        qa = QAItem(id="q", question="gardening weather", ground_truth="g")
        hits = hits_for(qa, index, 6)
        cfg = RagConfig(top_k=6, max_context_chars=200)
        record = answer_question(qa.question, hits, mock_generate, cfg)
        prompt, n = assemble_prompt(qa.question, hits, cfg)
        assert 0 < record.n_used == n < len(record.retrieved)
        assert record.prompt_chars == len(prompt)

    def test_request_is_the_system_message_then_the_prompt(self):
        index = build_index(self.planted_docs())
        qa = QAItem(id="q", question="ZEBRA-7?", ground_truth="g")
        hits, cfg = hits_for(qa, index), RagConfig(model="m")
        sent = []
        answer_question(qa.question, hits, lambda req: sent.append(req) or mock_generate(req),
                        cfg)
        (req,) = sent
        assert req.model == "m"
        assert req.messages == [
            {"role": "system", "content": SYSTEM_PROMPT},
            {"role": "user", "content": assemble_prompt(qa.question, hits, cfg)[0]}]

    def test_deterministic_records(self):
        index = build_index(self.planted_docs())
        qa = QAItem(id="q", question="ZEBRA-7?", ground_truth="g")
        args = (qa.question, hits_for(qa, index), mock_generate, RagConfig())
        assert answer_question(*args) == answer_question(*args)

    def test_scores_non_increasing_and_refs_in_index(self):
        docs = self.planted_docs()
        index = build_index(docs)
        qa = QAItem(id="q", question="gardening weather", ground_truth="g")
        record = answer_question(qa.question, hits_for(qa, index, 6), mock_generate,
                                 RagConfig(top_k=6))
        scores = [s for _, s in record.retrieved]
        assert scores == sorted(scores, reverse=True)
        refs = {c.ref for c in chunk_corpus(docs, ChunkConfig(200))}
        for ref, _ in record.retrieved:
            assert ref in refs

    def test_error_tagged_in_place(self):
        # the sweep tags a generation error with its item's id, on one
        # thread or several, and keeps its type, attributes and cause
        qa_set = [QAItem(id=f"q{i}", question=q, ground_truth="g")
                  for i, q in ((6, "gardening?"), (7, "ZEBRA-7?"), (8, "weather?"))]
        cause = ValueError("bad byte")

        def generate_fn(req):
            if "Question: ZEBRA-7?" in req.messages[-1]["content"]:
                raise MalformedLine(3, "unexpected reply") from cause
            return mock_generate(req)

        for workers in (1, 4):
            with pytest.raises(MalformedLine) as exc:
                run_sweep(self.planted_docs(), qa_set, AppConfig(chunk_sizes=[200]),
                          embed_texts_fn=lambda texts: [offline_embed(t) for t in texts],
                          embed_single_fn=lambda texts: [offline_embed(t) for t in texts],
                          generate_fn=generate_fn,
                          judge=LexicalJudge(), concurrency=workers)
            err = exc.value
            assert str(err) == "[qa q7] malformed line 3: unexpected reply"
            assert (err.line_no, err.qa_id) == (3, "q7")
            assert err.__cause__ is cause
