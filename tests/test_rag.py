import dataclasses

import pytest

from ragbench.chunker import ChunkConfig, chunk_corpus
from ragbench.corpus import Document
from ragbench.embed import embed_offline
from ragbench.errors import (DimMismatch, InvalidConfig, MalformedLine,
                             TemplateError)
from ragbench.llm import mock_generate
from ragbench.metrics import QAItem
from ragbench.rag import (NO_CONTEXT, RagConfig, AnswerRecord, assemble_prompt,
                          answer_question)
from ragbench.vectorstore import IndexEntry, build


def offline_embed(text):
    return embed_offline(text, 256)


def build_index(docs, size=200, overlap=0, dim=256):
    chunks = chunk_corpus(docs, ChunkConfig(size, overlap))
    return build([
        IndexEntry(chunk_ref=(c.doc_id, c.seq),
                   vector=embed_offline(c.text, dim), text=c.text)
        for c in chunks
    ])


class TestConfig:
    def test_defaults_valid(self):
        cfg = RagConfig()
        assert cfg.top_k == 4
        assert cfg.max_context_chars == 8000

    def test_template_missing_placeholder(self):
        with pytest.raises(TemplateError):
            RagConfig(prompt_template="no placeholders here")

    def test_template_duplicate_placeholder(self):
        with pytest.raises(TemplateError):
            RagConfig(prompt_template="{context}{context}{question}")

    def test_bad_top_k(self):
        with pytest.raises(InvalidConfig):
            RagConfig(top_k=0)


class TestAssemblePrompt:
    def cfg(self, **kw):
        defaults = dict(prompt_template="C:{context} Q:{question}")
        defaults.update(kw)
        return RagConfig(**defaults)

    def test_substitution(self):
        prompt, used, truncated = assemble_prompt(
            "q", [(("d", 0), "x")], self.cfg())
        assert prompt == "C:x Q:q"
        assert used == [("d", 0)]
        assert truncated is False

    def test_zero_hits_fallback(self):
        prompt, used, truncated = assemble_prompt("q", [], self.cfg())
        assert NO_CONTEXT in prompt
        assert used == []
        assert truncated is False

    def test_budget_exact_fit_excludes_second_chunk(self):
        chunks = [(("a", 0), "x" * 50), (("b", 0), "y" * 10)]
        prompt, used, truncated = assemble_prompt(
            "q", chunks, self.cfg(max_context_chars=50))
        assert used == [("a", 0)]
        assert truncated is True
        assert "y" not in prompt

    def test_separator_between_chunks(self):
        chunks = [(("a", 0), "aaa"), (("b", 0), "bbb")]
        prompt, used, _ = assemble_prompt("q", chunks, self.cfg())
        assert "aaa\n---\nbbb" in prompt
        assert used == [("a", 0), ("b", 0)]

    def test_separator_counts_toward_budget(self):
        # 3 + 5 + 3 = 11 codepoints; budget 10 admits only the first chunk
        chunks = [(("a", 0), "aaa"), (("b", 0), "bbb")]
        _, used, truncated = assemble_prompt(
            "q", chunks, self.cfg(max_context_chars=10))
        assert used == [("a", 0)]
        assert truncated is True

    def test_budget_respected_property(self):
        chunks = [((f"d{i}", 0), "z" * (i * 7 + 1)) for i in range(20)]
        for budget in (1, 5, 17, 100, 1000):
            prompt, used, _ = assemble_prompt(
                "q", chunks, self.cfg(max_context_chars=budget))
            context = prompt[len("C:"):prompt.rindex(" Q:q")]
            if used:
                assert len(context) <= budget

    def test_question_containing_placeholder_is_not_rescanned(self):
        prompt, _, _ = assemble_prompt(
            "{context}", [(("d", 0), "CTX")], self.cfg())
        assert prompt == "C:CTX Q:{context}"


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
        record = answer_question(qa, index, offline_embed, mock_generate,
                                 RagConfig())
        assert record.retrieved[0][0][0] == "planted"
        assert "ZEBRA-7" in record.answer

    def test_retrieved_length_clamped(self):
        index = build_index(self.planted_docs()[:3])
        qa = QAItem(id="q", question="anything", ground_truth="g")
        record = answer_question(qa, index, offline_embed, mock_generate,
                                 RagConfig(top_k=50))
        assert len(record.retrieved) == min(50, len(index))

    def test_deterministic_records(self):
        index = build_index(self.planted_docs())
        qa = QAItem(id="q", question="ZEBRA-7?", ground_truth="g")
        args = (qa, index, offline_embed, mock_generate, RagConfig())
        a, b = answer_question(*args), answer_question(*args)
        assert dataclasses.replace(a, latency_ms=0) == \
            dataclasses.replace(b, latency_ms=0)

    def test_scores_non_increasing_and_refs_in_index(self):
        index = build_index(self.planted_docs())
        qa = QAItem(id="q", question="gardening weather", ground_truth="g")
        record = answer_question(qa, index, offline_embed, mock_generate,
                                 RagConfig(top_k=6))
        scores = [s for _, s in record.retrieved]
        assert scores == sorted(scores, reverse=True)
        for ref, _ in record.retrieved:
            assert ref in index

    def test_dim_mismatch_not_silent(self):
        index = build_index(self.planted_docs(), dim=256)
        qa = QAItem(id="q", question="x", ground_truth="g")
        with pytest.raises(DimMismatch) as exc:
            answer_question(qa, index, lambda t: embed_offline(t, 64),
                            mock_generate, RagConfig())
        assert "q" in str(exc.value)  # annotated with qa id

    def test_error_tagged_in_place(self):
        index = build_index(self.planted_docs())
        qa = QAItem(id="q7", question="ZEBRA-7?", ground_truth="g")
        cause = ValueError("bad byte")

        def generate_fn(req):
            raise MalformedLine(3, "unexpected reply") from cause

        with pytest.raises(MalformedLine) as exc:
            answer_question(qa, index, offline_embed, generate_fn, RagConfig())
        err = exc.value
        assert str(err) == "[qa q7] malformed line 3: unexpected reply"
        assert (err.line_no, err.reason, err.qa_id) == (3, "unexpected reply", "q7")
        assert err.__cause__ is cause
