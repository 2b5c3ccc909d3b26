"""Pipeline orchestrator: assemble a question's retrieved chunks into a prompt
within a context budget, generate, and record provenance."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .chunker import ChunkRef
from .errors import InvalidConfig
from .llm import ChatRequest, ChatResponse
from .vectorstore import Hit

SYSTEM_PROMPT = "Answer the question using only the provided context."
PROMPT_TEMPLATE = "Context:\n{context}\n\nQuestion: {question}\nAnswer:"
NO_CONTEXT = "(no relevant context found)"
_SEPARATOR = "\n---\n"


@dataclass(frozen=True)
class RagConfig:
    top_k: int = 4
    max_context_chars: int = 8000
    model: str = ""

    def __post_init__(self):
        if self.top_k < 1:
            raise InvalidConfig("top_k must be >= 1")
        if self.max_context_chars < 1:
            raise InvalidConfig("max_context_chars must be >= 1")


@dataclass
class AnswerRecord:
    answer: str
    retrieved: list[tuple[ChunkRef, float]]
    n_used: int  # the prompt holds the texts of the first n_used retrieved
    prompt_chars: int


def assemble_prompt(question: str, hits: list[Hit],
                    cfg: RagConfig) -> tuple[str, int]:
    """Concatenate hit texts in rank order, separated by "\\n---\\n", greedily
    while the context stays within cfg.max_context_chars codepoints; return
    the prompt and the count n of hits it holds. Filling stops at the first
    hit that would overflow, excluded whole (no mid-chunk truncation), so
    the context is exactly the texts of hits[:n]."""
    parts: list[str] = []
    total = 0
    for hit in hits:
        cost = len(hit.text) + (len(_SEPARATOR) if parts else 0)
        if total + cost > cfg.max_context_chars:
            break
        parts.append(hit.text)
        total += cost
    context = _SEPARATOR.join(parts) if parts else NO_CONTEXT
    return PROMPT_TEMPLATE.format(context=context, question=question), len(parts)


def answer_question(question: str, hits: list[Hit],
                    generate_fn: Callable[[ChatRequest], ChatResponse],
                    cfg: RagConfig) -> AnswerRecord:
    """Run one question through assemble -> generate, from hits, its
    query_topk result."""
    prompt, n_used = assemble_prompt(question, hits, cfg)
    resp = generate_fn(ChatRequest(model=cfg.model, messages=[
        {"role": "system", "content": SYSTEM_PROMPT},
        {"role": "user", "content": prompt}]))
    return AnswerRecord(
        answer=resp.content,
        retrieved=[(h.chunk_ref, h.score) for h in hits],
        n_used=n_used,
        prompt_chars=len(prompt),
    )
