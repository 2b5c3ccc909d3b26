"""Pipeline orchestrator: embed question, retrieve, assemble prompt within a
context budget, generate, and record provenance."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .embed import Vector
from .errors import InvalidConfig, RagBenchError, TemplateError, tag_qa
from .llm import ChatRequest, ChatResponse
from .vectorstore import ChunkRef, Index

DEFAULT_SYSTEM_PROMPT = "Answer the question using only the provided context."
DEFAULT_TEMPLATE = "Context:\n{context}\n\nQuestion: {question}\nAnswer:"
NO_CONTEXT = "(no relevant context found)"
_SEPARATOR = "\n---\n"


@dataclass
class RagConfig:
    top_k: int = 4
    max_context_chars: int = 8000
    prompt_template: str = DEFAULT_TEMPLATE
    system_prompt: str = DEFAULT_SYSTEM_PROMPT
    model: str = ""
    max_tokens: int = 512

    def __post_init__(self):
        self._check()

    def _check(self):
        if self.top_k < 1:
            raise InvalidConfig("top_k must be >= 1")
        if self.max_context_chars < 1:
            raise InvalidConfig("max_context_chars must be >= 1")
        for ph in ("{context}", "{question}"):
            if self.prompt_template.count(ph) != 1:
                raise TemplateError(
                    f"prompt template must contain {ph} exactly once"
                )


@dataclass
class AnswerRecord:
    qa_id: str
    question: str
    answer: str
    retrieved: list[tuple[ChunkRef, float]]
    prompt_chars: int
    latency_ms: int
    context_truncated: bool


def _fill(template: str, context: str, question: str) -> str:
    # substitute right-to-left so inserted text is never rescanned
    spans = sorted(
        [(template.index("{context}"), "{context}", context),
         (template.index("{question}"), "{question}", question)],
        reverse=True,
    )
    out = template
    for pos, ph, value in spans:
        out = out[:pos] + value + out[pos + len(ph):]
    return out


def assemble_prompt(question: str, chunks: list[tuple[ChunkRef, str]],
                    cfg: RagConfig) -> tuple[str, list[ChunkRef], bool]:
    """Concatenate chunks in rank order, separated by "\\n---\\n", greedily
    while the context stays within cfg.max_context_chars codepoints. A chunk
    that would overflow is excluded whole (no mid-chunk truncation)."""
    cfg._check()
    if not chunks:
        return _fill(cfg.prompt_template, NO_CONTEXT, question), [], False
    parts: list[str] = []
    used: list[ChunkRef] = []
    total = 0
    truncated = False
    for ref, text in chunks:
        cost = len(text) + (len(_SEPARATOR) if parts else 0)
        if total + cost > cfg.max_context_chars:
            truncated = True
            break
        parts.append(text)
        used.append(ref)
        total += cost
    context = _SEPARATOR.join(parts) if parts else NO_CONTEXT
    return _fill(cfg.prompt_template, context, question), used, truncated


def answer_question(qa, index: Index, embed_fn: Callable[[str], Vector],
                    generate_fn: Callable[[ChatRequest], ChatResponse],
                    cfg: RagConfig) -> AnswerRecord:
    """Run one question through retrieve -> assemble -> generate."""
    cfg._check()
    try:
        qvec = embed_fn(qa.question)
        hits = index.query_topk(qvec, cfg.top_k)
        chunks = [(h.chunk_ref, index.text_for(h.chunk_ref)) for h in hits]
        prompt, used, truncated = assemble_prompt(qa.question, chunks, cfg)
        messages = []
        if cfg.system_prompt:
            messages.append({"role": "system", "content": cfg.system_prompt})
        messages.append({"role": "user", "content": prompt})
        req = ChatRequest(model=cfg.model, messages=messages,
                          temperature=0.0, max_tokens=cfg.max_tokens)
        resp = generate_fn(req)
    except RagBenchError as exc:
        tag_qa(exc, qa.id)
        raise
    return AnswerRecord(
        qa_id=qa.id,
        question=qa.question,
        answer=resp.content,
        retrieved=[(h.chunk_ref, h.score) for h in hits],
        prompt_chars=len(prompt),
        latency_ms=resp.latency_ms,
        context_truncated=truncated,
    )
