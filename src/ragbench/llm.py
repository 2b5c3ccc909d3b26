"""Chat-completion client: remote OpenAI-compatible backend, deterministic
mock backend, and chat completions cached in the response store."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import store
from ._http import post_json_with_retries
from .errors import InvalidConfig, RagBenchError

_MOCK_PREFIX = "MOCK-ANSWER: "
_MOCK_TRUNC = 2000


@dataclass
class ChatRequest:
    model: str
    messages: list[dict]  # [{"role": "system"|"user", "content": str}, ...]
    temperature: float = 0.0
    max_tokens: int = 512

    def __post_init__(self):
        if self.temperature < 0:
            raise InvalidConfig("temperature must be >= 0")
        if not any(m.get("role") == "user" for m in self.messages):
            raise InvalidConfig("at least one user message required")


@dataclass
class ChatResponse:
    content: str
    cached: bool = False


@dataclass
class LlmConfig:
    endpoint_url: str = ""
    max_concurrency: int = 4
    timeout_ms: int = 30000
    max_retries: int = 3


GenerateFn = Callable[[ChatRequest], ChatResponse]


def generate(req: ChatRequest, cfg: LlmConfig) -> ChatResponse:
    """POST {endpoint}/v1/chat/completions; content = first choice message."""
    body = post_json_with_retries(
        cfg.endpoint_url.rstrip("/") + "/v1/chat/completions",
        {
            "model": req.model,
            "messages": req.messages,
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        },
        timeout_ms=cfg.timeout_ms,
        max_retries=cfg.max_retries,
    )
    try:
        choices = body["choices"]
        content = choices[0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise RagBenchError(f"malformed chat response: {exc}") from exc
    if not isinstance(content, str):
        raise RagBenchError("completion content is not a string")
    if content == "":
        raise RagBenchError("empty completion content")
    return ChatResponse(content=content, cached=False)


def mock_generate(req: ChatRequest) -> ChatResponse:
    """Deterministic offline backend: echoes the last user message."""
    last_user = [m for m in req.messages if m.get("role") == "user"][-1]
    content = _MOCK_PREFIX + str(last_user.get("content", ""))[:_MOCK_TRUNC]
    return ChatResponse(content=content, cached=False)


def request_key(req: ChatRequest, endpoint: str = "") -> str:
    """SHA-256 of the canonical JSON of the full request semantics."""
    return store.request_key({
        "endpoint": endpoint,
        "model": req.model,
        "messages": req.messages,
        "temperature": req.temperature,
        "max_tokens": req.max_tokens,
    })


def _decode_entry(entry: dict) -> ChatResponse:
    content = entry.get("content")
    if not isinstance(content, str):
        raise RagBenchError("cached content is not a string")
    return ChatResponse(content=content, cached=True)


def cached(op: GenerateFn, req: ChatRequest, cache_dir: str | Path,
           endpoint: str = "") -> ChatResponse:
    """Content-addressed cache around a generate function.

    Hit: stored content, cached=True, zero calls to op. Miss: call through
    and persist atomically. Corrupt entries are treated as misses and
    overwritten. Threads that miss on one entry at once make one call to op;
    the others wait for it and get the stored content with cached=True.
    """
    def compute() -> tuple[ChatResponse, dict]:
        resp = op(req)
        return resp, {"content": resp.content}

    return store.fetch(cache_dir, request_key(req, endpoint), _decode_entry, compute)


def make_cached_fn(op: GenerateFn, cache_dir: str | Path,
                   endpoint: str = "") -> GenerateFn:
    return lambda req: cached(op, req, cache_dir, endpoint)
