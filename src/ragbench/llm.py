"""Chat-completion client: remote OpenAI-compatible backend, deterministic
mock backend, and chat completions cached in the response store."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import store
from ._http import post_json_with_retries
from .errors import RagBenchError

_MOCK_PREFIX = "MOCK-ANSWER: "
_MOCK_TRUNC = 2000
MAX_TOKENS = 512  # every chat request's completion budget


@dataclass
class ChatRequest:
    model: str
    messages: list[dict]  # [{"role": "system"|"user", "content": str}, ...]
    # not part of the request: the caller's check of a reply's content,
    # raising a RagBenchError for one it cannot use; cached runs it before
    # it stores a reply and when it reads one
    check: Callable[[str], object] = field(default=lambda content: None,
                                           compare=False, repr=False)


@dataclass
class ChatResponse:
    content: str
    cached: bool = False


def _payload(req: ChatRequest) -> dict:
    """The JSON body that generate posts for req."""
    return {"model": req.model, "messages": req.messages, "temperature": 0.0,
            "max_tokens": MAX_TOKENS}


def generate(req: ChatRequest, endpoint_url: str) -> ChatResponse:
    """POST {endpoint_url}/v1/chat/completions; content = the first choice's
    message content as the server sent it, which cached checks."""
    body = post_json_with_retries(endpoint_url.rstrip("/") + "/v1/chat/completions",
                                  _payload(req))
    try:
        return ChatResponse(content=body["choices"][0]["message"]["content"], cached=False)
    except (KeyError, IndexError, TypeError) as exc:
        raise RagBenchError(f"malformed chat response: {exc}") from exc


def mock_generate(req: ChatRequest) -> ChatResponse:
    """Deterministic offline backend: echoes the last user message."""
    last_user = [m for m in req.messages if m.get("role") == "user"][-1]
    content = _MOCK_PREFIX + str(last_user.get("content", ""))[:_MOCK_TRUNC]
    return ChatResponse(content=content, cached=False)


def request_key(req: ChatRequest, endpoint: str = "") -> str:
    """SHA-256 of the canonical JSON of the full request semantics."""
    return store.request_key({"endpoint": endpoint.rstrip("/"), **_payload(req)})


def cached(op: Callable[[ChatRequest], ChatResponse], req: ChatRequest,
           cache_dir: str | Path, endpoint: str = "") -> ChatResponse:
    """Content-addressed cache around a generate function.

    Hit: stored content, cached=True, no call to op. Miss: op's content,
    cached=False, stored atomically. One rule judges a reply's content,
    fresh or stored: a non-empty string of UTF-8 text that passes req.check.
    Content from op that breaks it raises and is not stored; an entry whose
    content breaks it, or that is corrupt, is a miss and is overwritten.
    Threads that miss one entry at once make one call to op; the others get
    the stored content with cached=True.
    """
    def parse(content) -> str:
        if not isinstance(content, str):
            raise RagBenchError("completion content is not a string")
        if content == "":
            raise RagBenchError("empty completion content")
        try:  # a lone surrogate, as half an emoji, does not encode
            content.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise RagBenchError(f"reply is not UTF-8 text: {exc.reason}") from exc
        req.check(content)
        return content

    content, hit = store.fetch(cache_dir, request_key(req, endpoint), "content", parse,
                               lambda: op(req).content)
    return ChatResponse(content, cached=hit)
