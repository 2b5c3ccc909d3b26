"""Chat-completion client: remote OpenAI-compatible backend, deterministic
mock backend, and a content-addressed response cache."""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ._http import post_json_with_retries
from ._singleflight import SingleFlight
from .errors import EmptyCompletion, InvalidConfig, ProtocolError

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
    latency_ms: int = 0
    cached: bool = False


@dataclass
class LlmConfig:
    endpoint_url: str = ""
    model: str = ""
    max_concurrency: int = 4
    timeout_ms: int = 30000
    max_retries: int = 3


GenerateFn = Callable[[ChatRequest], ChatResponse]


def generate(req: ChatRequest, cfg: LlmConfig) -> ChatResponse:
    """POST {endpoint}/v1/chat/completions; content = first choice message."""
    t0 = time.monotonic()
    body = post_json_with_retries(
        cfg.endpoint_url.rstrip("/") + "/v1/chat/completions",
        {
            "model": req.model or cfg.model,
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
        raise ProtocolError(f"malformed chat response: {exc}") from exc
    if not isinstance(content, str):
        raise ProtocolError("completion content is not a string")
    if content == "":
        raise EmptyCompletion("empty completion content")
    latency = int((time.monotonic() - t0) * 1000)
    return ChatResponse(content=content, latency_ms=latency, cached=False)


def mock_generate(req: ChatRequest) -> ChatResponse:
    """Deterministic offline backend: echoes the last user message."""
    last_user = [m for m in req.messages if m.get("role") == "user"][-1]
    content = _MOCK_PREFIX + str(last_user.get("content", ""))[:_MOCK_TRUNC]
    return ChatResponse(content=content, latency_ms=0, cached=False)


def request_key(req: ChatRequest, endpoint: str = "") -> str:
    """SHA-256 of the canonical JSON of the full request semantics."""
    canonical = json.dumps(
        {
            "endpoint": endpoint,
            "model": req.model,
            "messages": req.messages,
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        },
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# Entries are files that every caller in the process shares, so calls are
# single-flighted on the entry path rather than per cached function.
_FLIGHT = SingleFlight()


def _read_entry(path: Path, key: str) -> ChatResponse | None:
    if not path.is_file():
        return None
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
        if obj.get("request_key") == key and isinstance(obj.get("content"), str):
            return ChatResponse(content=obj["content"], latency_ms=0, cached=True)
    except (json.JSONDecodeError, OSError, UnicodeDecodeError):
        pass  # corrupt entry: a miss, overwritten by the next write
    return None


def _write_entry(path: Path, key: str, content: str) -> None:
    """Atomic write: a temp file unique to this process and thread, then a
    rename over the entry."""
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    tmp.write_text(json.dumps({"request_key": key, "content": content},
                              ensure_ascii=False),
                   encoding="utf-8")
    os.replace(tmp, path)


def cached(op: GenerateFn, req: ChatRequest, cache_dir: str | Path,
           endpoint: str = "") -> ChatResponse:
    """Content-addressed cache around a generate function.

    Hit: stored content, cached=True, zero calls to op. Miss: call through
    and persist atomically. Corrupt entries are treated as misses and
    overwritten. Threads that miss on one entry at once make one call to op;
    the others wait for it and get the stored content with cached=True.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = request_key(req, endpoint)
    path = cache_dir / key

    def compute() -> ChatResponse:
        resp = op(req)
        _write_entry(path, key, resp.content)
        return resp

    return _FLIGHT.run(path, lambda: _read_entry(path, key), compute)


def make_cached_fn(op: GenerateFn, cache_dir: str | Path,
                   endpoint: str = "") -> GenerateFn:
    return lambda req: cached(op, req, cache_dir, endpoint)
