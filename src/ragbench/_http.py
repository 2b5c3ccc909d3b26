"""Shared HTTP plumbing: JSON POST with retry/backoff, bearer auth from env.

Retry policy (used by both the embeddings and chat clients): retry on
HTTP 429 and 5xx with exponential backoff, base 500 ms, factor 2. A 429
whose Retry-After header gives whole seconds waits that long instead,
capped at _RETRY_AFTER_MAX_S; a header in the HTTP-date form, or one that
is not a non-negative integer, falls back to the backoff.

A refused or reset connection is not retried: it raises RagBenchError at
once. Unlike a 429 or 5xx it carries no sign that waiting helps, and a
reset may come after the backend has received the request. A timeout is
not retried either.
"""

from __future__ import annotations

import json
import os
import time

from .errors import RagBenchError

API_KEY_ENV = "RAGBENCH_API_KEY"
# the remote transport: both the chat and the embeddings backend use these,
# and no config key changes them
TIMEOUT_MS = 30000
MAX_RETRIES = 3
MAX_CONCURRENCY = 4
_BACKOFF_BASE_S = 0.5
_RETRY_AFTER_MAX_S = 30

# test hook; replaced in unit tests to avoid real sleeps
_sleep = time.sleep


def _headers() -> dict:
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(API_KEY_ENV, "")
    if token:
        headers["Authorization"] = f"Bearer {token}"
    return headers


def _retry_after_s(value: str | None) -> int | None:
    """The seconds form of a Retry-After header, capped; None otherwise."""
    if value is None or not value.strip().isdecimal():
        return None
    return min(int(value), _RETRY_AFTER_MAX_S)


def _post(url: str, data: bytes, timeout_s: float) -> tuple[int, str | None, bytes]:
    """One POST; returns (status, Retry-After header, body)."""
    # imported here so that offline commands never load the HTTP and TLS stack
    import http.client
    import urllib.error
    import urllib.request

    # urlopen would also read file:, ftp: and data: URLs
    if not url.lower().startswith(("http://", "https://")):
        raise RagBenchError(f"request to {url} failed: not an http(s) URL")
    try:
        req = urllib.request.Request(url, data=data, headers=_headers(), method="POST")
        with urllib.request.urlopen(req, timeout=timeout_s) as resp:
            return resp.status, resp.headers.get("Retry-After"), resp.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        return exc.code, exc.headers.get("Retry-After"), b""
    except (OSError, ValueError, http.client.HTTPException) as exc:
        # a URLError wraps its cause; ValueError: a malformed URL, such as one with a bad port
        reason = exc.reason if isinstance(exc, urllib.error.URLError) else exc
        if isinstance(reason, TimeoutError):
            raise RagBenchError(f"request to {url} timed out") from exc
        raise RagBenchError(f"request to {url} failed: {reason}") from exc


def post_json_with_retries(url: str, payload: dict) -> dict:
    """POST payload as JSON, with TIMEOUT_MS and MAX_RETRIES as they are at
    call time; return the decoded JSON response body."""
    try:
        data = json.dumps(payload, allow_nan=False).encode("utf-8")
    except ValueError as exc:  # NaN or infinity: not JSON
        raise RagBenchError(f"request to {url} is not valid JSON: {exc}") from exc
    for attempt in range(MAX_RETRIES + 1):
        status, retry_after, body = _post(url, data, TIMEOUT_MS / 1000.0)
        if status == 200:
            try:
                return json.loads(body)
            except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
                raise RagBenchError(f"non-JSON response from {url}") from exc
        if status != 429 and status < 500:
            raise RagBenchError(f"HTTP {status} from {url}")
        if attempt == MAX_RETRIES:
            if status == 429:
                raise RagBenchError(f"rate limited after {MAX_RETRIES} retries: {url}")
            raise RagBenchError(f"HTTP {status} from {url} after {MAX_RETRIES} retries")
        wait_s = _retry_after_s(retry_after) if status == 429 else None
        _sleep(_BACKOFF_BASE_S * (2 ** attempt) if wait_s is None else wait_s)
