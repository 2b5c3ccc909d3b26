"""Answer-correctness scoring: statement extraction, TP/FP/FN classification
against ground truth, statement-level F1, semantic similarity, and the
weighted blend.

Two judges: a deterministic lexical judge (sentence split + Jaccard token
overlap) for fully offline runs, and a remote judge that delegates
extraction/classification to a chat model.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import check_fields, read_jsonl
from .embed import cosine
from .errors import InvalidConfig, RagBenchError
from .llm import ChatRequest, ChatResponse

_SENTENCE_SPLIT = re.compile(r"[.?!]+(?:\s+|$)")
_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class QAItem:
    id: str
    question: str
    ground_truth: str

    def __post_init__(self):
        for name in ("question", "ground_truth"):
            if not getattr(self, name).strip():
                raise InvalidConfig(f"QA item {self.id!r} has empty {name}")


@dataclass
class EvalResult:
    qa_id: str
    tp: int
    fp: int
    fn: int
    f1: float
    semantic_sim: float
    answer_correctness: float


@dataclass
class MetricConfig:
    w_factual: float = 0.75  # the semantic similarity's weight is 1 - w_factual
    judge: str = "lexical"  # "lexical" | "remote"

    def __post_init__(self):
        # written so that a NaN, which fails every comparison, fails it
        if not 0 <= self.w_factual <= 1:
            raise InvalidConfig("w_factual must be in [0, 1]")
        if self.judge not in ("lexical", "remote"):
            raise InvalidConfig(f"unknown judge {self.judge!r}")


class LexicalJudge:
    """Deterministic judge: sentence-terminator splitting and token-set
    Jaccard overlap for support decisions.

    A judge tokenizes each distinct statement once: it memoizes the token
    set of every statement text it has seen, and interns every token
    through one dict it owns, so equal tokens of different statements are
    one string. The memo grows with the distinct statements the judge has
    seen and lives as long as the judge; run_sweep uses one judge per
    sweep. A judge is safe to share across threads: each dict operation is
    atomic under the GIL, and two threads that race on one statement only
    tokenize it twice, to equal sets.
    """

    def __init__(self, jaccard_threshold: float = 0.6):
        self.jaccard_threshold = jaccard_threshold
        # 72% of offline-sweep's statements repeat; without this memo its sweep ran 28% longer
        self._token_sets: dict[str, frozenset[str]] = {}
        # interning trades about 3% of sweep time for memory: without it,
        # perfbench's peak_rss_mb rose 43.17 -> 43.94 MB on offline-sweep
        # and 47.76 -> 49.52 MB on offline-qa-heavy, in 4 of 4 pairs each
        self._interned: dict[str, str] = {}

    def extract(self, text: str) -> list[str]:
        parts = _SENTENCE_SPLIT.split(text)
        return [p.strip() for p in parts if p.strip()]

    def _tokens(self, s: str) -> frozenset[str]:
        tokens = self._token_sets.get(s)
        if tokens is None:
            intern = self._interned.setdefault
            tokens = frozenset(intern(t, t) for t in _TOKEN.findall(s.casefold()))
            self._token_sets[s] = tokens
        return tokens

    def _overlaps(self, a: frozenset[str], b: frozenset[str]) -> bool:
        if not a or not b:
            return False
        common = len(a & b)
        return common / (len(a) + len(b) - common) >= self.jaccard_threshold

    def supports(self, statement: str, reference: str) -> bool:
        return self._overlaps(self._tokens(statement), self._tokens(reference))

    def classify(self, answer_stmts: list[str], gt_stmts: list[str]) -> tuple[int, int, int]:
        """Tokenizes each statement once; support[i][j] is whether answer
        statement i and ground-truth statement j support each other."""
        gt_tokens = [self._tokens(g) for g in gt_stmts]
        support = [[self._overlaps(a, g) for g in gt_tokens]
                   for a in map(self._tokens, answer_stmts)]
        tp = sum(map(any, support))
        fp = len(answer_stmts) - tp
        fn = sum(1 for j in range(len(gt_stmts)) if not any(row[j] for row in support))
        return tp, fp, fn


_EXTRACT_PROMPT = (
    "Break the following text into short standalone factual statements. "
    "Respond with a JSON array of strings and nothing else.\n\nText:\n{text}"
)

_CLASSIFY_PROMPT = (
    "You are comparing candidate statements against reference statements.\n"
    "Candidate statements:\n{answer}\n\nReference statements:\n{gt}\n\n"
    'Respond with JSON {{"answer_supported": [...], "ground_truth_supported": [...]}} '
    "where each list holds one boolean per statement, in order: whether the "
    "candidate statement is supported by some reference statement, and whether "
    "the reference statement is supported by some candidate statement. "
    "Respond with the JSON object and nothing else."
)


def _parse_json_reply(content: str):
    text = content.strip()
    if text.startswith("```"):
        text = re.sub(r"^```[a-z]*\n?|```$", "", text).strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise RagBenchError(f"judge reply is not valid JSON: {exc}") from exc


def _statements(content: str) -> list[str]:
    reply = _parse_json_reply(content)
    if not isinstance(reply, list) or not all(isinstance(s, str) for s in reply):
        raise RagBenchError("extraction reply is not a JSON array of strings")
    return [s.strip() for s in reply if s.strip()]


def _counts(content: str, n_answer: int, n_gt: int) -> tuple[int, int, int]:
    reply = _parse_json_reply(content)
    try:
        ans_flags = reply["answer_supported"]
        gt_flags = reply["ground_truth_supported"]
    except (KeyError, TypeError) as exc:
        raise RagBenchError(f"classification reply malformed: {exc}") from exc
    # JSON booleans only: bool() would read "false" or [0] as support
    for flags in (ans_flags, gt_flags):
        if type(flags) is not list or any(type(v) is not bool for v in flags):
            raise RagBenchError(f"classification reply malformed: {flags!r} "
                                "is not a list of booleans")
    if len(ans_flags) != n_answer or len(gt_flags) != n_gt:
        raise RagBenchError("classification reply length mismatch")
    tp = sum(ans_flags)
    return tp, len(ans_flags) - tp, sum(1 for v in gt_flags if not v)


class RemoteJudge:
    """Judge backed by a chat model via a generate function. A reply is
    parsed inside the request too, as its check, so a cached generate
    function neither stores nor replays one that does not parse."""

    def __init__(self, generate_fn: Callable[[ChatRequest], ChatResponse],
                 model: str = ""):
        self.generate_fn = generate_fn
        self.model = model

    def _ask(self, prompt: str, parse: Callable[[str], object]):
        req = ChatRequest(model=self.model,
                          messages=[{"role": "user", "content": prompt}], check=parse)
        return parse(self.generate_fn(req).content)

    def extract(self, text: str) -> list[str]:
        if not text.strip():
            return []
        return self._ask(_EXTRACT_PROMPT.format(text=text), _statements)

    def classify(self, answer_stmts: list[str], gt_stmts: list[str]) -> tuple[int, int, int]:
        if not answer_stmts and not gt_stmts:
            return 0, 0, 0
        prompt = _CLASSIFY_PROMPT.format(
            answer="\n".join(f"{i}. {s}" for i, s in enumerate(answer_stmts)) or "(none)",
            gt="\n".join(f"{i}. {s}" for i, s in enumerate(gt_stmts)) or "(none)",
        )
        return self._ask(prompt, lambda content: _counts(content, len(answer_stmts),
                                                         len(gt_stmts)))


def f1(tp: int, fp: int, fn: int) -> float:
    """Balanced F1 over statement counts: tp / (tp + 0.5*(fp + fn))."""
    if tp == 0 and fp == 0 and fn == 0:
        raise RagBenchError("no statements on either side")
    return tp / (tp + 0.5 * (fp + fn))


def answer_correctness(answer: str, qa: QAItem,
                       embed_fn: Callable[[str], np.ndarray],
                       cfg: MetricConfig, judge) -> EvalResult:
    """Blend of statement-level F1, with judge's statements and verdicts,
    and clamped embedding cosine similarity."""
    answer_stmts = judge.extract(answer)
    gt_stmts = judge.extract(qa.ground_truth)
    tp, fp, fn = judge.classify(answer_stmts, gt_stmts)
    factual = f1(tp, fp, fn)
    # an empty answer cannot be embedded; QAItem rejects a blank ground truth
    sim = cosine(embed_fn(answer), embed_fn(qa.ground_truth)) if answer else 0.0
    sim = min(1.0, max(0.0, sim))
    score = cfg.w_factual * factual + (1 - cfg.w_factual) * sim
    return EvalResult(qa_id=qa.id, tp=tp, fp=fp, fn=fn, f1=factual,
                      semantic_sim=sim, answer_correctness=score)


def _qa_item(obj) -> QAItem:
    check_fields(obj, {"id": (str, int), "question": (str,), "ground_truth": (str,)})
    return QAItem(id=str(obj["id"]), question=obj["question"],
                  ground_truth=obj["ground_truth"])


def load_qa_jsonl(path: str | Path) -> list[QAItem]:
    """QA set file: JSONL, one {id, question, ground_truth} per line, ids
    unique. A line corpus.read_jsonl rejects raises MalformedLine."""
    with open(path, "rb") as f:
        items, _ = read_jsonl(f, _qa_item)
    if not items:
        raise RagBenchError(f"no QA items in {path}")
    return items
