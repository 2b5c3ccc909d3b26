"""Answer-correctness scoring: statement extraction, TP/FP/FN classification
against ground truth, statement-level F1, semantic similarity, and the
weighted blend, plus aggregation over a QA set.

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

from .embed import cosine
from .errors import (EmptyResults, EmptyText, InvalidConfig, MalformedLine,
                     MetricUndefined, ProtocolError)
from .llm import ChatRequest, ChatResponse

_SENTENCE_SPLIT = re.compile(r"[.?!]+(?:\s+|$)")
_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class QAItem:
    id: str
    question: str
    ground_truth: str

    def __post_init__(self):
        if not self.ground_truth:
            raise InvalidConfig(f"QA item {self.id!r} has empty ground_truth")


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
    w_factual: float = 0.75
    w_semantic: float = 0.25
    judge: str = "lexical"  # "lexical" | "remote"
    jaccard_threshold: float = 0.6

    def __post_init__(self):
        if self.w_factual < 0 or self.w_semantic < 0:
            raise InvalidConfig("metric weights must be >= 0")
        if abs(self.w_factual + self.w_semantic - 1.0) > 1e-9:
            raise InvalidConfig("metric weights must sum to 1")
        if self.judge not in ("lexical", "remote"):
            raise InvalidConfig(f"unknown judge {self.judge!r}")
        # 0 would count every pair of non-empty statements as support
        if not 0 < self.jaccard_threshold <= 1:
            raise InvalidConfig("jaccard_threshold must be in (0, 1]")


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
        self._token_sets: dict[str, frozenset[str]] = {}
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
        raise ProtocolError(f"judge reply is not valid JSON: {exc}") from exc


class RemoteJudge:
    """Judge backed by a chat model via a generate function."""

    def __init__(self, generate_fn: Callable[[ChatRequest], ChatResponse],
                 model: str = ""):
        self.generate_fn = generate_fn
        self.model = model

    def _ask(self, prompt: str) -> str:
        req = ChatRequest(model=self.model,
                          messages=[{"role": "user", "content": prompt}])
        return self.generate_fn(req).content

    def extract(self, text: str) -> list[str]:
        if not text.strip():
            return []
        reply = _parse_json_reply(self._ask(_EXTRACT_PROMPT.format(text=text)))
        if not isinstance(reply, list) or not all(isinstance(s, str) for s in reply):
            raise ProtocolError("extraction reply is not a JSON array of strings")
        return [s.strip() for s in reply if s.strip()]

    def classify(self, answer_stmts: list[str], gt_stmts: list[str]) -> tuple[int, int, int]:
        if not answer_stmts and not gt_stmts:
            return 0, 0, 0
        prompt = _CLASSIFY_PROMPT.format(
            answer="\n".join(f"{i}. {s}" for i, s in enumerate(answer_stmts)) or "(none)",
            gt="\n".join(f"{i}. {s}" for i, s in enumerate(gt_stmts)) or "(none)",
        )
        reply = _parse_json_reply(self._ask(prompt))
        try:
            ans_flags = [bool(v) for v in reply["answer_supported"]]
            gt_flags = [bool(v) for v in reply["ground_truth_supported"]]
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"classification reply malformed: {exc}") from exc
        if len(ans_flags) != len(answer_stmts) or len(gt_flags) != len(gt_stmts):
            raise ProtocolError("classification reply length mismatch")
        tp = sum(ans_flags)
        fp = len(ans_flags) - tp
        fn = sum(1 for v in gt_flags if not v)
        return tp, fp, fn


def f1(tp: int, fp: int, fn: int) -> float:
    """Balanced F1 over statement counts: tp / (tp + 0.5*(fp + fn))."""
    if tp < 0 or fp < 0 or fn < 0:
        raise InvalidConfig("counts must be >= 0")
    if tp == 0 and fp == 0 and fn == 0:
        raise MetricUndefined("no statements on either side")
    return tp / (tp + 0.5 * (fp + fn))


def answer_correctness(answer: str, qa: QAItem,
                       embed_fn: Callable[[str], np.ndarray],
                       cfg: MetricConfig, judge=None) -> EvalResult:
    """Blend of statement-level F1 and clamped embedding cosine similarity."""
    if judge is None:
        judge = LexicalJudge(cfg.jaccard_threshold)
    answer_stmts = judge.extract(answer)
    gt_stmts = judge.extract(qa.ground_truth)
    tp, fp, fn = judge.classify(answer_stmts, gt_stmts)
    factual = f1(tp, fp, fn)
    try:
        sim = cosine(embed_fn(answer), embed_fn(qa.ground_truth))
    except EmptyText:
        sim = 0.0
    sim = min(1.0, max(0.0, sim))
    score = cfg.w_factual * factual + cfg.w_semantic * sim
    return EvalResult(qa_id=qa.id, tp=tp, fp=fp, fn=fn, f1=factual,
                      semantic_sim=sim, answer_correctness=score)


def aggregate(results: list[EvalResult]) -> dict:
    if not results:
        raise EmptyResults("no results to aggregate")
    scores = [r.answer_correctness for r in results]
    return {
        "mean": sum(scores) / len(scores),
        "n": len(scores),
        "min": min(scores),
        "max": max(scores),
    }


def load_qa_jsonl(path: str | Path) -> list[QAItem]:
    """QA set file: JSONL, one {id, question, ground_truth} per line."""
    items: list[QAItem] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                item = QAItem(id=str(obj["id"]), question=str(obj["question"]),
                              ground_truth=str(obj["ground_truth"]))
            except (json.JSONDecodeError, KeyError, TypeError, InvalidConfig) as exc:
                # a bad QA file is a data error, even where QAItem calls it config
                raise MalformedLine(line_no, str(exc)) from exc
            if item.id in seen:
                raise MalformedLine(line_no, f"duplicate qa id {item.id!r}")
            seen.add(item.id)
            items.append(item)
    if not items:
        raise EmptyResults(f"no QA items in {path}")
    return items
