"""Chunk-size sweep: for each size, rebuild the index, answer the QA set,
score it, and emit per-size aggregates as CSV plus an SVG bar chart."""

from __future__ import annotations

import json
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .chunker import ChunkConfig, chunk_corpus
from .corpus import Document
from .errors import (DimMismatch, EmptyCorpus, EmptyResults, InvalidConfig,
                     RagBenchError, tag_qa)
from .metrics import (EvalResult, LexicalJudge, MetricConfig, QAItem,
                      aggregate, answer_correctness)
from .rag import RagConfig, answer_question
from .vectorstore import Index, IndexEntry

DEFAULT_CHUNK_SIZES = [250, 500, 1000, 2000, 4000, 8000]


@dataclass
class SweepConfig:
    chunk_sizes: list[int] = field(default_factory=lambda: list(DEFAULT_CHUNK_SIZES))
    overlap: int = 0
    rag: RagConfig = field(default_factory=RagConfig)
    metric: MetricConfig = field(default_factory=MetricConfig)

    def __post_init__(self):
        if not self.chunk_sizes:
            raise InvalidConfig("chunk_sizes must be non-empty")
        if any(b <= a for a, b in zip(self.chunk_sizes, self.chunk_sizes[1:])):
            raise InvalidConfig("chunk_sizes must be strictly increasing")
        if any(s <= self.overlap for s in self.chunk_sizes):
            raise InvalidConfig("every chunk size must exceed overlap")


@dataclass
class SweepRow:
    chunk_size: int
    mean_correctness: float
    n: int
    failed: bool = False
    error: str = ""


@dataclass
class SweepReport:
    rows: list[SweepRow]
    per_question: dict[int, list[EvalResult]]
    argmax_sizes: list[int]


def _argmax_sizes(rows: list[SweepRow]) -> list[int]:
    ok = [r for r in rows if not r.failed]
    if not ok:
        return []
    best = max(r.mean_correctness for r in ok)
    return [r.chunk_size for r in ok if r.mean_correctness == best]


def run_sweep(docs: list[Document], qa_set: list[QAItem], cfg: SweepConfig, *,
              embed_texts_fn: Callable[[list[str]], list[np.ndarray]],
              embed_fn: Callable[[str], np.ndarray],
              generate_fn,
              judge=None,
              keep_going: bool = False,
              out_dir: str | Path | None = None,
              concurrency: int = 1) -> SweepReport:
    """Run the experiment over every configured chunk size.

    embed_texts_fn batch-embeds chunk texts; embed_fn embeds single texts
    (questions, answers, ground truths) and should memoize so question
    embeddings are computed once and reused across sizes. If embed_fn has a
    prime(texts) method, as make_embed_fn's has, single texts are embedded
    ahead of use in batches: all questions and ground truths once per
    sweep, and each size's answers once per size.

    Each size runs in stages: chunk and embed the chunks, retrieve every
    QA item's chunks with one query_topk call, answer every item, embed the
    answers, score every item. A chunk text embedded at one size is not
    embedded again at a later one.

    With concurrency > 1, up to that many QA items of a stage run at once,
    on threads; embed_fn, generate_fn and judge must then be safe to call
    from several threads. Results, reports and errors are the same as with
    concurrency 1, and the same as taking one item at a time through every
    step: a size raises its earliest error in input order, tagged with that
    item's id (errors.tag_qa).

    judge defaults to a LexicalJudge at cfg.metric.jaccard_threshold. One
    judge serves the whole sweep, so a lexical judge tokenizes each
    distinct statement once, however often it recurs across items and sizes.

    With out_dir, every configured size's results.jsonl is deleted before
    the first size runs, so a sweep that stops early leaves none from an
    earlier run.
    """
    if out_dir is not None:
        for size in cfg.chunk_sizes:
            (Path(out_dir) / str(size) / "results.jsonl").unlink(missing_ok=True)
    if not docs:
        raise EmptyCorpus("sweep needs a non-empty corpus")
    if not qa_set:
        raise EmptyResults("sweep needs a non-empty QA set")
    if judge is None:
        judge = LexicalJudge(cfg.metric.jaccard_threshold)
    prime = getattr(embed_fn, "prime", None) or (lambda texts: None)
    prime([qa.question for qa in qa_set] + [qa.ground_truth for qa in qa_set])
    tail_rows: dict[str, np.ndarray] = {}
    rows: list[SweepRow] = []
    per_question: dict[int, list[EvalResult]] = {}
    for size in cfg.chunk_sizes:
        try:
            # no name holds the index, so it is freed before the next size's
            results = _run_size(
                qa_set, build_index(docs, size, cfg.overlap, embed_texts_fn, tail_rows),
                cfg, embed_fn, prime, generate_fn, judge, concurrency)
        except RagBenchError as exc:
            if not keep_going:
                raise
            rows.append(SweepRow(chunk_size=size, mean_correctness=0.0, n=0,
                                 failed=True, error=str(exc)))
            continue
        summary = aggregate(results)
        rows.append(SweepRow(chunk_size=size,
                             mean_correctness=summary["mean"],
                             n=summary["n"]))
        per_question[size] = results
        if out_dir is not None:
            _dump_size_results(Path(out_dir) / str(size), results)
    return SweepReport(rows=rows, per_question=per_question,
                       argmax_sizes=_argmax_sizes(rows))


def build_index(docs, size, overlap, embed_texts_fn,
                tail_rows: dict[str, np.ndarray]) -> Index:
    """Chunk at size and index the chunks, embedding once each text that
    tail_rows lacks.

    tail_rows maps the text of every chunk that ends its document to a copy
    of its row. Windows are fixed, so only such a chunk can recur at another
    size; a copy lets the embedder's block arrays be freed with the index.
    """
    chunks = chunk_corpus(docs, ChunkConfig(size=size, overlap=overlap))
    missing = list(dict.fromkeys(c.text for c in chunks if c.text not in tail_rows))
    fresh = dict(zip(missing, embed_texts_fn(missing))) if missing else {}
    vectors = [fresh[c.text] if c.text in fresh else tail_rows[c.text]
               for c in chunks]
    # a chunk ends its document when the next one starts another (seq 0)
    for c, nxt, v in zip(chunks, chunks[1:] + [None], vectors):
        if (nxt is None or nxt.seq == 0) and c.text not in tail_rows:
            tail_rows[c.text] = v.copy()
    return Index([IndexEntry(chunk_ref=(c.doc_id, c.seq), vector=v, text=c.text)
                  for c, v in zip(chunks, vectors)])


def _run_size(qa_set, index, cfg, embed_fn, prime, generate_fn, judge,
              concurrency) -> list[EvalResult]:
    """Retrieve every QA item's hits, answer every item, embed the answers
    in one batch, score every item. An item that fails at one stage stops
    the items after it, but the items before it go through the later
    stages: the error raised is the earliest in input order, as in a loop
    that takes one item through every step."""
    hits, retrieve_error = _retrieve(qa_set, index, embed_fn, cfg.rag.top_k,
                                     concurrency)
    # hits carry their chunk texts, so the index's vectors can go now
    # instead of adding to the judge's token memo at the size's peak
    del index
    records, answer_error = _map_in_order(
        lambda qa, qa_hits: answer_question(qa.question, qa_hits, generate_fn, cfg.rag),
        qa_set, hits, concurrency=concurrency)
    prime([r.answer for r in records])
    results, score_error = _map_in_order(
        lambda qa, record: answer_correctness(record.answer, qa, embed_fn,
                                              cfg.metric, judge),
        qa_set, records, concurrency=concurrency)
    error = score_error or answer_error or retrieve_error
    if error is not None:
        raise error
    return results


def _retrieve(qa_set, index, embed_fn, k, concurrency):
    """Top-k hits of each QA item's question, from one query_topk call over
    the stacked question vectors. As _map_in_order does, stops at the first
    item whose vector fails or does not match the index's dim, and returns
    (hits of the items before it, its error)."""
    def question_vector(qa):
        vec = embed_fn(qa.question)
        if len(vec) != index.dim:
            raise DimMismatch(f"query dim {len(vec)} != index dim {index.dim}")
        return vec

    vectors, error = _map_in_order(question_vector, qa_set, concurrency=concurrency)
    return (index.query_topk(np.stack(vectors), k) if vectors else []), error


def _map_in_order(fn, qa_set: list, *columns: list, concurrency: int):
    """fn(qa, *its values in columns) for each QA item, in input order; a
    column shorter than qa_set ends the map where it ends. Stops at the
    first item that raises a RagBenchError, tags that error in place with
    the item's id (errors.tag_qa), and returns (results of the items before
    it, the error); the error is None when every item succeeded.

    With concurrency > 1 items run on up to that many threads. The pool
    starts them in input order, so every item before the first failure in
    input order has run; only items after it can have been cancelled. With
    concurrency 1 items run in this thread, and none after a failure runs.
    """
    items = list(zip(qa_set, *columns))
    if concurrency > 1 and len(items) > 1:
        pool = ThreadPoolExecutor(max_workers=min(concurrency, len(items)))
        try:
            futures = [pool.submit(fn, *item) for item in items]
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            pool.shutdown(cancel_futures=True)
        outcomes = (f.result for f in futures)
    else:
        outcomes = (partial(fn, *item) for item in items)
    results = []
    for item, outcome in zip(items, outcomes):
        try:
            results.append(outcome())
        except RagBenchError as exc:
            tag_qa(exc, item[0].id)
            return results, exc
    return results, None


def _dump_size_results(size_dir: Path, results: list[EvalResult]) -> None:
    size_dir.mkdir(parents=True, exist_ok=True)
    with open(size_dir / "results.jsonl", "w", encoding="utf-8", newline="\n") as f:
        for r in results:
            # vars, not asdict: the fields are scalars, so no deep copy is needed
            f.write(json.dumps(vars(r), ensure_ascii=False) + "\n")


def emit_csv(report: SweepReport, path: str | Path) -> None:
    """UTF-8 CSV, LF endings, means to 6 decimal places."""
    lines = ["chunk_size,mean_correctness,n"]
    for row in report.rows:
        lines.append(f"{row.chunk_size},{row.mean_correctness:.6f},{row.n}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


# SVG geometry; fixed so identical reports yield identical bytes
_W, _H = 640, 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 20, 30, 50


def emit_svg(report: SweepReport, path: str | Path) -> None:
    """Standalone bar chart: x = chunk sizes ascending, y = mean correctness
    on [0, 1] with gridlines every 0.25."""
    plot_w = _W - _MARGIN_L - _MARGIN_R
    plot_h = _H - _MARGIN_T - _MARGIN_B
    rows = report.rows
    n = len(rows)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.2f}" y="18" text-anchor="middle" '
        'font-family="sans-serif" font-size="14">'
        "Mean answer correctness by chunk size</text>",
    ]
    for i in range(5):
        level = i * 0.25
        y = _MARGIN_T + plot_h * (1 - level)
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.2f}" x2="{_W - _MARGIN_R}" '
            f'y2="{y:.2f}" stroke="#cccccc" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{level:.2f}</text>'
        )
    slot = plot_w / n if n else plot_w
    bar_w = slot * 0.6
    for i, row in enumerate(rows):
        mean = 0.0 if row.failed else row.mean_correctness
        bar_h = plot_h * mean
        x = _MARGIN_L + slot * i + (slot - bar_w) / 2
        y = _MARGIN_T + plot_h - bar_h
        fill = "#bbbbbb" if row.failed else "#4477aa"
        out.append(
            f'<rect class="bar" x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
            f'height="{bar_h:.2f}" fill="{fill}"/>'
        )
        cx = _MARGIN_L + slot * i + slot / 2
        out.append(
            f'<text x="{cx:.2f}" y="{_H - _MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{row.chunk_size}</text>'
        )
    out.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" '
        f'x2="{_W - _MARGIN_R}" y2="{_MARGIN_T + plot_h}" '
        'stroke="black" stroke-width="1"/>'
    )
    out.append("</svg>")
    Path(path).write_bytes(("\n".join(out) + "\n").encode("utf-8"))
