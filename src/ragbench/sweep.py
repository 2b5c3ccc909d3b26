"""Chunk-size sweep: for each size, rebuild the index, answer the QA set,
score it, and emit per-size aggregates as CSV plus an SVG bar chart."""

from __future__ import annotations

import json
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Callable

from .chunker import ChunkConfig, chunk_corpus
from .corpus import Document
from .embed import Vector
from .errors import EmptyCorpus, EmptyResults, InvalidConfig, RagBenchError
from .metrics import (EvalResult, MetricConfig, QAItem, aggregate,
                      answer_correctness)
from .rag import RagConfig, answer_question
from .vectorstore import IndexEntry, build

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
              embed_texts_fn: Callable[[list[str]], list[Vector]],
              embed_fn: Callable[[str], Vector],
              generate_fn,
              judge=None,
              keep_going: bool = False,
              out_dir: str | Path | None = None,
              concurrency: int = 1) -> SweepReport:
    """Run the experiment over every configured chunk size.

    embed_texts_fn batch-embeds chunk texts; embed_fn embeds single texts
    (questions, answers, ground truths) and should memoize so question
    embeddings are computed once and reused across sizes.

    With concurrency > 1, up to that many QA items of a size are answered
    and scored at once, on threads; embed_fn, generate_fn and judge must
    then be safe to call from several threads. Results, reports and errors
    are the same as with concurrency 1.
    """
    if not docs:
        raise EmptyCorpus("sweep needs a non-empty corpus")
    if not qa_set:
        raise EmptyResults("sweep needs a non-empty QA set")
    rows: list[SweepRow] = []
    per_question: dict[int, list[EvalResult]] = {}
    for size in cfg.chunk_sizes:
        try:
            results = _run_size(docs, qa_set, size, cfg, embed_texts_fn,
                                embed_fn, generate_fn, judge, concurrency)
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


def _run_size(docs, qa_set, size, cfg, embed_texts_fn, embed_fn,
              generate_fn, judge, concurrency) -> list[EvalResult]:
    chunks = chunk_corpus(docs, ChunkConfig(size=size, overlap=cfg.overlap))
    vectors = embed_texts_fn([c.text for c in chunks])
    entries = [IndexEntry(chunk_ref=(c.doc_id, c.seq), vector=v, text=c.text)
               for c, v in zip(chunks, vectors)]
    index = build(entries)

    def score(qa) -> EvalResult:
        record = answer_question(qa, index, embed_fn, generate_fn, cfg.rag)
        return answer_correctness(record.answer, qa, embed_fn, cfg.metric, judge)

    if concurrency <= 1:
        return [score(qa) for qa in qa_set]
    pool = ThreadPoolExecutor(max_workers=min(concurrency, len(qa_set)))
    try:
        futures = [pool.submit(score, qa) for qa in qa_set]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    # The pool starts items in input order, so every item before a failed
    # one has run: the first error in input order is the one a sequential
    # loop raises. Only items after it can have been cancelled.
    return [f.result() for f in futures]


def _dump_size_results(size_dir: Path, results: list[EvalResult]) -> None:
    size_dir.mkdir(parents=True, exist_ok=True)
    with open(size_dir / "results.jsonl", "w", encoding="utf-8", newline="\n") as f:
        for r in results:
            f.write(json.dumps(asdict(r), ensure_ascii=False) + "\n")


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
