"""Chunk-size sweep: for each size, rebuild the index, answer the QA set
and score it. report.py holds what a sweep returns and writes."""

from __future__ import annotations

import itertools
from collections import ChainMap
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .chunker import ChunkConfig, chunk_corpus
from .config import AppConfig
from .corpus import Document
from .errors import RagBenchError, tag_qa
from .metrics import QAItem, answer_correctness
from .rag import answer_question
from .report import SweepReport, SweepRow, _dump_size_results
from .vectorstore import Index


def run_sweep(docs: list[Document], qa_set: list[QAItem], app: AppConfig, *,
              embed_texts_fn: Callable[[list[str]], list[np.ndarray]],
              embed_single_fn: Callable[[list[str]], list[np.ndarray]],
              generate_fn,
              judge,
              keep_going: bool = False,
              out_dir: str | Path | None = None,
              concurrency: int = 1) -> SweepReport:
    """Run the experiment over every chunk size of app, with its overlap,
    rag and metric settings; its backend and cache settings are the
    caller's to turn into the functions and the judge passed here.

    embed_texts_fn batch-embeds chunk texts, embed_single_fn the single
    texts: questions, ground truths and answers. The sweep embeds each
    single text once, in two batches: the questions and ground truths, then
    the answers it has not seen. If a batch raises a RagBenchError, each
    item embeds its own texts as it needs them, so an item still raises its
    own error, and items on two threads may each embed a text they share.

    The sweep takes the question rows once. For each size in turn it then
    chunks and embeds the chunks (a text embedded at one size is not
    embedded again), retrieves every item's chunks with one query_topk call
    and starts answering. It scores every item of every size last. With
    concurrency > 1, items run on one pool of that many threads, so a size
    is answered while the next is chunked and embedded; embed_single_fn,
    generate_fn and judge must then be thread-safe. Results and errors are
    those of one item at a time through every step: a size raises its
    earliest error in input order, tagged (errors.tag_qa) with its item's
    id. An error of the size's own, as a question row whose dim is not its
    index's, is untagged and answers no item. A failed item skips the later
    items of its size that have not started; without keep_going, every later
    item that has not started, and no later size is built. With out_dir,
    each size that succeeds writes its results there; nothing is deleted.
    """
    if not docs:
        raise RagBenchError("sweep needs a non-empty corpus")
    if not qa_set:
        raise RagBenchError("sweep needs a non-empty QA set")
    memo: dict[str, np.ndarray] = {}

    def embed_batch(texts):
        missing = list(dict.fromkeys(t for t in texts if t and t not in memo))
        try:
            memo.update(zip(missing, embed_single_fn(missing) if missing else ()))
        except RagBenchError:
            pass  # vector() then embeds each text for the item that needs it

    def vector(text):
        vec = memo.get(text)
        if vec is None:
            memo[text] = vec = embed_single_fn([text])[0]
        return vec

    embed_batch([qa.question for qa in qa_set] + [qa.ground_truth for qa in qa_set])

    def answer(qa, hits):
        return answer_question(qa.question, hits, generate_fn, app.rag)

    def score(qa, record):
        return answer_correctness(record.answer, qa, vector, app.metric, judge)

    # a stage maps each size to (its items' outcomes, its error before them);
    # without keep_going, one _Stage per stage stops every size's later items
    pool = ThreadPoolExecutor(max_workers=concurrency) if concurrency > 1 else None
    try:
        answering, tail_rows = {}, {}
        vectors, vectors_error = _collect(qa_set, _submit(None, lambda qa: vector(qa.question),
                                                          qa_set))
        answers_stage = None if keep_going else _Stage()
        for size in app.chunk_sizes:
            error = vectors_error
            try:
                hits = build_index(docs, size, app.overlap, embed_texts_fn,
                                   tail_rows).query_topk(vectors, app.rag.top_k)
            except RagBenchError as exc:
                hits, error = [], exc
            answering[size] = _submit(pool, answer, qa_set, hits, stage=answers_stage), error
            if not keep_going and (error is not None or answers_stage.failed):
                break
        records = {}
        for size, (outcomes, error) in answering.items():
            done, error = records[size] = _collect(qa_set, outcomes, error)
            if error is not None and not keep_going:
                break
        embed_batch([r.answer for done, _ in records.values() for r in done])
        scores_stage = None if keep_going else _Stage()
        scoring = {size: (_submit(pool, score, qa_set, done, stage=scores_stage), error)
                   for size, (done, error) in records.items()}
        rows, per_question = [], {}
        for size, (outcomes, error) in scoring.items():
            results, error = _collect(qa_set, outcomes, error)
            if error is not None:
                if not keep_going:
                    raise error
                rows.append(SweepRow(size, 0.0, 0, failed=True, error=str(error)))
                continue
            scores = [r.answer_correctness for r in results]
            rows.append(SweepRow(size, sum(scores) / len(scores), len(scores)))
            per_question[size] = results
            if out_dir is not None:
                _dump_size_results(out_dir, size, results)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return SweepReport(rows, per_question)


def build_index(docs, size, overlap, embed_texts_fn,
                tail_rows: dict[str, np.ndarray]) -> Index:
    """Chunk at size and index the chunks with one row per distinct text,
    embedding once each text that tail_rows lacks.

    tail_rows maps the text of every chunk that ends its document to a copy
    of its row. Windows are fixed, so only such a chunk can recur at another
    size; a copy lets the embedder's block arrays be freed with the index.
    Index reads new rows and tail_rows through a ChainMap, which copies neither."""
    chunks = chunk_corpus(docs, ChunkConfig(size=size, overlap=overlap))
    missing = [t for t in dict.fromkeys(c.text for c in chunks) if t not in tail_rows]
    fresh = dict(zip(missing, embed_texts_fn(missing))) if missing else {}
    # a chunk ends its document when the next one starts another (seq 0);
    # keeping only these rows is what holds memory down: a memo of every
    # text's row across sizes raised offline-sweep's peak_rss_mb 43.12 ->
    # 44.94 MB (+4.2%) in 3 of 3 perfbench pairs
    for c, nxt in zip(chunks, chunks[1:] + [None]):
        if (nxt is None or nxt.ref[1] == 0) and c.text not in tail_rows:
            tail_rows[c.text] = fresh[c.text].copy()
    return Index(chunks, ChainMap(fresh, tail_rows))


@dataclass
class _Stage:
    """Numbers the items submitted to it in queue order and lists the
    numbers of those that failed."""
    numbers: Iterator[int] = field(default_factory=itertools.count)
    failed: list[int] = field(default_factory=list)


def _submit(pool, fn, qa_set: list, *columns: list, stage=None) -> list:
    """Start fn(qa, *its values in columns) for each QA item in input order,
    on pool or else in this thread; a column shorter than qa_set ends the
    items. Returns each item's outcome, or a future of it: fn's result, the
    RagBenchError it raised, or None if an item submitted earlier to stage
    (shared by the calls that one failure stops, or None for a new one) had
    failed when it started. A failing item records its failure in stage, and
    one that raises any other exception also re-raises it. Threads may reach
    items out of queue order, so a later item's failure skips no earlier one.
    """
    stage = _Stage() if stage is None else stage

    def run(seq, *item):
        try:
            return None if min(stage.failed, default=seq) < seq else fn(*item)
        except Exception as exc:
            stage.failed.append(seq)
            if isinstance(exc, RagBenchError):
                return exc
            raise

    items = zip(stage.numbers, qa_set, *columns)
    if pool is None:  # a Future costs more than a cheap item
        return [run(*item) for item in items]
    return [pool.submit(run, *item) for item in items]


def _collect(qa_set: list, outcomes: list, error=None):
    """(results of _submit's items in input order up to the first that
    failed, its error tagged in place with its item's id by errors.tag_qa,
    or else error)."""
    results = []
    for qa, outcome in zip(qa_set, outcomes):
        outcome = outcome.result() if isinstance(outcome, Future) else outcome
        if isinstance(outcome, RagBenchError):
            tag_qa(outcome, qa.id)
            return results, outcome
        results.append(outcome)
    return results, error
