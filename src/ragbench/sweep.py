"""Chunk-size sweep: for each size, rebuild the index, answer the QA set
and score it. report.py holds what a sweep returns and writes."""

from __future__ import annotations

from collections import ChainMap
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Callable

import numpy as np

from .chunker import chunk_corpus
from .config import AppConfig
from .corpus import Document
from .errors import RagBenchError, tag_qa
from .metrics import EvalResult, QAItem, answer_correctness
from .rag import answer_question
from .report import SweepReport, SweepRow, _dump_size_results
from .vectorstore import Index


def run_sweep(docs: list[Document], qa_set: list[QAItem], app: AppConfig, *,
              embed_texts_fn: Callable[[list[str]], list[np.ndarray]],
              embed_single_fn: Callable[[list[str]], list[np.ndarray]],
              generate_fn,
              judge,
              out_dir: str | Path | None = None,
              concurrency: int = 1) -> SweepReport:
    """Run the experiment over every chunk size of app, with its rag and
    metric settings; its backend and cache settings are the caller's to
    turn into the functions and the judge passed here.

    embed_texts_fn batch-embeds chunk texts, embed_single_fn the single
    texts: questions, ground truths and answers. The sweep embeds each
    single text once, in two batches: the questions and ground truths, then
    the answers it has not seen. If a batch raises a RagBenchError, each
    item embeds its own texts as it needs them, so an item still raises its
    own error, and items on two threads may each embed a text they share.

    The sweep takes the question rows once. For each size in turn it then
    chunks and embeds the chunks (a text embedded at one size is not
    embedded again), retrieves every item's chunks with one query_topk call
    and starts answering. It scores every size's items last, each distinct
    (item, answer) once: sizes that give an item one answer share its
    result. With concurrency > 1, items run on one pool of that many
    threads, so a size is answered while the next is chunked and embedded,
    and two threads may score one pair; embed_single_fn, generate_fn and
    judge must then be thread-safe. Results and errors are those of one item
    at a time through every step: a size raises its earliest error in input
    order, tagged (errors.tag_qa) with its item's id. An error of the size's
    own, as a question row whose dim is not its index's, is untagged and
    answers no item. A failed item skips every later item that has not
    started, and no later size is built. With out_dir, each size that
    succeeds writes its results there; nothing is deleted.
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

    # (qa, answer): its result, for every size that gives qa that answer. An
    # error is not kept. Threads that race on one pair compute equal results.
    # Sizes share the object, so a per-size field must copy it on a hit
    scored: dict[tuple[QAItem, str], EvalResult] = {}

    def score(qa, record):
        key = qa, record.answer
        if key not in scored:
            scored[key] = answer_correctness(record.answer, qa, vector, app.metric, judge)
        return scored[key]

    # a stage maps each size to (its items' outcomes, its error before them).
    # One failure list stops both stages' later items: only items answered
    # before any answer failed are scored, at lower keys
    pool = ThreadPoolExecutor(max_workers=concurrency) if concurrency > 1 else None
    try:
        answering, tail_rows = {}, {}
        vectors, vectors_error = _collect(qa_set, _submit(None, lambda qa: vector(qa.question),
                                                          qa_set))
        failed = []
        for size in app.chunk_sizes:
            error = vectors_error
            try:
                hits = build_index(docs, size, embed_texts_fn,
                                   tail_rows).query_topk(vectors, app.rag.top_k)
            except RagBenchError as exc:
                hits, error = [], exc
            answering[size] = _submit(pool, answer, qa_set, hits, failed=failed,
                                      size=size), error
            if error is not None or failed:
                break
        records = {}
        for size, (outcomes, error) in answering.items():
            done, error = records[size] = _collect(qa_set, outcomes, error)
            if error is not None:
                break
        embed_batch([r.answer for done, _ in records.values() for r in done])
        scoring = {size: (_submit(pool, score, qa_set, done, failed=failed, size=size), error)
                   for size, (done, error) in records.items()}
        rows, per_question = [], {}
        for size, (outcomes, error) in scoring.items():
            results, error = _collect(qa_set, outcomes, error)
            if error is not None:
                raise error
            scores = [r.answer_correctness for r in results]
            rows.append(SweepRow(size, sum(scores) / len(scores), len(scores)))
            per_question[size] = results
            if out_dir is not None:
                _dump_size_results(out_dir, size, results)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return SweepReport(rows, per_question)


def build_index(docs, size, embed_texts_fn, tail_rows: dict[str, np.ndarray]) -> Index:
    """Chunk at size and index the chunks with one row per distinct text,
    embedding once each text that tail_rows lacks.

    tail_rows maps the text of every chunk that ends its document to a copy
    of its row. Windows are fixed, so only such a chunk can recur at another
    size; a copy lets the embedder's block arrays be freed with the index.
    Index reads new rows and tail_rows through a ChainMap, which copies neither."""
    chunks = chunk_corpus(docs, size)
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


def _submit(pool, fn, qa_set: list, *columns: list, failed=None, size=0) -> list:
    """Start fn(qa, *its values in columns) for each QA item in input order,
    on pool or else in this thread; a column shorter than qa_set ends the
    items. Returns each item's outcome, or a future of it: fn's result, the
    RagBenchError it raised, or None if a key in failed (shared by the calls
    that one failure stops, or None for a new list) was below the item's
    key, (size, input index), when it started. A failing item adds its key
    to failed, and one that raises any other exception also re-raises it.
    Sizes are submitted in increasing order, so keys follow queue order;
    threads may reach items out of it, so a later failure skips no earlier item.
    """
    failed = [] if failed is None else failed

    def run(key, *item):
        try:
            return None if min(failed, default=key) < key else fn(*item)
        except Exception as exc:
            failed.append(key)
            if isinstance(exc, RagBenchError):
                return exc
            raise

    items = enumerate(zip(qa_set, *columns))
    # a Future costs more than a cheap item: pooling at concurrency 1 cost 1.3-2.2 MB peak RSS
    if pool is None:
        return [run((size, i), *item) for i, item in items]
    return [pool.submit(run, (size, i), *item) for i, item in items]


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
