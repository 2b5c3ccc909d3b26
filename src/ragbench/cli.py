"""Corpus-evaluation harness for RAG chunk-size experiments: ingest corpora,
ask one-shot questions, and run chunk-size sweeps.

Exit codes: 0 success, 1 usage/config error, 2 data/runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
import tempfile
from pathlib import Path

from . import corpus as corpus_mod
from . import embed as embed_mod
from ._http import MAX_CONCURRENCY
from .config import AppConfig, load_app_config
from .embed import embed_texts
from .errors import InvalidConfig, RagBenchError
from .llm import generate, make_cached_fn, mock_generate
from .metrics import LexicalJudge, RemoteJudge, load_qa_jsonl
from .rag import answer_question
from .report import clear, emit_csv, emit_svg, summary_lines
from .sweep import build_index, run_sweep

CACHE_DIR_ENV = "RAGBENCH_CACHE_DIR"


def _resolve_app(config_path: str | None, cache_dir: str | None, *,
                 backend: str | None = None, sizes: list[int] | None = None,
                 overlap: int | None = None, top_k: int | None = None) -> AppConfig:
    """The command's settings: the config file's, or the defaults, with the
    flags given (not None) applied. backend sets embedder.kind; the cache dir
    comes from the flag, then the environment, then the file; rag.model
    defaults to llm_model."""
    app = load_app_config(config_path) if config_path else AppConfig()
    return dataclasses.replace(
        app, chunk_sizes=app.chunk_sizes if sizes is None else sizes,
        overlap=app.overlap if overlap is None else overlap,
        embedder=dataclasses.replace(app.embedder, kind=backend or app.embedder.kind),
        rag=dataclasses.replace(app.rag, top_k=app.rag.top_k if top_k is None else top_k,
                                model=app.rag.model or app.llm_model),
        cache_dir=(os.environ.get(CACHE_DIR_ENV) or app.cache_dir) if cache_dir is None
        else cache_dir)


@contextlib.contextmanager
def _make_backends(app: AppConfig):
    """Yield (embed_texts_fn, embed_single_fn, generate_fn, judge,
    concurrency) for app's embedder.kind and metric.judge. Chunk texts go
    through this module's embed_texts, single texts through the embed
    module's, so that perfbench's tracer times the two apart. Every remote
    reply goes through the response store in app.cache_dir, or without one
    in a temporary directory removed on exit; the offline backend is never
    cached.

    concurrency is how many QA items a sweep answers at once: remote calls
    mostly wait on the network, so MAX_CONCURRENCY of them overlap; offline,
    threads computing under the interpreter lock would only add switching.
    """
    with contextlib.ExitStack() as stack:
        if app.embedder.kind == "offline":
            cache_dir, generate_fn, concurrency = None, mock_generate, 1
        else:
            cache_dir = app.cache_dir or stack.enter_context(tempfile.TemporaryDirectory())
            # a remote embedder always has an endpoint_url (EmbedderConfig checks)
            endpoint = app.llm_endpoint_url or app.embedder.endpoint_url
            generate_fn = make_cached_fn(lambda req: generate(req, endpoint), cache_dir,
                                         endpoint=endpoint)
            concurrency = MAX_CONCURRENCY
        judge = (RemoteJudge(generate_fn, model=app.llm_model) if app.metric.judge == "remote"
                 else LexicalJudge(app.metric.jaccard_threshold))
        yield ((lambda texts: embed_texts(texts, app.embedder, cache_dir)),
               (lambda texts: embed_mod.embed_texts(texts, app.embedder, cache_dir)),
               generate_fn, judge, concurrency)


def cmd_ingest(fmt, in_path, out_path, do_dedup, strict):
    """Parse a source corpus into the document store JSONL."""
    skipped = 0
    if fmt == "reddit-jsonl":
        with open(in_path, "rb") as f:
            docs, skipped = corpus_mod.parse_reddit_jsonl(f, lenient=not strict)
    else:
        docs = corpus_mod.ingest_text_dir(in_path)
    kept = corpus_mod.dedup(docs) if do_dedup else docs
    corpus_mod.save_corpus(kept, out_path)
    print(f"in={len(docs)} kept={len(kept)} "
          f"duplicates_removed={len(docs) - len(kept)} "
          f"lines_skipped={skipped}", file=sys.stderr)


def cmd_ask(corpus_path, question, chunk_size, overlap, top_k, backend,
            config_path, cache_dir):
    """Answer one question against a corpus and print provenance."""
    if not question.strip():
        raise InvalidConfig("--question must not be blank")
    app = _resolve_app(config_path, cache_dir, backend=backend, sizes=[chunk_size],
                       overlap=overlap, top_k=top_k)
    with _make_backends(app) as (embed_texts_fn, embed_single_fn, generate_fn, _, _):
        index = build_index(corpus_mod.load_corpus(corpus_path), app.chunk_sizes[0],
                            app.overlap, embed_texts_fn, {})
        hits = index.query_topk(embed_single_fn([question])[0], app.rag.top_k)
        record = answer_question(question, hits, generate_fn, app.rag)
    print(record.answer)
    print()
    print("retrieved:")
    for ref, score in record.retrieved:
        print(f"  {ref[0]}#{ref[1]}  score={score:.6f}")


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise InvalidConfig(f"bad --sizes value {text!r}") from exc


def cmd_sweep(corpus_path, qa_path, sizes, out_dir, overlap, backend,
              config_path, cache_dir, keep_going):
    """Run the chunk-size sweep; write per-size results and reports to --out."""
    app = _resolve_app(config_path, cache_dir, backend=backend,
                       sizes=None if sizes is None else _parse_sizes(sizes), overlap=overlap)
    if app.metric.judge == "remote" and app.embedder.kind == "offline":
        # the mock backend echoes prompts, so it cannot answer a judge prompt
        raise InvalidConfig('metric.judge "remote" needs the remote backend')
    out = Path(out_dir)
    with _make_backends(app) as (embed_texts_fn, embed_single_fn, generate_fn, judge,
                                 concurrency):
        # outputs of an earlier run must not outlive a sweep that fails
        clear(out)
        docs = corpus_mod.load_corpus(corpus_path)
        qa_set = load_qa_jsonl(qa_path)
        out.mkdir(parents=True, exist_ok=True)
        report = run_sweep(docs, qa_set, app,
                           embed_texts_fn=embed_texts_fn, embed_single_fn=embed_single_fn,
                           generate_fn=generate_fn, judge=judge,
                           keep_going=keep_going, out_dir=out,
                           concurrency=concurrency)
    emit_csv(report, out)
    emit_svg(report, out)
    for line in summary_lines(report):
        print(line, file=sys.stderr)


def _parser() -> argparse.ArgumentParser:
    # --help but no -h, and no abbreviated flags, on every (sub)command
    help_only = argparse.ArgumentParser(add_help=False)
    help_only.add_argument("--help", action="help", help="show this message and exit")
    common = dict(add_help=False, allow_abbrev=False, parents=[help_only])
    parser = argparse.ArgumentParser(prog="ragbench", description=__doc__, **common)
    commands = parser.add_subparsers(metavar="command", required=True)

    def command(name, run):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, **common)
        sub.set_defaults(run=run)
        return sub

    ingest = command("ingest", cmd_ingest)
    ingest.add_argument("--format", dest="fmt", required=True,
                        choices=["reddit-jsonl", "textdir"])
    ingest.add_argument("--in", dest="in_path", required=True)
    ingest.add_argument("--out", dest="out_path", required=True)
    ingest.add_argument("--dedup", dest="do_dedup", default=True,
                        action=argparse.BooleanOptionalAction)
    ingest.add_argument("--strict", action="store_true")

    ask, sweep = command("ask", cmd_ask), command("sweep", cmd_sweep)
    for sub in (ask, sweep):
        sub.add_argument("--corpus", dest="corpus_path", required=True)
    ask.add_argument("--question", required=True)
    ask.add_argument("--chunk-size", type=int, default=1000, help="default: %(default)s")
    ask.add_argument("--top-k", type=int)
    sweep.add_argument("--qa", dest="qa_path", required=True)
    sweep.add_argument("--sizes", help="comma-separated chunk sizes")
    sweep.add_argument("--out", dest="out_dir", required=True)
    sweep.add_argument("--keep-going", action="store_true")

    for sub in (ask, sweep):
        sub.add_argument("--overlap", type=int, help="default: the config's overlap")
        sub.add_argument("--backend", choices=["offline", "remote"],
                         help="default: the config's embedder.kind")
        sub.add_argument("--config", dest="config_path")
        sub.add_argument("--cache-dir")
    return parser


# built once, at import: the first build costs milliseconds of gettext and regex setup
_PARSER = _parser()


def main(argv=None) -> int:
    try:
        args = vars(_PARSER.parse_args(argv))
    except SystemExit as exc:  # --help exits 0, a bad command line 2
        return 0 if exc.code == 0 else 1
    try:
        args.pop("run")(**args)
        return 0
    except InvalidConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except RagBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
