"""Command-line entry point: ingest corpora, ask one-shot questions, and run
chunk-size sweeps.

Exit codes: 0 success, 1 usage/config error, 2 data/runtime error.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from pathlib import Path

import click

from . import corpus as corpus_mod
from .config import AppConfig, load_app_config
from .embed import embed_texts, make_embed_fn
from .errors import InvalidConfig, RagBenchError
from .llm import LlmConfig, generate, make_cached_fn, mock_generate
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
    comes from the environment, then the flag, then the file; rag.model
    defaults to llm_model."""
    app = load_app_config(config_path) if config_path else AppConfig()
    return dataclasses.replace(
        app, chunk_sizes=app.chunk_sizes if sizes is None else sizes,
        overlap=app.overlap if overlap is None else overlap,
        embedder=dataclasses.replace(app.embedder, kind=backend or app.embedder.kind),
        rag=dataclasses.replace(app.rag, top_k=app.rag.top_k if top_k is None else top_k,
                                model=app.rag.model or app.llm_model),
        cache_dir=os.environ.get(CACHE_DIR_ENV) or cache_dir or app.cache_dir)


def _make_backends(app: AppConfig):
    """Return (embed_texts_fn, embed_fn, generate_fn, judge, concurrency)
    for app's embedder.kind and metric.judge.

    concurrency is how many QA items a sweep answers at once. Remote calls
    mostly wait on the network, so they overlap up to the LLM's
    max_concurrency; the offline backend computes in Python under the
    interpreter lock, where threads would only add switching, so it runs
    one item at a time.
    """
    if app.embedder.kind == "offline":
        generate_fn, endpoint_tag, concurrency = mock_generate, "mock", 1
    else:
        # a remote embedder always has an endpoint_url (EmbedderConfig checks)
        llm_cfg = LlmConfig(endpoint_url=app.llm_endpoint_url or app.embedder.endpoint_url)
        generate_fn = lambda req: generate(req, llm_cfg)
        endpoint_tag, concurrency = llm_cfg.endpoint_url, llm_cfg.max_concurrency
    if app.cache_dir:
        generate_fn = make_cached_fn(generate_fn, app.cache_dir, endpoint=endpoint_tag)

    judge = (RemoteJudge(generate_fn, model=app.llm_model) if app.metric.judge == "remote"
             else LexicalJudge(app.metric.jaccard_threshold))

    return ((lambda texts: embed_texts(texts, app.embedder, app.cache_dir)),
            make_embed_fn(app.embedder, app.cache_dir), generate_fn, judge, concurrency)


@click.group()
def cli():
    """Corpus-evaluation harness for RAG chunk-size experiments."""


@cli.command("ingest")
@click.option("--format", "fmt", type=click.Choice(["reddit-jsonl", "textdir"]),
              required=True)
@click.option("--in", "in_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--dedup/--no-dedup", "do_dedup", default=True)
@click.option("--strict", is_flag=True, default=False)
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
    click.echo(
        f"in={len(docs)} kept={len(kept)} "
        f"duplicates_removed={len(docs) - len(kept)} "
        f"lines_skipped={skipped}",
        err=True,
    )


@cli.command("ask")
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--question", required=True)
@click.option("--chunk-size", type=int, default=1000, show_default=True)
@click.option("--overlap", type=int, default=None, help="default: the config's overlap")
@click.option("--top-k", type=int, default=None)
@click.option("--backend", type=click.Choice(["offline", "remote"]),
              default=None, help="default: the config's embedder.kind")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--cache-dir", default=None)
def cmd_ask(corpus_path, question, chunk_size, overlap, top_k, backend,
            config_path, cache_dir):
    """Answer one question against a corpus and print provenance."""
    app = _resolve_app(config_path, cache_dir, backend=backend, sizes=[chunk_size],
                       overlap=overlap, top_k=top_k)
    embed_texts_fn, embed_fn, generate_fn, _, _ = _make_backends(app)

    index = build_index(corpus_mod.load_corpus(corpus_path), app.chunk_sizes[0],
                        app.overlap, embed_texts_fn, {})
    hits = index.query_topk(embed_fn(question), app.rag.top_k)
    record = answer_question(question, hits, generate_fn, app.rag)
    click.echo(record.answer)
    click.echo("")
    click.echo("retrieved:")
    for ref, score in record.retrieved:
        click.echo(f"  {ref[0]}#{ref[1]}  score={score:.6f}")


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise InvalidConfig(f"bad --sizes value {text!r}") from exc


@cli.command("sweep")
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--qa", "qa_path", required=True, type=click.Path())
@click.option("--sizes", default=None, help="comma-separated chunk sizes")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--overlap", type=int, default=None)
@click.option("--backend", type=click.Choice(["offline", "remote"]),
              default=None, help="default: the config's embedder.kind")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--cache-dir", default=None)
@click.option("--keep-going", is_flag=True, default=False)
def cmd_sweep(corpus_path, qa_path, sizes, out_dir, overlap, backend,
              config_path, cache_dir, keep_going):
    """Run the chunk-size sweep; write per-size results and reports to --out."""
    app = _resolve_app(config_path, cache_dir, backend=backend,
                       sizes=_parse_sizes(sizes) if sizes else None, overlap=overlap)
    if app.metric.judge == "remote" and app.embedder.kind == "offline":
        # the mock backend echoes prompts, so it cannot answer a judge prompt
        raise InvalidConfig('metric.judge "remote" needs the remote backend')
    embed_texts_fn, embed_fn, generate_fn, judge, concurrency = _make_backends(app)

    out = Path(out_dir)
    # outputs of an earlier run must not outlive a sweep that fails
    clear(out)
    docs = corpus_mod.load_corpus(corpus_path)
    qa_set = load_qa_jsonl(qa_path)
    out.mkdir(parents=True, exist_ok=True)
    report = run_sweep(docs, qa_set, app,
                       embed_texts_fn=embed_texts_fn, embed_fn=embed_fn,
                       generate_fn=generate_fn, judge=judge,
                       keep_going=keep_going, out_dir=out,
                       concurrency=concurrency)
    emit_csv(report, out)
    emit_svg(report, out)
    for line in summary_lines(report):
        click.echo(line, err=True)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except (click.UsageError, click.BadParameter) as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except InvalidConfig as exc:
        click.echo(f"config error: {exc}", err=True)
        return 1
    except RagBenchError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except OSError as exc:
        click.echo(f"io error: {exc}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
