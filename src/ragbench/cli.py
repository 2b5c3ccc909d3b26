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
from .sweep import SweepConfig, build_index, emit_csv, emit_svg, run_sweep

CACHE_DIR_ENV = "RAGBENCH_CACHE_DIR"


def _resolve_cache_dir(flag_value: str | None, app: AppConfig) -> str:
    return os.environ.get(CACHE_DIR_ENV) or flag_value or app.cache_dir


def _load_app(config_path: str | None) -> AppConfig:
    return load_app_config(config_path) if config_path else AppConfig()


def _make_backends(app: AppConfig, backend: str | None, cache_dir: str):
    """Return (embed_texts_fn, embed_fn, generate_fn, judge, concurrency)
    for a backend, by default the config's embedder.kind.

    concurrency is how many QA items a sweep answers at once. Remote calls
    mostly wait on the network, so they overlap up to the LLM's
    max_concurrency; the offline backend computes in Python under the
    interpreter lock, where threads would only add switching, so it runs
    one item at a time.
    """
    if (backend or app.embedder.kind) == "offline":
        emb_cfg = dataclasses.replace(app.embedder, kind="offline")
        base_generate = mock_generate
        endpoint_tag = "mock"
        concurrency = 1
    else:
        emb_cfg = dataclasses.replace(app.embedder, kind="remote")
        if not emb_cfg.endpoint_url:
            raise InvalidConfig("remote backend requires an embedder endpoint_url")
        llm_cfg = LlmConfig(endpoint_url=app.llm_endpoint_url or emb_cfg.endpoint_url,
                            model=app.llm_model)
        if not llm_cfg.endpoint_url:
            raise InvalidConfig("remote backend requires an LLM endpoint url")
        base_generate = lambda req: generate(req, llm_cfg)
        endpoint_tag = llm_cfg.endpoint_url
        concurrency = llm_cfg.max_concurrency

    generate_fn = base_generate
    if cache_dir:
        generate_fn = make_cached_fn(base_generate, cache_dir, endpoint=endpoint_tag)

    if app.metric.judge == "remote":
        judge = RemoteJudge(generate_fn, model=app.llm_model)
    else:
        judge = LexicalJudge(app.metric.jaccard_threshold)

    embed_fn = make_embed_fn(emb_cfg, cache_dir)
    return ((lambda texts: embed_texts(texts, emb_cfg, cache_dir)), embed_fn, generate_fn,
            judge, concurrency)


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
    if fmt == "reddit-jsonl":
        with open(in_path, "rb") as f:
            docs, stats = corpus_mod.parse_reddit_jsonl(f, lenient=not strict)
    else:
        docs = corpus_mod.ingest_text_dir(in_path)
        stats = corpus_mod.CorpusStats(documents_in=len(docs),
                                       documents_kept=len(docs))
    if do_dedup:
        docs, dstats = corpus_mod.dedup(docs)
        stats.documents_kept = dstats.documents_kept
        stats.duplicates_removed = dstats.duplicates_removed
    corpus_mod.save_corpus(docs, out_path)
    click.echo(
        f"in={stats.documents_in} kept={stats.documents_kept} "
        f"duplicates_removed={stats.duplicates_removed} "
        f"lines_skipped={stats.lines_skipped}",
        err=True,
    )


@cli.command("ask")
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--question", required=True)
@click.option("--chunk-size", type=int, default=1000, show_default=True)
@click.option("--overlap", type=int, default=0, show_default=True)
@click.option("--top-k", type=int, default=None)
@click.option("--backend", type=click.Choice(["offline", "remote"]),
              default=None, help="default: the config's embedder.kind")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--cache-dir", default=None)
def cmd_ask(corpus_path, question, chunk_size, overlap, top_k, backend,
            config_path, cache_dir):
    """Answer one question against a corpus and print provenance."""
    app = _load_app(config_path)
    if top_k is not None:
        app.rag = dataclasses.replace(app.rag, top_k=top_k)
    cache = _resolve_cache_dir(cache_dir, app)
    embed_texts_fn, embed_fn, generate_fn, _, _ = _make_backends(app, backend, cache)

    index = build_index(corpus_mod.load_corpus(corpus_path), chunk_size, overlap,
                        embed_texts_fn, {})
    hits = index.query_topk(embed_fn(question), app.rag.top_k)
    record = answer_question(question, hits, generate_fn, app.rag)
    click.echo(record.answer)
    click.echo("")
    click.echo("retrieved:")
    for ref, score in record.retrieved:
        click.echo(f"  {ref[0]}#{ref[1]}  score={score:.6f}")


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise InvalidConfig(f"bad --sizes value {text!r}") from exc
    return sizes


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
    """Run the chunk-size sweep and write report.csv / report.svg."""
    app = _load_app(config_path)
    chunk_sizes = _parse_sizes(sizes) if sizes else app.chunk_sizes
    cfg = SweepConfig(chunk_sizes=chunk_sizes,
                      overlap=app.overlap if overlap is None else overlap,
                      rag=app.rag, metric=app.metric)
    cache = _resolve_cache_dir(cache_dir, app)
    embed_texts_fn, embed_fn, generate_fn, judge, concurrency = \
        _make_backends(app, backend, cache)

    out = Path(out_dir)
    # reports of an earlier run must not outlive a sweep that fails
    for name in ("report.csv", "report.svg"):
        (out / name).unlink(missing_ok=True)
    docs = corpus_mod.load_corpus(corpus_path)
    qa_set = load_qa_jsonl(qa_path)
    out.mkdir(parents=True, exist_ok=True)
    report = run_sweep(docs, qa_set, cfg,
                       embed_texts_fn=embed_texts_fn, embed_fn=embed_fn,
                       generate_fn=generate_fn, judge=judge,
                       keep_going=keep_going, out_dir=out,
                       concurrency=concurrency)
    emit_csv(report, out / "report.csv")
    emit_svg(report, out / "report.svg")
    for row in report.rows:
        status = "FAILED" if row.failed else f"mean={row.mean_correctness:.6f} n={row.n}"
        click.echo(f"chunk_size={row.chunk_size} {status}", err=True)
    click.echo(f"argmax_sizes={report.argmax_sizes}", err=True)


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
