"""Does the verdict measure the data source? An ablation on the benchmark's
offline-sweep inputs: the same corpus with every ground-truth sentence
deleted must score lower at every chunk size, offline, than the full one.
And a repost of every document, as Reddit is full of, must change no
answer: a repeated text takes one top-k slot and one place in the prompt.

The gaps are small (about 0.001 to 0.03), because the offline hash embedder
misses most ground truths, but their sign must hold. Context recall, which
would show the gap where retrieval happens, is not measured yet."""

import csv
import sys
from pathlib import Path

import numpy as np
import pytest

from ragbench.cli import main
from ragbench.corpus import load_corpus
from ragbench.embed import embed_offline_batch
from ragbench.rag import RagConfig, assemble_prompt
from ragbench.sweep import build_index

# perfbench/run.py imports its sibling gen.py as a top-level module
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402
import run as perfbench  # noqa: E402

WORKLOAD = perfbench.WORKLOADS["offline-sweep"]


def without_ground_truths(docs: list[dict], qa: list[dict]) -> list[dict]:
    """A copy of docs with every QA item's ground-truth sentence cut from
    each body that holds it."""
    truths = {item["ground_truth"] for item in qa}
    ablated = []
    for doc in docs:
        body = doc["body"]
        for truth in truths:
            body = body.replace(truth, "")
        ablated.append({**doc, "body": " ".join(body.split())})
    return ablated


def mean_correctness(work: Path, docs: list[dict], qa: list[dict]) -> dict[int, float]:
    """Sweep docs and qa offline at the workload's sizes; report.csv's mean
    correctness per size."""
    work.mkdir()
    gen.write_jsonl(docs, work / "corpus.jsonl")
    gen.write_jsonl(qa, work / "qa.jsonl")
    assert main(["sweep", "--corpus", str(work / "corpus.jsonl"),
                 "--qa", str(work / "qa.jsonl"), "--backend", "offline",
                 "--sizes", ",".join(map(str, WORKLOAD.sizes)),
                 "--out", str(work / "out")]) == 0
    with open(work / "out" / "report.csv", newline="") as f:
        return {int(row["chunk_size"]): float(row["mean_correctness"])
                for row in csv.DictReader(f)}


@pytest.mark.parametrize("seed", [0, 5])
def test_corpus_without_the_ground_truths_scores_lower_at_every_size(tmp_path, seed):
    docs, qa = gen.generate(seed, WORKLOAD.n_docs, WORKLOAD.n_qa)
    ablated = without_ground_truths(docs, qa)
    for doc in ablated:
        assert doc["body"]
        assert not any(item["ground_truth"] in doc["body"] for item in qa)
    full = mean_correctness(tmp_path / "full", docs, qa)
    cut = mean_correctness(tmp_path / "ablated", ablated, qa)
    assert list(full) == list(cut) == WORKLOAD.sizes
    for size in WORKLOAD.sizes:
        assert full[size] > cut[size], f"size {size}: {full[size]} <= {cut[size]}"


def test_reposted_text_takes_one_slot(tmp_path, capsys):
    docs, qa = gen.generate(perfbench.DEFAULT_SEED, WORKLOAD.n_docs, WORKLOAD.n_qa)
    reposted = docs + [{**d, "id": d["id"] + "-repost"} for d in docs]
    gen.write_jsonl(reposted, tmp_path / "corpus.jsonl")
    for item in qa[:3]:
        assert main(["ask", "--corpus", str(tmp_path / "corpus.jsonl"),
                     "--question", item["question"], "--backend", "offline"]) == 0
        lines = capsys.readouterr().out.split("retrieved:\n")[1].splitlines()
        # four texts, each "  d00058#1  score=0.501014  also=d00058-repost#1"
        refs = [line.split()[0] for line in lines]
        assert len(refs) == 4 and not any("-repost#" in ref for ref in refs)
        assert [line.split()[2:] for line in lines] == \
            [[f"also={ref.replace('#', '-repost#')}"] for ref in refs]
    # and at every size, for every question, no text is in a prompt twice
    corpus = load_corpus(tmp_path / "corpus.jsonl")
    queries = np.stack(embed_offline_batch([item["question"] for item in qa]))
    for size in WORKLOAD.sizes:
        index = build_index(corpus, size, embed_offline_batch, {})
        for item, hits in zip(qa, index.query_topk(queries, RagConfig().top_k)):
            _, n_used = assemble_prompt(item["question"], hits, RagConfig())
            texts = [h.text for h in hits[:n_used]]
            assert len(set(texts)) == len(texts) == n_used > 0


def test_reposting_every_document_changes_no_answer(tmp_path):
    docs, qa = gen.generate(perfbench.DEFAULT_SEED, WORKLOAD.n_docs, WORKLOAD.n_qa)
    reposted = docs + [{**d, "id": d["id"] + "-repost"} for d in docs]
    assert mean_correctness(tmp_path / "reposted", reposted, qa) == \
        mean_correctness(tmp_path / "once", docs, qa)
    for name in ["report.csv"] + [f"{size}/results.jsonl" for size in WORKLOAD.sizes]:
        assert (tmp_path / "reposted" / "out" / name).read_bytes() == \
            (tmp_path / "once" / "out" / name).read_bytes(), name
