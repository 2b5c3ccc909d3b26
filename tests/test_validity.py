"""Does the verdict measure the data source? An ablation on the benchmark's
offline-sweep inputs: the same corpus with every ground-truth sentence
deleted must score lower at every chunk size, offline, than the full one.

The gaps are small (about 0.001 to 0.03), because the offline hash embedder
misses most ground truths, but their sign must hold. Context recall, which
would show the gap where retrieval happens, is not measured yet."""

import csv
import sys
from pathlib import Path

import pytest

from ragbench.cli import main

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
