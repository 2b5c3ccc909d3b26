"""The default outputs, pinned. A sweep of the benchmark's synthetic
workloads must reproduce its seed-0 digests (PINNED in perfbench/run.py)
and the sha256 of every output file at the held-out seed 13. Reordering
the input lines, or renaming the documents with their order kept, must not
change the report or any question's result."""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from ragbench.cli import main

# perfbench/run.py imports its sibling gen.py as a top-level module
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402
import run as perfbench  # noqa: E402

OFFLINE = ["offline-sweep", "offline-qa-heavy"]
HELD_OUT_SEED = 13

# sha256 of every file a sweep writes at HELD_OUT_SEED
SEED_13 = {
    "offline-sweep": {
        "250/results.jsonl": "40969f1f45d63c726a89a37146c913f3fccd4a1c87cba70a716ef3d05add11a4",
        "500/results.jsonl": "47f6e6d627a24d5c7a8899a0ac9573267ac849c10bcd8ace2b606bba5ded9170",
        "1000/results.jsonl": "663ed02e8b91b94189ef68c882cb5dcf5245de9e84b33b5f044d0ad2c87e7512",
        "2000/results.jsonl": "c439919451cc88504b568d38c80b37b3594b02867e023ef38ac228603e73a123",
        "4000/results.jsonl": "8b6445bc1e5cd1cd66090b8095d77d56c7ac2812adb3c245e162d1e48626d80a",
        "8000/results.jsonl": "8b6445bc1e5cd1cd66090b8095d77d56c7ac2812adb3c245e162d1e48626d80a",
        "report.csv": "7e5b96571359d05dfc0bd14cc2370763b70bdd4209ca3c73b0f8116031ae9fce",
        "report.svg": "31051d6c69d5bb3556e97211b5b3de8eb8df62be1a367f2bd6a2561f322c6c22",
    },
    "offline-qa-heavy": {
        "250/results.jsonl": "9bf0407ab39b0f9106b1528a6904c6521f7be906c8c6f211081e1ec9bde033fb",
        "report.csv": "a653bbeacdc5552bebf4a0b9add94f63fbe0795da0a9c5080d54b55665cc4699",
        "report.svg": "8922d96fa07ebc82d59158085c3502ff6075a2e1fc43cb4e9676f11a9da10433",
    },
}


@pytest.fixture(autouse=True)
def no_cache_dir(monkeypatch):
    monkeypatch.delenv("RAGBENCH_CACHE_DIR", raising=False)


def sweep(work: Path, docs: list[dict], qa: list[dict], sizes: list[int]) -> Path:
    """Run the offline sweep CLI on docs and qa; return its output directory."""
    work.mkdir(parents=True)
    gen.write_jsonl(docs, work / "corpus.jsonl")
    gen.write_jsonl(qa, work / "qa.jsonl")
    out = work / "out"
    assert main(["sweep", "--corpus", str(work / "corpus.jsonl"),
                 "--qa", str(work / "qa.jsonl"), "--sizes", ",".join(map(str, sizes)),
                 "--backend", "offline", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The inputs and output directory of each workload's sweep at a seed,
    swept once per module."""
    done = {}

    def get(name: str, seed: int):
        if (name, seed) not in done:
            wl = perfbench.WORKLOADS[name]
            docs, qa = gen.generate(seed, wl.n_docs, wl.n_qa)
            work = tmp_path_factory.mktemp(f"{name}-{seed}")
            done[name, seed] = docs, qa, sweep(work / "base", docs, qa, wl.sizes)
        return done[name, seed]
    return get


def file_hashes(out: Path) -> dict[str, str]:
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def results_by_qa(out: Path, sizes: list[int]) -> dict[int, dict[str, dict]]:
    by_size = {}
    for size in sizes:
        rows = [json.loads(line) for line in
                (out / str(size) / "results.jsonl").read_text("utf-8").splitlines()]
        by_size[size] = {r["qa_id"]: r for r in rows}
        assert len(by_size[size]) == len(rows)
    return by_size


@pytest.mark.parametrize("name", OFFLINE)
def test_default_seed_reproduces_the_benchmark_pins(baseline, name):
    _, qa, out = baseline(name, perfbench.DEFAULT_SEED)
    digests, missing, problems = perfbench._read_outputs(
        out, perfbench.WORKLOADS[name].sizes, [q["id"] for q in qa])
    assert (digests, missing, problems) == (perfbench.PINNED[name], 0, [])


@pytest.mark.parametrize("name", OFFLINE)
def test_held_out_seed_reproduces_every_output_file(baseline, name):
    _, _, out = baseline(name, HELD_OUT_SEED)
    assert file_hashes(out) == SEED_13[name]


def shuffled(rows: list[dict], seed: int) -> list[dict]:
    rows = list(rows)
    random.Random(seed).shuffle(rows)
    return rows


def renamed(docs: list[dict]) -> list[dict]:
    """docs with every id replaced by one of another form and length, in
    the same sort order."""
    new_id = {old: f"post-{7 * rank + 3:07d}"
              for rank, old in enumerate(sorted(d["id"] for d in docs))}
    return [{**d, "id": new_id[d["id"]]} for d in docs]


@pytest.mark.parametrize("seed", [perfbench.DEFAULT_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("name", OFFLINE)
@pytest.mark.parametrize("change", ["shuffle-corpus", "shuffle-qa", "rename-docs"])
def test_input_order_and_doc_names_do_not_change_results(baseline, tmp_path,
                                                        name, seed, change):
    docs, qa, out = baseline(name, seed)
    if change == "shuffle-corpus":
        docs = shuffled(docs, seed)
    elif change == "shuffle-qa":
        qa = shuffled(qa, seed)
    else:
        docs = renamed(docs)
    sizes = perfbench.WORKLOADS[name].sizes
    changed = sweep(tmp_path / change, docs, qa, sizes)
    assert (changed / "report.csv").read_bytes() == (out / "report.csv").read_bytes()
    assert results_by_qa(changed, sizes) == results_by_qa(out, sizes)


def test_tied_hits_do_not_follow_corpus_order(tmp_path, capsys):
    # A sweep's scores cannot tell tied hits apart: chunks tie only when
    # their texts are equal, so their prompts are too. ask prints each hit's
    # ref, so a corpus with reposted documents shows the tie-break.
    wl = perfbench.WORKLOADS["offline-sweep"]
    docs, qa = gen.generate(perfbench.DEFAULT_SEED, wl.n_docs, wl.n_qa)
    docs += [{**d, "id": d["id"] + "-repost"} for d in docs]
    printed = []
    for order, rows in enumerate([docs, shuffled(docs, perfbench.DEFAULT_SEED)]):
        corpus = tmp_path / f"corpus{order}.jsonl"
        gen.write_jsonl(rows, corpus)
        for q in qa[:3]:
            assert main(["ask", "--corpus", str(corpus), "--question", q["question"],
                         "--backend", "offline"]) == 0
        printed.append(capsys.readouterr().out)
    assert "-repost#" in printed[0]
    assert printed[1] == printed[0]
