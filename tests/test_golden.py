"""The default outputs, pinned. A sweep of the benchmark's synthetic
workloads must reproduce its seed-0 digests (PINNED in perfbench/run.py)
and the sha256 of every output file at the held-out seed 13. The remote
workload runs against perfbench/fake_server.py, cold and then warm from the
same cache, and the warm run must send no request and write the same
bytes. Without a cache dir it must send what the cold run sends, write the
same bytes and leave no temporary store, even when it fails. Reordering
the input lines, or renaming the documents with their order kept, must not
change the report or any question's result."""

import hashlib
import json
import random
import socket
import sys
import tempfile
from pathlib import Path

import pytest

from ragbench.cli import main

# perfbench/run.py imports its sibling gen.py as a top-level module
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402
import run as perfbench  # noqa: E402

OFFLINE = ["offline-sweep", "offline-qa-heavy"]
REMOTE = "remote-rerun"
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
    REMOTE: {
        "250/results.jsonl": "489f3c416a7b34ac5fc14bfb09e089cd5998d8be7c9ddebac71db77b2f388d02",
        "500/results.jsonl": "704a8072bab4c15705bf06c77e0be2f278050a5cdb9ff5a64bde5ba69bd4ed8f",
        "1000/results.jsonl": "b8e0db87e9145f514aa4dffd993f115c3769855341ed3b9d486337ec929cc5ad",
        "2000/results.jsonl": "5875d7b8cde2fe752e118103ccc32422d09bd9538c37c9a4c9a589dfb3a1bea9",
        "4000/results.jsonl": "d72564e5bd5ff24f1bc7abeded4fb2f87db9407e43d29649c158d145d3a27afc",
        "8000/results.jsonl": "d72564e5bd5ff24f1bc7abeded4fb2f87db9407e43d29649c158d145d3a27afc",
        "report.csv": "7026a90452ac3c1099814103a2d31ed4f3f6c80df2f71bd27ae0940f14946ab9",
        "report.svg": "5b930659c866ac32720a951128099e3d666a72c112c4a94d3003dfd14d25353f",
    },
}


def sweep(work: Path, docs: list[dict], qa: list[dict], sizes: list[int],
          flags=("--backend", "offline")) -> Path:
    """Run the sweep CLI with flags on docs and qa; return its output
    directory."""
    work.mkdir(parents=True, exist_ok=True)
    gen.write_jsonl(docs, work / "corpus.jsonl")
    gen.write_jsonl(qa, work / "qa.jsonl")
    out = work / "out"
    assert main(["sweep", "--corpus", str(work / "corpus.jsonl"),
                 "--qa", str(work / "qa.jsonl"), "--sizes", ",".join(map(str, sizes)),
                 *flags, "--out", str(out)]) == 0
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


@pytest.fixture(scope="module")
def server(request):
    root = Path(__file__).resolve().parents[1]
    srv = perfbench.FakeServer(root, perfbench.child_env(root))
    request.addfinalizer(srv.stop)
    return srv


def remote_flags(work: Path, url: str) -> list[str]:
    """Flags for a remote sweep with the config perfbench/run.py writes for
    the remote workload, its endpoints at url; the config goes in work."""
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.json"
    config.write_text(json.dumps({
        "embedder": {"kind": "remote", "endpoint_url": url, "model": "bench-embed"},
        "llm_endpoint_url": url, "llm_model": "bench-chat",
        "metric": {"judge": "remote"}}))
    return ["--backend", "remote", "--config", str(config)]


@pytest.fixture(scope="module")
def remote(tmp_path_factory, server):
    """At a seed, the QA items, the cold and the warm sweep's output
    directories, and the requests each sent, from one shared cache; swept
    once per module."""
    done = {}

    def get(seed: int):
        if seed not in done:
            wl = perfbench.WORKLOADS[REMOTE]
            docs, qa = gen.generate(seed, wl.n_docs, wl.n_qa)
            work = tmp_path_factory.mktemp(f"{REMOTE}-{seed}")
            flags = [*remote_flags(work, server.url), "--cache-dir", str(work / "cache")]
            outs, deltas = [], []
            for run in ("cold", "warm"):
                before = server.stats()
                outs.append(sweep(work / run, docs, qa, wl.sizes, flags))
                deltas.append(perfbench.request_delta(before, server.stats()))
            done[seed] = qa, outs, deltas
        return done[seed]
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


def test_remote_default_seed_reproduces_the_benchmark_pins(remote):
    qa, outs, _ = remote(perfbench.DEFAULT_SEED)
    for out in outs:
        digests, missing, problems = perfbench._read_outputs(
            out, perfbench.WORKLOADS[REMOTE].sizes, [q["id"] for q in qa])
        assert (digests, missing, problems) == (perfbench.PINNED[REMOTE], 0, [])


def test_remote_held_out_seed_reproduces_every_output_file(remote):
    _, outs, _ = remote(HELD_OUT_SEED)
    assert file_hashes(outs[0]) == SEED_13[REMOTE]


@pytest.mark.parametrize("seed", [perfbench.DEFAULT_SEED, HELD_OUT_SEED])
def test_remote_warm_rerun_sends_nothing_and_writes_the_same_bytes(remote, seed):
    _, (cold, warm), (cold_delta, warm_delta) = remote(seed)
    assert cold_delta[0] > 0 and cold_delta[1] == 0
    assert warm_delta == (0, 0)
    hashes = file_hashes(cold)
    assert file_hashes(warm) == hashes and len(hashes) == len(SEED_13[REMOTE])


def test_remote_sweep_without_a_cache_dir_sends_and_writes_as_a_cold_cached_one(
        remote, server, tmp_path, monkeypatch):
    # without --cache-dir, repeats are answered from a temporary store that
    # is removed when the sweep ends
    seed, wl = perfbench.DEFAULT_SEED, perfbench.WORKLOADS[REMOTE]
    _, (cold, _), (cold_delta, _) = remote(seed)
    docs, qa = gen.generate(seed, wl.n_docs, wl.n_qa)
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    before = server.stats()
    out = sweep(tmp_path / "uncached", docs, qa, wl.sizes,
                remote_flags(tmp_path / "uncached", server.url))
    after = server.stats()
    sent = {endpoint: n - before["by_endpoint"].get(endpoint, 0)
            for endpoint, n in after["by_endpoint"].items()}
    assert sent == {"/v1/chat/completions": 228, "/v1/embeddings": 23}
    assert perfbench.request_delta(before, after) == cold_delta == (251, 0)
    assert file_hashes(out) == file_hashes(cold)
    assert list(temp.iterdir()) == []


def test_failed_remote_sweep_without_a_cache_dir_leaves_no_temporary_store(
        tmp_path, monkeypatch, capsys):
    wl = perfbench.WORKLOADS[REMOTE]
    docs, qa = gen.generate(perfbench.DEFAULT_SEED, wl.n_docs, wl.n_qa)
    gen.write_jsonl(docs, tmp_path / "corpus.jsonl")
    gen.write_jsonl(qa, tmp_path / "qa.jsonl")
    with socket.socket() as s:  # a port that nothing listens on once closed
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    assert main(["sweep", "--corpus", str(tmp_path / "corpus.jsonl"),
                 "--qa", str(tmp_path / "qa.jsonl"), "--sizes", "250",
                 *remote_flags(tmp_path, f"http://127.0.0.1:{port}"),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"request to http://127.0.0.1:{port}/v1/embeddings failed" in \
        capsys.readouterr().err
    assert list(temp.iterdir()) == []


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
