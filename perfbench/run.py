"""ragbench benchmark: chunk-size sweeps through the ``ragbench sweep`` CLI.

    python3 perfbench/run.py --workload offline-sweep --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; ``src/ragbench`` is used from source. Each
sweep is ``ragbench.cli.main(["sweep", ...])`` in a fresh interpreter
(child.py), on a seeded synthetic corpus and QA set (gen.py). Sweeps repeat
while one more fits in ``--seconds``; timings are medians over them.

Timings are scaled to a reference host speed. On a shared machine the CPU
speed a process gets switches between states about 1.5x apart, which last
seconds to minutes, as neighbours come and go; no length of run averages
that out. So every child process also times a fixed pure-Python kernel
just before and just after its timed part (child.calibrate), and the
timing's main-thread CPU seconds are multiplied by CAL_REF_S over the mean
of those two kernel times. Waiting (on the fake backend, on I/O) is kept
as measured. The raw wall times are
printed beside the scaled ones, and ``--trace 1`` reports their median as
sweep_wall_s. Children run with one BLAS thread (see child_env).

Workloads (closed loop, one client, one sweep at a time). They are sized so
that one sweep takes a few seconds and a run holds many of them, so a median
over sweeps rejects a burst of contention.

- offline-sweep: 200 documents, 40 questions, sizes 250..8000, offline
  backend. Chunk embedding dominates; about a fifth of the chunk texts
  repeat across sizes.
- offline-qa-heavy: 300 documents at size 250 only, 400 questions.
  Retrieval dominates; no chunk text repeats.
- remote-rerun: 100 documents, 20 questions, sizes 250..8000, remote
  backend and remote judge against fake_server.py (its own process, a
  fixed 20 ms per request). The delay is not a measured backend latency:
  it was chosen so that most of the workload's time is a steady wait, so
  its time figures follow request counts, not real model latency. Each
  pass is a cold sweep into a fresh cache directory, then a warm rerun in
  a fresh process with the same cache. On a traced pass, per-layer figures
  cover the cold and the warm sweep together.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` pairs every
timed pass with a traced one (tracer.py) and reports per-layer metrics from
the first traced pass, the tracing overhead as the median paired
difference, and the remote-only figures (rerun_s, backend_requests,
rerun_backend_requests) from the timed passes, which read 0 offline. Those
three are not end-to-end metrics because end-to-end metrics must hold on
every workload and never read 0. Every pass is checked: reports must be
byte-identical across passes (and between cold and warm), each CSV mean
must equal the mean of its per-question scores, and at the default seed
the digests must equal the pinned ones. A failed check fails every
evaluation of the run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` counts evaluations
(questions x chunk sizes x sweeps).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SERVER = HERE / "fake_server.py"

DEFAULT_SEED = 0
SIZES = [250, 500, 1000, 2000, 4000, 8000]
SETUP_REPEATS = 7
# The calibration kernel's time (child.py) on the reference host. Timings are
# reported as if the host ran at that speed; see scaled().
CAL_REF_S = 0.1
# every run ends well inside the 180 s a run may take
HARD_LIMIT_S = 165.0


@dataclass(frozen=True)
class Workload:
    n_docs: int
    n_qa: int
    sizes: list
    remote: bool


WORKLOADS = {
    "offline-sweep": Workload(200, 40, SIZES, False),
    "offline-qa-heavy": Workload(300, 400, [250], False),
    "remote-rerun": Workload(100, 20, SIZES, True),
}

# sha256 of the outputs at DEFAULT_SEED; "results" covers the
# (qa_id, tp, fp, fn, answer_correctness) projection of every results.jsonl
PINNED = {
    "offline-sweep": {
        "report.csv": "da667e25939a82eefceb128198f9cb97ecc1f11e59e9da8a59b5e0e2f553c1e7",
        "report.svg": "c0ee6e3bf69af528838d8750b60377caa8dff6898d956ba345fb8be342d7d552",
        "results": "b68734932fde07afa3f2900b8d3ee5c0289087b47ed47d462ddf495eab8f6866"},
    "offline-qa-heavy": {
        "report.csv": "5e811d2181cde91f78b71494696558bf8adf3189f0b973090c7ec4dbdce7ae52",
        "report.svg": "402cac3df78bc2dad144f10dc7326a9c7c00915f1135d8f78f29583e0a484331",
        "results": "52c34e08de24c435e980ab2bbdae1f7eb844a3a52e3a0304ca62711d2d65f763"},
    "remote-rerun": {
        "report.csv": "eccd33270dbb7a6fdabcd70cdb32519293b3300835fced1c2489a642936800dc",
        "report.svg": "418e1e069dcffab1e551031e776259b1afdbb46fe8a84d6e8128c8539ecf929e",
        "results": "87fec0d82a1732c2221dd321d891109497ec050e4f54c3f8035b642bc4543418"},
}

UNITS = {"sweep_s": "s", "evals_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
         "rerun_s": "s", "backend_requests": "count",
         "rerun_backend_requests": "count", "failed_frac": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def median(values):
    return statistics.median(values) if values else 0.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- environment ---------------------------------------------------------

def child_env(root: Path) -> dict:
    """The user's environment, minus ragbench settings that would change
    the workload (a chat cache, a bearer token), with src on the path and
    one BLAS thread. With more, each small matrix-vector product in a query
    waits for the slowest core, and on a shared host that alone can double
    a retrieval-heavy sweep."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RAGBENCH_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(root / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def commit_of(root: Path) -> str:
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, packed_name = line.partition(" ")
            if packed_name == name:
                return sha
    except OSError:
        pass
    return "unknown"


def describe_env(root: Path) -> str:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"
    return (f"env python={platform.python_version()} numpy={version('numpy')} "
            f"requests={version('requests')} nproc={len(os.sched_getaffinity(0))} "
            f"commit={commit_of(root)}")


# -- fake server ---------------------------------------------------------

class FakeServer:
    def __init__(self, root: Path, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER)],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise BenchError("fake server did not start")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def request_delta(before: dict, after: dict) -> tuple[int, int]:
    """(requests, non-2xx responses) between two /stats snapshots."""
    def total(snap, key, skip=()):
        return sum(v for k, v in snap[key].items() if k not in skip)
    requests = total(after, "by_endpoint") - total(before, "by_endpoint")
    non2xx = (total(after, "by_status", {"200"})
              - total(before, "by_status", {"200"}))
    return requests, non2xx


# -- one sweep -----------------------------------------------------------

@dataclass
class Timing:
    """A child's wall and main-thread CPU seconds, and its calibrations."""
    wall_s: float
    cpu_s: float
    cal_s: list[float]


NO_TIMING = Timing(0.0, 0.0, [])


def host_factor(t: Timing) -> float:
    """CAL_REF_S over the timing's own calibrations, which ran in the same
    process right before and after it: below 1 when the host ran slower
    than the reference."""
    return CAL_REF_S / statistics.fmean(t.cal_s) if t.cal_s else 1.0


def scaled(t: Timing) -> float:
    """The timing with its main-thread CPU seconds brought to reference
    host speed. Time spent waiting (on the backend, on I/O) is kept as
    measured."""
    return t.wall_s - t.cpu_s + t.cpu_s * host_factor(t)


@dataclass
class Sweep:
    ok: bool
    timing: Timing
    rss_mb: float
    out: Path
    requests: int = 0
    non2xx: int = 0
    spans: Path | None = None


class Runner:
    def __init__(self, root: Path, work: Path, env: dict, deadline: float):
        self.root, self.work, self.env, self.deadline = root, work, env, deadline
        self.count = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, str(CHILD), *args], cwd=self.root,
                              env=self.env, capture_output=True, text=True,
                              timeout=max(1.0, self.remaining()))

    def setup_timings(self) -> list[Timing]:
        """Timings of importing ragbench.cli in a fresh interpreter,
        SETUP_REPEATS times, after one untimed import that writes the
        bytecode caches."""
        times = []
        for i in range(SETUP_REPEATS + 1):
            proc = self.child(["import"])
            if proc.returncode != 0:
                raise BenchError(f"cannot import ragbench.cli:\n{proc.stderr}")
            if i:
                times.append(Timing(**json.loads(proc.stdout)))
        return times

    def sweep(self, cli_args: list[str], server: FakeServer | None,
              trace: bool) -> Sweep:
        self.count += 1
        tag = f"s{self.count:03d}"
        out = self.work / tag
        result = self.work / f"{tag}.result.json"
        spans = self.work / f"{tag}.spans.json" if trace else None
        args = ["sweep", str(result)]
        if spans:
            args += ["--spans", str(spans)]
        args += ["--", "sweep", "--out", str(out), *cli_args]
        before = server.stats() if server else None
        try:
            proc = self.child(args)
        except subprocess.TimeoutExpired:
            print(f"sweep {tag} timed out", file=sys.stderr)
            return Sweep(False, NO_TIMING, 0.0, out)
        requests, non2xx = request_delta(before, server.stats()) if server else (0, 0)
        if proc.returncode != 0 or not result.is_file():
            print(f"sweep {tag} crashed:\n{proc.stderr}", file=sys.stderr)
            return Sweep(False, NO_TIMING, 0.0, out, requests, non2xx)
        res = json.loads(result.read_text())
        if res["exit"] != 0:
            print(f"sweep {tag} exited {res['exit']}:\n{proc.stderr}", file=sys.stderr)
        timing = Timing(res["wall_s"], res["cpu_s"], res["cal_s"])
        return Sweep(res["exit"] == 0, timing, res["maxrss_kb"] / 1024.0,
                     out, requests, non2xx, spans)


# -- output check --------------------------------------------------------

def read_outputs(out: Path, sizes: list[int], qa_ids: list[str]):
    """Digests of one sweep's outputs, the evaluations missing from them,
    and the problems found in them."""
    try:
        return _read_outputs(out, sizes, qa_ids)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, len(sizes) * len(qa_ids), [f"unreadable outputs: {exc!r}"]


def _read_outputs(out: Path, sizes: list[int], qa_ids: list[str]):
    problems, missing = [], 0
    csv_bytes = (out / "report.csv").read_bytes()
    svg_bytes = (out / "report.svg").read_bytes()
    lines = csv_bytes.decode("utf-8").splitlines()
    rows = {}
    for line in lines[1:]:
        size, mean, n = line.split(",")
        rows[int(size)] = (mean, int(n))
    if lines[:1] != ["chunk_size,mean_correctness,n"] or sorted(rows) != sizes:
        problems.append(f"report.csv rows {sorted(rows)} != sizes {sizes}")
    projection = hashlib.sha256()
    for size in sizes:
        path = out / str(size) / "results.jsonl"
        results = ([json.loads(line) for line in path.read_text("utf-8").splitlines()]
                   if path.is_file() else [])
        seen = {r["qa_id"] for r in results}
        missing += sum(1 for q in qa_ids if q not in seen)
        scores = [r["answer_correctness"] for r in results]
        if size in rows and scores:
            mean, n = rows[size]
            if f"{sum(scores) / len(scores):.6f}" != mean or n != len(scores):
                problems.append(f"size {size}: CSV mean {mean} n={n} does not match "
                                f"its {len(scores)} per-question scores")
        projection.update(f"{size}\n".encode())
        for r in results:
            row = [r["qa_id"], r["tp"], r["fp"], r["fn"], r["answer_correctness"]]
            projection.update((json.dumps(row) + "\n").encode())
    digests = {"report.csv": sha256(csv_bytes), "report.svg": sha256(svg_bytes),
               "results": projection.hexdigest()}
    return digests, missing, problems


# -- trace ---------------------------------------------------------------

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(span_files: list[Path]) -> tuple[dict, list[str]]:
    """Per-layer self time and counts from traced sweeps. A span's self time
    is its duration minus the union of its children's intervals, so busy
    time in worker threads is not subtracted twice."""
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    sums: dict[tuple[str, str], int] = {}
    seen: dict[str, set] = {}
    absent: set[str] = set()
    judge_chat = 0
    for path in span_files:
        data = json.loads(path.read_text())
        spans = data["spans"]
        absent.update(data["absent"])
        absent.update(f"{label} (counts)" for label in data["count_errors"])
        for key, digests in data["seen"].items():
            seen.setdefault(key, set()).update(digests)
        kids: dict[int, list] = {}
        for _name, _thread, parent, t0, t1, _counts in spans:
            if parent >= 0:
                kids.setdefault(parent, []).append((t0, t1))
        for i, (name, _thread, parent, t0, t1, counts) in enumerate(spans):
            inner = [(max(a, t0), min(b, t1)) for a, b in kids.get(i, []) if b > t0 and a < t1]
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - _union_length(inner)
            durations.setdefault(name, []).append(t1 - t0)
            for key, value in (counts or {}).items():
                sums[name, key] = sums.get((name, key), 0) + value
            if name == "http" and counts and "chat" in counts:
                while parent >= 0 and spans[parent][0] != "metrics.judge":
                    parent = spans[parent][2]
                judge_chat += parent >= 0
    s = lambda name: self_s.get(name, 0.0)
    c = lambda name: len(durations.get(name, ()))
    total = lambda name, key: sums.get((name, key), 0)
    hits, misses = total("llm.cache", "hits"), total("llm.cache", "misses")
    metrics = {
        "corpus.load_s": s("corpus.load"),
        "chunker.s": s("chunker"),
        "chunker.chunks": total("chunker", "n"),
        "embed.chunk_s": s("embed.chunk"),
        "embed.chunk_texts": total("embed.chunk", "n"),
        "embed.chunk_texts_unique": len(seen.get("embed.chunk", ())),
        "embed.chunk_bytes": total("embed.chunk", "bytes"),
        "embed.single_s": s("embed.single"),
        "embed.single_calls": c("embed.single"),
        "embed.single_unique": len(seen.get("embed.single", ())),
        "vectorstore.build_s": s("vectorstore.build"),
        "vectorstore.entries": total("vectorstore.build", "n"),
        "vectorstore.query_s": s("vectorstore.query"),
        "vectorstore.queries": c("vectorstore.query"),
        "vectorstore.query_p50_us": median(durations.get("vectorstore.query", [])) * 1e6,
        "rag.self_s": s("rag"),
        "rag.prompt_chars": total("rag", "prompt_chars"),
        "llm.generate_s": s("llm.generate") + s("llm.cache"),
        "llm.generate_calls": c("llm.generate"),
        "llm.cache_hits": hits,
        "llm.cache_misses": misses,
        "llm.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "http.requests": c("http"),
        "http.embed_requests": total("http", "embed"),
        "http.chat_requests": total("http", "chat"),
        "http.s": sum(durations.get("http", [])),
        "http.p50_ms": median(durations.get("http", [])) * 1e3,
        "metrics.score_s": s("metrics.score"),
        "metrics.judge_s": s("metrics.judge"),
        "metrics.judge_calls": c("metrics.judge"),
        "metrics.judge_chat_requests": judge_chat,
        "sweep.self_s": s("sweep"),
        "sweep.report_s": s("sweep.report"),
    }
    return metrics, sorted(absent)


PER_LAYER_UNITS = {
    "corpus.load_s": "s", "chunker.s": "s", "chunker.chunks": "count",
    "embed.chunk_s": "s", "embed.chunk_texts": "count",
    "embed.chunk_texts_unique": "count", "embed.chunk_bytes": "bytes",
    "embed.single_s": "s", "embed.single_calls": "count", "embed.single_unique": "count",
    "vectorstore.build_s": "s", "vectorstore.entries": "count",
    "vectorstore.query_s": "s", "vectorstore.queries": "count",
    "vectorstore.query_p50_us": "us", "rag.self_s": "s", "rag.prompt_chars": "count",
    "llm.generate_s": "s", "llm.generate_calls": "count", "llm.cache_hits": "count",
    "llm.cache_misses": "count", "llm.cache_hit_ratio": "ratio",
    "http.requests": "count", "http.embed_requests": "count",
    "http.chat_requests": "count", "http.s": "s", "http.p50_ms": "ms",
    "http.non2xx": "count", "metrics.score_s": "s", "metrics.judge_s": "s",
    "metrics.judge_calls": "count", "metrics.judge_chat_requests": "count",
    "sweep.self_s": "s", "sweep.report_s": "s", "trace.overhead_s": "s",
    "sweep_wall_s": "s",
    "rerun_s": "s", "backend_requests": "count", "rerun_backend_requests": "count",
}


# -- one run -------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: Path, deadline: float) -> dict:
    wl = WORKLOADS[name]
    if not (root / "src" / "ragbench" / "cli.py").is_file():
        raise BenchError(f"no ragbench sources under {root / 'src'}")
    tmp_root = root / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
    server = None
    try:
        env = child_env(root)
        runner = Runner(root, work, env, deadline)
        setup = runner.setup_timings()

        docs, qa = gen.generate(seed, wl.n_docs, wl.n_qa)
        gen.write_jsonl(docs, work / "corpus.jsonl")
        gen.write_jsonl(qa, work / "qa.jsonl")
        qa_ids = [q["id"] for q in qa]
        cli_args = ["--corpus", str(work / "corpus.jsonl"), "--qa", str(work / "qa.jsonl"),
                    "--sizes", ",".join(map(str, wl.sizes))]
        if wl.remote:
            server = FakeServer(root, env)
            config = work / "config.json"
            config.write_text(json.dumps({
                "embedder": {"kind": "remote", "endpoint_url": server.url,
                             "model": "bench-embed"},
                "llm_endpoint_url": server.url, "llm_model": "bench-chat",
                "metric": {"judge": "remote"}}))
            cli_args += ["--backend", "remote", "--config", str(config)]

        def one_pass(traced: bool) -> list[Sweep]:
            if not wl.remote:
                return [runner.sweep(cli_args, None, traced)]
            cache = ["--cache-dir", str(work / f"cache{runner.count:03d}")]
            cold = runner.sweep(cli_args + cache, server, traced)
            return [cold, runner.sweep(cli_args + cache, server, traced)]

        # With --trace 1, each timed pass is paired with a traced one, in
        # alternating order, so that the tracing overhead is the median
        # difference between adjacent sweeps, which see the same host speed.
        passes: list[list[Sweep]] = []
        traced_passes: list[list[Sweep]] = []
        t0 = time.monotonic()
        while True:
            start = time.monotonic()
            order = [False]
            if trace:
                order = [True, False] if len(passes) % 2 == 0 else [False, True]
            for traced in order:
                (traced_passes if traced else passes).append(one_pass(traced))
            took = time.monotonic() - start
            # start another pass only if one as long as the last still fits
            if (not all(sw.ok for sw in passes[-1] + (traced_passes[-1] if trace else []))
                    or time.monotonic() - t0 + took > seconds
                    or runner.remaining() < 2 * took):
                break

        # output check over every sweep, traced ones included
        evals = len(qa_ids) * len(wl.sizes)
        sweeps = [sw for p in traced_passes + passes for sw in p]
        attempted, failed, problems, reference = 0, 0, [], None
        for sw in sweeps:
            attempted += evals
            if not sw.ok:
                failed += evals
                continue
            digests, missing, found = read_outputs(sw.out, wl.sizes, qa_ids)
            failed += missing
            problems += [f"{sw.out.name}: {p}" for p in found]
            if digests is None:
                continue
            if reference is None:
                reference = digests
                pinned = PINNED.get(name) if seed == DEFAULT_SEED else None
                if pinned and pinned != digests:
                    problems.append(f"digests {digests} differ from the pinned {pinned}")
            elif digests != reference:
                problems.append(f"{sw.out.name}: outputs differ from the first sweep's")
        correct = not problems and failed == 0
        if problems:
            failed = attempted

        cold = [p[0] for p in passes if p[0].ok]
        warm = [p[1] for p in passes if wl.remote and p[1].ok]
        cold_scaled = [scaled(sw.timing) for sw in cold]
        sweep_s = median(cold_scaled)
        e2e = {
            "sweep_s": sweep_s,
            "evals_per_s": evals / sweep_s if sweep_s else 0.0,
            "setup_s": median([scaled(t) for t in setup]),
            "peak_rss_mb": median([sw.rss_mb for sw in cold]),
        }
        remote = {
            "rerun_s": median([scaled(sw.timing) for sw in warm]),
            "backend_requests": median([sw.requests for sw in cold]),
            "rerun_backend_requests": median([sw.requests for sw in warm]),
        }
        layers, absent, repeat = {}, [], None
        if trace:
            # per-layer figures come from the first traced pass alone
            first = traced_passes[0]
            spans = [sw.spans for sw in first if sw.ok and sw.spans and sw.spans.is_file()]
            layers, absent = layer_metrics(spans)
            # the share of chunk texts that repeat across sizes, as one
            # sweep embeds them
            one, _ = layer_metrics(spans[:1])
            repeat = (one["embed.chunk_texts"], one["embed.chunk_texts_unique"])
            layers["http.non2xx"] = sum(sw.non2xx for sw in first)
            layers["trace.overhead_s"] = median([
                t[0].timing.wall_s - u[0].timing.wall_s
                for t, u in zip(traced_passes, passes) if t[0].ok and u[0].ok])
            layers["sweep_wall_s"] = median([sw.timing.wall_s for sw in cold])
            layers.update(remote)

        return {
            "name": name, "seed": seed, "workload": wl, "passes": len(passes),
            "cold_walls": [sw.timing.wall_s for sw in cold],
            "cold_factors": [host_factor(sw.timing) for sw in cold],
            "cold_scaled": cold_scaled,
            "repeat": repeat, "e2e": e2e, "remote": remote,
            "layers": layers, "absent": absent, "problems": problems, "digests": reference,
            "correct": correct, "attempted": attempted, "failed": failed,
        }
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)


def report(res: dict, trace: bool, root: Path) -> None:
    wl = res["workload"]
    print(f"workload={res['name']} seed={res['seed']} passes={res['passes']} "
          f"docs={wl.n_docs} qa={wl.n_qa} sizes={','.join(map(str, wl.sizes))} "
          f"backend={'remote' if wl.remote else 'offline'}")
    print(describe_env(root))
    if res["repeat"]:
        texts, distinct = res["repeat"]
        share = 1.0 - distinct / texts if texts else 0.0
        print(f"inputs chunk_texts={texts} distinct={distinct} repeat_share={share:.4f}")
    for label, values in (("wall", res["cold_walls"]), ("host_factor", res["cold_factors"]),
                          ("sweep_s", res["cold_scaled"])):
        print(f"{label} samples={len(values)}: {' '.join(f'{v:.4f}' for v in values)}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    shown = dict(res["e2e"])
    if wl.remote:
        shown.update(res["remote"])
    shown["failed_frac"] = frac
    for key, value in shown.items():
        print(f"  {key:<24} {value:>14.6f} {UNITS[key]}")
    if trace:
        for key, value in res["layers"].items():
            print(f"  {key:<28} {value:>16.6f} {PER_LAYER_UNITS[key]}")
        for label in res["absent"]:
            print(f"  trace target absent: {label}")
    print(f"digests {json.dumps(res['digests'], sort_keys=True)}")
    verdict = "PASS" if res["correct"] else "FAIL"
    print(f"check {verdict}: {res['attempted'] - res['failed']}/{res['attempted']} "
          f"evaluations ok" + "".join(f"\n  {p}" for p in res["problems"]))
    metrics = res["layers"] if trace else res["e2e"]
    units = PER_LAYER_UNITS if trace else UNITS
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ragbench benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so the fake server and temp files are cleaned up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        deadline = time.monotonic() + HARD_LIMIT_S
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               root, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report(res, bool(args.trace), root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
