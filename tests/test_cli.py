import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import ragbench._http as http_mod
import ragbench.cli as cli_mod
import ragbench.embed as embed_mod
from ragbench.corpus import Document, save_corpus
from ragbench.cli import main
from ragbench.config import AppConfig, load_app_config
from ragbench.embed import EmbedderConfig
from ragbench.errors import RagBenchError
from ragbench.metrics import LexicalJudge, MetricConfig, RemoteJudge


def write_reddit(path, n=5, extra_lines=()):
    lines = [json.dumps({"id": f"p{i}", "subreddit": "cybersecurity",
                         "title": f"Title {i}", "selftext": f"Body text {i}",
                         "top_comment": f"Answer {i}", "score": i,
                         "created_utc": 1000 + i})
             for i in range(n)]
    lines.extend(extra_lines)
    path.write_text("\n".join(lines) + "\n")


def write_qa(path, n=3):
    lines = [json.dumps({"id": f"q{i}", "question": f"What is topic {i}?",
                         "ground_truth": f"Topic {i} is about body text. "
                                         f"It has an answer."})
             for i in range(n)]
    path.write_text("\n".join(lines) + "\n")


class TestIngest:
    def test_reddit_jsonl_success(self, tmp_path, capsys):
        src = tmp_path / "export.jsonl"
        out = tmp_path / "corpus.jsonl"
        write_reddit(src, n=5)
        code = main(["ingest", "--format", "reddit-jsonl",
                     "--in", str(src), "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 5
        assert "kept=5" in capsys.readouterr().err

    def test_dedup_collapses(self, tmp_path, capsys):
        src = tmp_path / "export.jsonl"
        out = tmp_path / "corpus.jsonl"
        dup = json.dumps({"id": "dup", "subreddit": "s", "title": "Title 0",
                          "selftext": "Body text 0", "top_comment": "Answer 0"})
        write_reddit(src, n=3, extra_lines=[dup, "{broken"])
        assert main(["ingest", "--format", "reddit-jsonl",
                     "--in", str(src), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3
        assert capsys.readouterr().err == \
            "in=4 kept=3 duplicates_removed=1 lines_skipped=1\n"

    def test_no_dedup_keeps_all(self, tmp_path, capsys):
        src = tmp_path / "export.jsonl"
        out = tmp_path / "corpus.jsonl"
        dup = json.dumps({"id": "dup", "subreddit": "s", "title": "Title 0",
                          "selftext": "Body text 0", "top_comment": "Answer 0"})
        write_reddit(src, n=3, extra_lines=[dup, "{broken"])
        assert main(["ingest", "--format", "reddit-jsonl", "--no-dedup",
                     "--in", str(src), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4
        assert capsys.readouterr().err == \
            "in=4 kept=4 duplicates_removed=0 lines_skipped=1\n"

    def test_bogus_format_usage_error(self, tmp_path):
        assert main(["ingest", "--format", "bogus",
                     "--in", "x", "--out", "y"]) == 1

    def test_strict_malformed_line_exit_2(self, tmp_path, capsys):
        src = tmp_path / "export.jsonl"
        write_reddit(src, n=2, extra_lines=["{broken"])
        code = main(["ingest", "--format", "reddit-jsonl", "--strict",
                     "--in", str(src), "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "3" in capsys.readouterr().err  # line number reported

    def test_strict_line_not_utf8_exit_2(self, tmp_path, capsys):
        src = tmp_path / "export.jsonl"
        write_reddit(src, n=2)
        src.write_bytes(src.read_bytes() + b'{"id": "x\xff"}\n')
        code = main(["ingest", "--format", "reddit-jsonl", "--strict",
                     "--in", str(src), "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "malformed line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["score", "created_utc"])
    def test_number_beyond_float_range_skipped(self, tmp_path, capsys, field):
        # an export's numbers are not read: a line whose number does not fit
        # a float is kept with its text
        src = tmp_path / "export.jsonl"
        out = tmp_path / "o.jsonl"
        write_reddit(src, n=2, extra_lines=[f'{{"id": "x", "title": "t", "{field}": 1e400}}'])
        assert main(["ingest", "--format", "reddit-jsonl",
                     "--in", str(src), "--out", str(out)]) == 0
        assert capsys.readouterr().err == \
            "in=3 kept=3 duplicates_removed=0 lines_skipped=0\n"
        assert out.read_text().splitlines()[-1] == '{"id": "x", "body": "t"}'

    @pytest.mark.parametrize("field", ["score", "created_utc"])
    def test_strict_number_beyond_float_range_exit_2(self, tmp_path, capsys, field):
        # not read, so not malformed either: --strict keeps the line and exits 0
        src = tmp_path / "export.jsonl"
        out = tmp_path / "o.jsonl"
        write_reddit(src, n=2, extra_lines=[f'{{"id": "x", "title": "t", "{field}": 1e400}}'])
        code = main(["ingest", "--format", "reddit-jsonl", "--strict",
                     "--in", str(src), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == \
            "in=3 kept=3 duplicates_removed=0 lines_skipped=0\n"
        assert out.read_text().splitlines()[-1] == '{"id": "x", "body": "t"}'

    @pytest.mark.parametrize("strict", [False, True])
    def test_line_nested_too_deep_is_malformed(self, tmp_path, capsys, strict):
        src = tmp_path / "export.jsonl"
        write_reddit(src, n=2)
        src.write_bytes(src.read_bytes() + b'{"id": "x", "title": "t", "x": '
                        + b"[" * 100_000 + b"]" * 100_000 + b"}\n")
        code = main(["ingest", "--format", "reddit-jsonl", *(["--strict"] if strict else []),
                     "--in", str(src), "--out", str(tmp_path / "o.jsonl")])
        err = capsys.readouterr().err
        if strict:
            assert code == 2
            assert "malformed line 3" in err
        else:
            assert code == 0
            assert err == "in=2 kept=2 duplicates_removed=0 lines_skipped=1\n"

    @pytest.mark.parametrize("strict", [False, True])
    def test_lone_surrogate_is_malformed(self, tmp_path, capsys, strict):
        # the JSON escape of half an emoji, as a dump cut mid-character holds,
        # is no UTF-8 text: the line is skipped, or strict mode stops on it
        src, out = tmp_path / "export.jsonl", tmp_path / "o.jsonl"
        write_reddit(src, n=2, extra_lines=['{"id": "x", "title": "Half an emoji \\ud83d."}'])
        code = main(["ingest", "--format", "reddit-jsonl", *(["--strict"] if strict else []),
                     "--in", str(src), "--out", str(out)])
        err = capsys.readouterr().err
        if strict:
            assert code == 2
            assert err == ("error: malformed line 3: field 'title' is not UTF-8 text: "
                           "surrogates not allowed\n")
        else:
            assert code == 0
            assert err == "in=2 kept=2 duplicates_removed=0 lines_skipped=1\n"
            assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == \
                ["p0", "p1"]

    def test_repeated_id_skipped_first_kept(self, tmp_path, capsys):
        src = tmp_path / "export.jsonl"
        out = tmp_path / "corpus.jsonl"
        write_reddit(src, n=2, extra_lines=[json.dumps({"id": "p0", "title": "Other"})])
        assert main(["ingest", "--format", "reddit-jsonl",
                     "--in", str(src), "--out", str(out)]) == 0
        assert capsys.readouterr().err == \
            "in=2 kept=2 duplicates_removed=0 lines_skipped=1\n"
        assert [json.loads(line)["body"] for line in out.read_text().splitlines()] == \
            ["Title 0\n\nBody text 0\n\nAnswer 0", "Title 1\n\nBody text 1\n\nAnswer 1"]

    def test_strict_repeated_id_exit_2(self, tmp_path, capsys):
        src = tmp_path / "export.jsonl"
        write_reddit(src, n=2, extra_lines=[json.dumps({"id": "p0", "title": "Other"})])
        code = main(["ingest", "--format", "reddit-jsonl", "--strict",
                     "--in", str(src), "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "malformed line 3: duplicate id 'p0'" in capsys.readouterr().err

    def test_textdir_file_not_utf8_exit_2(self, tmp_path, capsys):
        src = tmp_path / "materials"
        src.mkdir()
        (src / "lesson1.md").write_bytes(b"Threat modeling \xff basics.")
        code = main(["ingest", "--format", "textdir",
                     "--in", str(src), "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "lesson1.md is not UTF-8" in capsys.readouterr().err

    def test_textdir_file_name_not_utf8_exit_2(self, tmp_path, capsys):
        # Linux allows any bytes in a file name; Python decodes the ones that
        # are not UTF-8 to lone surrogates, which no store line can hold
        src = tmp_path / "materials"
        src.mkdir()
        (src / "lesson1.md").write_text("Threat modeling basics.")
        try:
            (src / os.fsdecode(b"bad\xffname.txt")).write_text("Incident response steps.")
        except OSError:
            pytest.skip("this filesystem refuses a file name that is not UTF-8")
        out = tmp_path / "o.jsonl"
        code = main(["ingest", "--format", "textdir", "--in", str(src), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: file name 'bad\\udcffname.txt' is not UTF-8 text: surrogates not allowed\n"
        assert not out.exists()

    def test_textdir(self, tmp_path, capsys):
        src = tmp_path / "materials"
        src.mkdir()
        (src / "lesson1.md").write_text("Threat modeling basics.")
        (src / "lesson2.txt").write_text("Incident response steps.")
        (src / "lesson3.txt").write_text("Threat  modeling\nbasics.")  # lesson1 again
        out = tmp_path / "corpus.jsonl"
        assert main(["ingest", "--format", "textdir",
                     "--in", str(src), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2
        assert capsys.readouterr().err == \
            "in=3 kept=2 duplicates_removed=1 lines_skipped=0\n"


@pytest.fixture
def corpus(tmp_path):
    src = tmp_path / "export.jsonl"
    planted = json.dumps({"id": "planted", "subreddit": "s",
                          "title": "ZEBRA-7 marker",
                          "selftext": "The marker ZEBRA-7 appears here.",
                          "top_comment": ""})
    write_reddit(src, n=4, extra_lines=[planted])
    out = tmp_path / "corpus.jsonl"
    assert main(["ingest", "--format", "reddit-jsonl",
                 "--in", str(src), "--out", str(out)]) == 0
    return out


class TestAsk:
    def test_planted_marker_answered(self, corpus, capsys):
        code = main(["ask", "--corpus", str(corpus),
                     "--question", "What is ZEBRA-7?",
                     "--chunk-size", "200", "--backend", "offline"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ZEBRA-7" in out
        assert "retrieved:" in out
        assert "score=" in out

    def test_remote_judge_config_is_not_used(self, corpus, tmp_path, capsys):
        # ask never judges, so a judge only the remote backend can run is no error
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"metric": {"judge": "remote"}}')
        assert main(["ask", "--corpus", str(corpus), "--question", "What is ZEBRA-7?",
                     "--chunk-size", "200", "--config", str(cfg)]) == 0
        assert "ZEBRA-7" in capsys.readouterr().out

    def test_question_of_another_dim_is_a_data_error(self, corpus, monkeypatch, capsys):
        # only single texts come 64 wide: the chunks keep the default 256
        monkeypatch.setattr(embed_mod, "embed_texts",
                            lambda texts, cfg, cache_dir: [np.ones(64) for _ in texts])
        assert main(["ask", "--corpus", str(corpus), "--question", "What is ZEBRA-7?",
                     "--backend", "offline"]) == 2
        assert capsys.readouterr().err == "error: query dim 64 != index dim 256\n"

    def test_reply_not_utf8_text_is_a_runtime_error(self, corpus, tmp_path, capsys,
                                                      fake_server, monkeypatch):
        # the chat reply holds half an emoji, a lone surrogate escape; the
        # embedding replies are the server's defaults
        default = fake_server._default_body
        monkeypatch.setattr(fake_server, "_default_body", lambda path, payload: (
            {"choices": [{"message": {"content": "half an emoji \ud83d"}}]}
            if path.endswith("/chat/completions") else default(path, payload)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"embedder": {"endpoint_url": fake_server.url}}))
        cache = tmp_path / "cache"
        assert main(["ask", "--corpus", str(corpus), "--question", "What is ZEBRA-7?",
                     "--backend", "remote", "--config", str(cfg),
                     "--cache-dir", str(cache)]) == 2
        assert capsys.readouterr().err == \
            "error: reply is not UTF-8 text: surrogates not allowed\n"
        assert [p.name for p in cache.iterdir() if ".tmp" in p.name] == []

    def test_stored_reply_not_utf8_text_is_asked_again(self, corpus, tmp_path, capsys,
                                                       fake_server):
        # a chat entry rewritten to half an emoji, a lone surrogate escape, or
        # to the empty string is a miss: the warm run asks for the answer
        # again and stores it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"embedder": {"endpoint_url": fake_server.url}}))
        cache = tmp_path / "cache"
        ask = ["ask", "--corpus", str(corpus), "--question", "What is ZEBRA-7?",
               "--backend", "remote", "--config", str(cfg), "--cache-dir", str(cache)]
        assert main(ask) == 0
        cold = capsys.readouterr().out
        [entry] = [p for p in cache.iterdir() if "content" in json.loads(p.read_text())]
        key = json.loads(entry.read_text())["request_key"]
        for content in ("half an emoji \ud83d", ""):
            entry.write_text(json.dumps({"request_key": key, "content": content}))
            fake_server.requests.clear()
            assert main(ask) == 0
            assert capsys.readouterr().out == cold
            assert [path for path, _, _ in fake_server.requests] == ["/v1/chat/completions"]
            assert json.loads(entry.read_text()) == {"request_key": key,
                                                     "content": "canned reply"}

    def test_endpoint_trailing_slash_shares_cache(self, corpus, tmp_path, capsys,
                                                  fake_server):
        # generate and the embedder post to the endpoint without its trailing
        # slash, so a request keys on it that way too
        cache = tmp_path / "cache"
        outs = []
        for i, url in enumerate([fake_server.url, fake_server.url + "/"]):
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps({"embedder": {"endpoint_url": url}}))
            fake_server.requests.clear()
            assert main(["ask", "--corpus", str(corpus), "--question", "What is ZEBRA-7?",
                         "--backend", "remote", "--config", str(cfg),
                         "--cache-dir", str(cache)]) == 0
            outs.append(capsys.readouterr().out)
        assert fake_server.requests == []
        assert outs[1] == outs[0]

    def test_missing_question_usage_error(self, corpus):
        assert main(["ask", "--corpus", str(corpus)]) == 1

    def test_chunk_size_zero_config_error(self, corpus):
        assert main(["ask", "--corpus", str(corpus), "--question", "q",
                     "--chunk-size", "0"]) == 1

    def test_missing_corpus_data_error(self, tmp_path):
        assert main(["ask", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--question", "q"]) == 2

    def test_corpus_not_utf8_data_error(self, corpus, capsys):
        corpus.write_bytes(corpus.read_bytes().replace(b"ZEBRA-7 marker", b"ZEBRA\xff"))
        assert main(["ask", "--corpus", str(corpus), "--question", "q"]) == 2
        assert "malformed line 5" in capsys.readouterr().err

    def test_corpus_body_not_a_string_data_error(self, corpus, capsys):
        lines = corpus.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["body"] = 5
        corpus.write_text("\n".join([lines[0], json.dumps(doc)] + lines[2:]) + "\n")
        assert main(["ask", "--corpus", str(corpus), "--question", "q"]) == 2
        assert "malformed line 2: field 'body' missing or not a str" in \
            capsys.readouterr().err


class TestSweep:
    @pytest.fixture
    def inputs(self, tmp_path):
        src = tmp_path / "export.jsonl"
        write_reddit(src, n=6)
        corpus = tmp_path / "corpus.jsonl"
        assert main(["ingest", "--format", "reddit-jsonl",
                     "--in", str(src), "--out", str(corpus)]) == 0
        qa = tmp_path / "qa.jsonl"
        write_qa(qa)
        return corpus, qa

    def test_sweep_writes_reports(self, inputs, tmp_path, capsys):
        corpus, qa = inputs
        out = tmp_path / "out"
        code = main(["sweep", "--corpus", str(corpus), "--qa", str(qa),
                     "--sizes", "100,200", "--out", str(out),
                     "--backend", "offline"])
        assert code == 0
        csv = (out / "report.csv").read_text()
        assert csv.splitlines()[0] == "chunk_size,mean_correctness,n"
        assert len(csv.splitlines()) == 3
        assert (out / "report.svg").is_file()
        assert (out / "100" / "results.jsonl").is_file()
        assert "argmax_sizes=" in capsys.readouterr().err

    def test_empty_ground_truth_is_a_data_error(self, inputs, tmp_path, capsys):
        corpus, qa = inputs
        qa.write_text(qa.read_text() + json.dumps(
            {"id": "q9", "question": "Why?", "ground_truth": ""}) + "\n")
        code = main(["sweep", "--corpus", str(corpus), "--qa", str(qa),
                     "--sizes", "100", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "malformed line 4: QA item 'q9' has empty ground_truth" in \
            capsys.readouterr().err

    def test_qa_field_of_wrong_type_is_a_data_error(self, inputs, tmp_path, capsys):
        corpus, qa = inputs
        qa.write_text(qa.read_text() + json.dumps(
            {"id": True, "question": None, "ground_truth": ["a", "b"]}) + "\n")
        out = tmp_path / "o"
        code = main(["sweep", "--corpus", str(corpus), "--qa", str(qa),
                     "--sizes", "100", "--out", str(out)])
        assert code == 2
        assert "malformed line 4: field 'id' missing or not a str or int" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("command", ["sweep", "ask"])
    def test_store_repeated_id_is_a_data_error(self, inputs, tmp_path, capsys, command):
        corpus, qa = inputs
        save_corpus([Document(id="a", body="one"),
                     Document(id="a", body="two")], corpus)
        args = (["--qa", str(qa), "--sizes", "100", "--out", str(tmp_path / "o")]
                if command == "sweep" else ["--question", "q"])
        assert main([command, "--corpus", str(corpus), *args]) == 2
        assert "malformed line 2: duplicate id 'a'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "ask"])
    def test_store_lone_surrogate_is_a_data_error(self, inputs, tmp_path, capsys, command):
        corpus, qa = inputs
        doc = Document(id="x", body="Half an emoji \ud83d.")
        corpus.write_text(corpus.read_text() + json.dumps(vars(doc)) + "\n")
        args = (["--qa", str(qa), "--sizes", "100", "--out", str(tmp_path / "o")]
                if command == "sweep" else ["--question", "q"])
        assert main([command, "--corpus", str(corpus), *args]) == 2
        assert capsys.readouterr().err == ("error: malformed line 7: field 'body' is not "
                                           "UTF-8 text: surrogates not allowed\n")

    def test_qa_lone_surrogate_is_a_data_error(self, inputs, tmp_path, capsys):
        corpus, qa = inputs
        qa.write_text(qa.read_text() + json.dumps(
            {"id": "q9", "question": "Half an emoji \ud83d?", "ground_truth": "G."}) + "\n")
        out = tmp_path / "o"
        assert main(["sweep", "--corpus", str(corpus), "--qa", str(qa),
                     "--sizes", "100", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: malformed line 4: field 'question' is "
                                           "not UTF-8 text: surrogates not allowed\n")
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("command", ["sweep", "ask"])
    def test_overlap_flag_is_a_usage_error(self, inputs, tmp_path, capsys, command):
        # chunks are consecutive windows; no flag sets an overlap
        corpus, qa = inputs
        out = tmp_path / "o"
        args = (["sweep", "--qa", str(qa), "--sizes", "100,200", "--out", str(out)]
                if command == "sweep" else ["ask", "--question", "q"])
        assert main(args + ["--corpus", str(corpus), "--overlap", "1"]) == 1
        assert "unrecognized arguments: --overlap 1\n" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("which", ["corpus", "qa"])
    def test_input_not_utf8_is_a_data_error(self, inputs, tmp_path, capsys, which):
        corpus, qa = inputs
        path = corpus if which == "corpus" else qa
        path.write_bytes(path.read_bytes() + b'{"id": "\xff"}\n')
        line_no = len(path.read_bytes().splitlines())
        code = main(["sweep", "--corpus", str(corpus), "--qa", str(qa),
                     "--sizes", "100", "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"malformed line {line_no}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,obj", [
        ([], {"metric": {"judge": "remote"}}),
        (["--backend", "offline"], {"metric": {"judge": "remote"},
                                    "embedder": {"kind": "remote",
                                                 "endpoint_url": "http://127.0.0.1:9"}}),
    ])
    def test_remote_judge_needs_remote_backend(self, tmp_path, capsys, flags, obj):
        # the mock backend cannot answer a judge prompt; the sweep says so
        # before it reads any input, so missing inputs are not the error
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(obj))
        assert main(["sweep", "--corpus", str(tmp_path / "none.jsonl"),
                     "--qa", str(tmp_path / "none.jsonl"), "--sizes", "100",
                     "--out", str(tmp_path / "o"), "--config", str(cfg)] + flags) == 1
        assert capsys.readouterr().err == \
            'config error: metric.judge "remote" needs the remote backend\n'

    def test_bad_sizes_value_is_a_config_error(self, inputs, tmp_path, capsys):
        corpus, qa = inputs
        assert main(["sweep", "--corpus", str(corpus), "--qa", str(qa),
                     "--sizes", "100,x", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "config error: bad --sizes value '100,x'\n"

    @pytest.mark.parametrize("flags", [["--sizes="], ["--sizes", ""], ["--sizes", " "]])
    def test_empty_sizes_value_is_a_config_error(self, inputs, tmp_path, capsys, flags):
        # an empty value is given, not absent: it must not run the default sizes
        corpus, qa = inputs
        assert main(["sweep", "--corpus", str(corpus), "--qa", str(qa), *flags,
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "config error: chunk_sizes must be non-empty\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("weights", ['"w_factual": NaN', '"w_factual": Infinity'],
                             ids=["nan-factual", "infinite-factual"])
    def test_non_finite_weight_rejected(self, inputs, tmp_path, capsys, weights):
        # Python's json reads NaN and Infinity; the sweep must not run on them
        corpus, qa = inputs
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"metric": {%s}}' % weights)
        out = tmp_path / "o"
        assert main(["sweep", "--corpus", str(corpus), "--qa", str(qa), "--sizes", "100",
                     "--backend", "offline", "--out", str(out), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == \
            f"config error: {cfg}:metric: w_factual must be in [0, 1]\n"
        assert not (out / "report.csv").exists()

    def test_non_increasing_sizes_exit_1(self, inputs, tmp_path):
        corpus, qa = inputs
        assert main(["sweep", "--corpus", str(corpus), "--qa", str(qa),
                     "--sizes", "100,50", "--out", str(tmp_path / "o")]) == 1

    def test_warm_cache_identical_csv(self, inputs, tmp_path):
        # the offline backend is never cached: a sweep with --cache-dir
        # creates no store, and its rerun writes the same reports
        corpus, qa = inputs
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        cache = tmp_path / "cache"
        common = ["sweep", "--corpus", str(corpus), "--qa", str(qa),
                  "--sizes", "100,200", "--backend", "offline",
                  "--cache-dir", str(cache)]
        assert main(common + ["--out", str(out1)]) == 0
        assert not cache.exists()
        assert main(common + ["--out", str(out2)]) == 0
        assert not cache.exists()
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "report.svg").read_bytes() == (out2 / "report.svg").read_bytes()

    def test_remote_warm_rerun_sends_no_chat_requests(self, inputs, tmp_path,
                                                      fake_server):
        corpus, qa = inputs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"embedder": {"endpoint_url": fake_server.url}}))
        common = ["sweep", "--corpus", str(corpus), "--qa", str(qa),
                  "--sizes", "100,200", "--backend", "remote",
                  "--config", str(cfg), "--cache-dir", str(tmp_path / "cache")]
        assert main(common + ["--out", str(tmp_path / "o1")]) == 0
        cold = {path for path, _, _ in fake_server.requests}
        assert cold == {"/v1/chat/completions", "/v1/embeddings"}
        sent = len(fake_server.requests)
        assert main(common + ["--out", str(tmp_path / "o2")]) == 0
        # no chat and no embedding requests
        assert len(fake_server.requests) == sent
        for name in ("report.csv", "report.svg", "100/results.jsonl"):
            assert (tmp_path / "o1" / name).read_bytes() == \
                (tmp_path / "o2" / name).read_bytes()


    def test_changed_model_misses_the_answer_cache(self, inputs, tmp_path, fake_server):
        # answers are keyed on the model they are sent to, so a sweep with
        # another llm_model asks it again instead of reusing the old answers
        corpus, qa = inputs
        cfg = tmp_path / "cfg.json"

        def sweep(model, out):
            cfg.write_text(json.dumps({"embedder": {"endpoint_url": fake_server.url},
                                       "llm_model": model}))
            sent = len(fake_server.requests)
            assert main(["sweep", "--corpus", str(corpus), "--qa", str(qa),
                         "--sizes", "100", "--backend", "remote", "--config", str(cfg),
                         "--cache-dir", str(tmp_path / "cache"),
                         "--out", str(tmp_path / out)]) == 0
            return [payload["model"] for path, payload, _ in fake_server.requests[sent:]
                    if path == "/v1/chat/completions"]

        assert set(sweep("model-a", "o1")) == {"model-a"}
        chat = sweep("model-b", "o2")
        assert chat and set(chat) == {"model-b"}
        assert sweep("model-b", "o3") == []  # same model: every answer is cached


    @pytest.mark.parametrize("failure", ["backend-down", "malformed-qa"])
    def test_failed_sweep_leaves_no_old_outputs(self, inputs, tmp_path, monkeypatch,
                                                failure):
        # whether the sweep fails in a backend or on its input, before the
        # sweep starts, no file of the earlier run is left in --out
        corpus, qa = inputs
        out = tmp_path / "out"
        args = ["sweep", "--corpus", str(corpus), "--qa", str(qa),
                "--sizes", "100,200", "--out", str(out)]
        assert main(args) == 0

        def generate_down(req):
            raise RagBenchError("backend down")

        if failure == "backend-down":
            monkeypatch.setattr(cli_mod, "mock_generate", generate_down)
        else:
            qa.write_text(json.dumps({"id": "q1", "question": "Why?"}) + "\n")
        assert main(args) == 2
        for name in ("report.csv", "report.svg", "100/results.jsonl",
                     "200/results.jsonl"):
            assert not (out / name).exists()

    def test_sweep_removes_results_of_sizes_it_does_not_run(self, inputs, tmp_path):
        # a sweep over fewer sizes into the same --out leaves no results.jsonl
        # of the earlier sizes beside a report that does not list them; files
        # a sweep does not write stay
        corpus, qa = inputs
        out = tmp_path / "out"
        args = ["sweep", "--corpus", str(corpus), "--qa", str(qa), "--out", str(out)]
        assert main(args + ["--sizes", "100,200"]) == 0
        kept = [out / "notes" / "results.jsonl", out / "200" / "notes.txt",
                out / "notes.txt"]
        for path in kept:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("mine\n")
        assert main(args + ["--sizes", "100"]) == 0
        assert not (out / "200" / "results.jsonl").exists()
        assert (out / "100" / "results.jsonl").is_file()
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["100"]
        assert [p.read_text() for p in kept] == ["mine\n"] * 3

    def test_keep_going_flag_is_a_usage_error(self, inputs, tmp_path, capsys):
        # a sweep reports every size or fails; no flag writes a failed size
        corpus, qa = inputs
        out = tmp_path / "o"
        assert main(["sweep", "--corpus", str(corpus), "--qa", str(qa),
                     "--sizes", "100,200", "--keep-going", "--out", str(out)]) == 1
        assert capsys.readouterr().err.endswith("unrecognized arguments: --keep-going\n")
        assert not (out / "report.csv").exists()

    def test_failed_size_fails_the_sweep(self, inputs, tmp_path, monkeypatch, capsys):
        # the error is the only line: no size's summary and no report
        corpus, qa = inputs
        mock_generate = cli_mod.mock_generate

        def generate_down_for_q1(req):
            if "topic 1?" in req.messages[-1]["content"]:
                raise RagBenchError("backend down")
            return mock_generate(req)

        monkeypatch.setattr(cli_mod, "mock_generate", generate_down_for_q1)
        out = tmp_path / "o"
        assert main(["sweep", "--corpus", str(corpus), "--qa", str(qa),
                     "--sizes", "100,200", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: [qa q1] backend down\n"
        assert not (out / "report.csv").exists()

    def test_rerun_of_the_finished_sizes_sends_no_chat_request(self, tmp_path, fake_server,
                                                                monkeypatch):
        # after a size fails, a rerun with the same --cache-dir over the sizes
        # that wrote results.jsonl replays their answers. Only a size-400
        # prompt exceeds 1,000 chars; its reply is malformed, so it is
        # neither retried nor stored
        corpus, qa, cfg = (tmp_path / name for name in ("corpus.jsonl", "qa.jsonl", "cfg.json"))
        save_corpus([Document(id=f"d{i}", body=f"Topic {i} is about body text. " * 40)
                     for i in range(6)], corpus)
        write_qa(qa)
        cfg.write_text(json.dumps({"embedder": {"endpoint_url": fake_server.url}}))
        default = fake_server._default_body
        monkeypatch.setattr(fake_server, "_default_body", lambda path, payload: (
            {"choices": []} if path.endswith("/chat/completions")
            and len(payload["messages"][-1]["content"]) > 1000 else default(path, payload)))
        out = tmp_path / "out"
        args = ["sweep", "--corpus", str(corpus), "--qa", str(qa), "--backend", "remote",
                "--config", str(cfg), "--cache-dir", str(tmp_path / "cache"),
                "--out", str(out)]
        assert main(args + ["--sizes", "100,400"]) == 2
        assert not (out / "report.csv").exists()
        finished = (out / "100" / "results.jsonl").read_bytes()
        sent = len(fake_server.requests)
        assert main(args + ["--sizes", "100"]) == 0
        assert [path for path, _, _ in fake_server.requests[sent:]
                if path == "/v1/chat/completions"] == []
        assert (out / "100" / "results.jsonl").read_bytes() == finished

    def test_config_embedder_kind_picks_backend(self, inputs, tmp_path, fake_server):
        # no --backend: the config's "kind": "remote" is what the sweep uses
        corpus, qa = inputs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"embedder": {"kind": "remote",
                                                "endpoint_url": fake_server.url}}))
        assert main(["sweep", "--corpus", str(corpus), "--qa", str(qa),
                     "--sizes", "100", "--out", str(tmp_path / "o"),
                     "--config", str(cfg)]) == 0
        assert {path for path, _, _ in fake_server.requests} == \
            {"/v1/chat/completions", "/v1/embeddings"}


    def test_remote_sweep_caps_requests_per_backend(self, tmp_path, fake_server,
                                                    monkeypatch):
        # enough chunks for several embedding batches per size, so chunk
        # embedding runs its own requests while the sweep's pool answers
        corpus = tmp_path / "corpus.jsonl"
        save_corpus([Document(id=f"d{i}",
                              body=" ".join(f"Doc {i} step {j}: patch the router."
                                            for j in range(40)))
                     for i in range(24)], corpus)
        qa = tmp_path / "qa.jsonl"
        write_qa(qa, n=12)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"embedder": {"endpoint_url": fake_server.url}}))
        lock = threading.Lock()
        in_flight, peak = Counter(), Counter()
        post = http_mod._post

        def counting_post(url, data, timeout_s):
            path = "embed" if url.endswith("/embeddings") else "chat"
            with lock:
                in_flight[path] += 1
                peak[path] = max(peak[path], in_flight[path])
            try:
                time.sleep(0.005)  # a backend's latency, so requests overlap
                return post(url, data, timeout_s)
            finally:
                with lock:
                    in_flight[path] -= 1

        monkeypatch.setattr(http_mod, "_post", counting_post)
        assert main(["sweep", "--corpus", str(corpus), "--qa", str(qa),
                     "--sizes", "100,200,400", "--backend", "remote",
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert 1 <= peak["chat"] <= http_mod.MAX_CONCURRENCY
        assert 1 <= peak["embed"] <= http_mod.MAX_CONCURRENCY


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"no_such_key": 1}')
        assert main(["ask", "--corpus", "x", "--question", "q",
                     "--config", str(cfg)]) == 1

    def test_output_dir_is_not_a_config_key(self, tmp_path, capsys):
        # the sweep writes to --out; a config file cannot redirect it
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"output_dir": "elsewhere"}')
        assert main(["ask", "--corpus", "x", "--question", "q",
                     "--config", str(cfg)]) == 1
        assert "unknown keys ['output_dir']" in capsys.readouterr().err

    @pytest.mark.parametrize("obj", [
        {"rag": {"top_k": "5"}}, {"rag": {"top_k": True}}, {"rag": {"top_k": 5.0}},
        {"cache_dir": 5},
        {"llm_model": ["x"]}, {"chunk_sizes": [250, "500"]}, {"chunk_sizes": 250},
        {"rag": {"model": 5}}, {"rag": {"top_k": None}},
        {"metric": {"w_factual": "1"}}, {"embedder": {"endpoint_url": False}},
        # and values with which no embedding could be made
        {"embedder": {"kind": 5}}, {"embedder": {"kind": "hashed"}},
        {"embedder": {"kind": "remote"}},
    ])
    def test_value_of_the_wrong_type_rejected(self, tmp_path, capsys, obj):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(obj))
        assert main(["ask", "--corpus", "x", "--question", "q",
                     "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {cfg}:")

    @pytest.mark.parametrize("section, key", [
        # both backends use the _http constants; no key changes them
        ("embedder", "timeout_ms"), ("embedder", "max_retries"),
        ("embedder", "max_concurrency"),
        # every answer request carries rag.SYSTEM_PROMPT, the prompt
        # rag.PROMPT_TEMPLATE makes and llm.MAX_TOKENS
        ("rag", "system_prompt"), ("rag", "prompt_template"), ("rag", "max_tokens"),
        # the semantic weight is 1 - w_factual
        ("metric", "w_semantic"),
        # the offline embedder is embed.OFFLINE_DIM wide, and the lexical
        # judge's threshold is LexicalJudge's default
        ("embedder", "dim"), ("metric", "jaccard_threshold"),
        # chunks are consecutive windows, without overlap
        ("", "overlap"),
    ])
    def test_deleted_key_is_not_a_config_key(self, tmp_path, capsys, section, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: 1}} if section else {key: 1}))
        assert main(["ask", "--corpus", "x", "--question", "q",
                     "--config", str(cfg)]) == 1
        where = f"{cfg}:{section}" if section else cfg
        assert capsys.readouterr().err == f"config error: {where}: unknown keys ['{key}']\n"

    def test_settable_keys(self):
        # every value a config file can set, as a dotted name: a new key
        # is added here on purpose, with the aim it serves
        app = AppConfig()
        names = set()
        for f in dataclasses.fields(app):
            value = getattr(app, f.name)
            names |= ({f"{f.name}.{g.name}" for g in dataclasses.fields(value)}
                      if dataclasses.is_dataclass(value) else {f.name})
        assert names == {
            "embedder.kind", "embedder.endpoint_url", "embedder.model",
            "rag.top_k", "rag.max_context_chars", "rag.model",
            "metric.w_factual", "metric.judge",
            "chunk_sizes", "llm_endpoint_url", "llm_model", "cache_dir",
        }

    @pytest.mark.parametrize("data", [
        pytest.param(b'{"llm_model": "caf\xe9"}', id="latin-1"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-too-deep"),
    ])
    def test_unparsable_file_is_a_config_error(self, tmp_path, capsys, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        assert main(["ask", "--corpus", "x", "--question", "q",
                     "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {cfg}: ")

    @pytest.mark.parametrize("section, key, value", [
        pytest.param("", "cache_dir", "x\ud83d", id="cache_dir"),
        pytest.param("rag", "model", "m\ud83d", id="rag.model"),
        pytest.param("embedder", "endpoint_url", "{url}/\ud83d", id="embedder.endpoint_url"),
    ])
    def test_lone_surrogate_is_a_config_error(self, tmp_path, corpus, capsys, fake_server,
                                              section, key, value):
        # a cache dir, model or endpoint that no path or request key can
        # encode is rejected by the rule corpus fields follow, and no request
        # is sent
        obj = {"embedder": {"kind": "remote", "endpoint_url": fake_server.url}}
        (obj.setdefault(section, {}) if section else obj)[key] = value.format(url=fake_server.url)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(obj))
        assert main(["ask", "--corpus", str(corpus), "--question", "q",
                     "--config", str(cfg)]) == 1
        where = f"{cfg}:{section}" if section else cfg
        assert capsys.readouterr().err == (f"config error: {where}: field {key!r} "
                                           "is not UTF-8 text: surrogates not allowed\n")
        assert fake_server.requests == []

    def test_leading_bom_ignored(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'\xef\xbb\xbf{"chunk_sizes": [100]}')
        assert load_app_config(cfg).chunk_sizes == [100]

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```json\n(.*?)^```$", readme, re.M | re.S)
        assert len(blocks) == 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(blocks[0])
        embedder = load_app_config(cfg).embedder
        assert type(embedder) is EmbedderConfig and embedder.kind == "remote"

    @pytest.mark.parametrize("flag,expected", [
        pytest.param("from-flag", "from-flag", id="flag-over-file"),
        pytest.param("", "", id="empty-flag-over-file"),
        pytest.param(None, "from-file", id="file"),
    ])
    def test_cache_dir_from_flag_then_file(self, tmp_path, flag, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"cache_dir": "from-file"}')
        assert cli_mod._resolve_app(str(cfg), flag).cache_dir == expected

    def test_int_accepted_for_a_float(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"metric": {"w_factual": 1}}')
        assert load_app_config(cfg).metric.w_factual == 1

    def test_bad_file_sizes_rejected_under_sizes_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"chunk_sizes": [500, 250]}')
        assert main(["sweep", "--corpus", "x", "--qa", "y", "--sizes", "100",
                     "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 1
        assert f"config error: {cfg}: chunk_sizes must be strictly increasing" in \
            capsys.readouterr().err

    def test_config_applies(self, tmp_path, capsys):
        src = tmp_path / "export.jsonl"
        write_reddit(src, n=3)
        corpus = tmp_path / "corpus.jsonl"
        main(["ingest", "--format", "reddit-jsonl",
              "--in", str(src), "--out", str(corpus)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"rag": {"top_k": 2}}')
        code = main(["ask", "--corpus", str(corpus), "--question", "Body text",
                     "--chunk-size", "100", "--config", str(cfg)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("score=") == 2


class TestMakeBackends:
    def test_lexical_judge_at_default_threshold(self):
        with cli_mod._make_backends(AppConfig()) as (_, _, _, judge, _):
            assert type(judge) is LexicalJudge
            assert judge.jaccard_threshold == 0.6

    def test_remote_judge_with_llm_model(self):
        app = AppConfig(embedder=EmbedderConfig(kind="remote", endpoint_url="http://127.0.0.1:9"),
                        metric=MetricConfig(judge="remote"), llm_model="judge-model")
        with cli_mod._make_backends(app) as (_, _, generate_fn, judge, _):
            assert type(judge) is RemoteJudge
            assert judge.model == "judge-model"
            assert judge.generate_fn is generate_fn

    def test_two_threads_embed_a_text_once_without_a_cache_dir(self, fake_server, in_threads,
                                                              tmp_path, monkeypatch):
        # a run without a cache dir still answers repeats from a store, one
        # it removes on exit: two threads that embed one text at once, as
        # two questions may after a failed batch, send one request
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        fake_server.script.append((200, {"data": [{"embedding": [1.0] * 8}]}, {}, 0.2))
        app = AppConfig(embedder=EmbedderConfig(kind="remote", endpoint_url=fake_server.url))
        with cli_mod._make_backends(app) as (_, embed_single_fn, _, _, _):
            out = in_threads(2, lambda i: embed_single_fn(["same"]))
        assert len(fake_server.requests) == 1
        assert [v.tolist() for (v,) in out] == [[1.0] * 8] * 2
        assert list(tmp_path.iterdir()) == []


class TestHelp:
    @pytest.mark.parametrize("args", [["--help"], ["ingest", "--help"],
                                      ["ask", "--help"], ["sweep", "--help"]])
    def test_help_exits_zero(self, args, capsys):
        assert main(args) == 0
        assert capsys.readouterr().out.startswith("usage: ragbench")


class TestCommandLine:
    @pytest.mark.parametrize("args", [
        pytest.param([], id="no-command"),
        pytest.param(["bogus"], id="unknown-command"),
        pytest.param(["ask", "--corpus", "corpus.jsonl", "--question", "q", "extra"],
                     id="extra-argument"),
        pytest.param(["ask", "--corp", "corpus.jsonl", "--question", "q"],
                     id="abbreviated-flag"),
        pytest.param(["ask", "--corpus", "corpus.jsonl", "--question", "q",
                      "--chunk-size", "x"], id="chunk-size-not-an-int"),
        pytest.param(["ask", "--corpus", "corpus.jsonl", "--question", "-x"],
                     id="value-with-a-leading-dash"),
    ])
    def test_bad_command_line_exits_1(self, corpus, monkeypatch, args):
        # corpus.jsonl exists, so each fails only on how its command line is read
        monkeypatch.chdir(corpus.parent)
        assert main(args) == 1

    def test_option_value_with_a_leading_dash_after_equals(self, corpus, capsys):
        assert main(["ask", "--corpus", str(corpus), "--question=-x"]) == 0
        assert "retrieved:" in capsys.readouterr().out

    def test_negative_number_follows_its_flag(self, corpus, capsys):
        # read as the flag's value, so the config check rejects it
        assert main(["ask", "--corpus", str(corpus), "--question", "q",
                     "--top-k", "-5"]) == 1
        assert capsys.readouterr().err == "config error: top_k must be >= 1\n"

    @pytest.mark.parametrize("args,path,reason", [
        pytest.param(["ask", "--corpus", "nope.jsonl", "--question", "q"], "nope.jsonl",
                     "No such file or directory", id="ask-corpus-missing"),
        pytest.param(["ask", "--corpus", ".", "--question", "q"], ".",
                     "Is a directory", id="ask-corpus-a-directory"),
        pytest.param(["sweep", "--corpus", "corpus.jsonl", "--qa", "nope.jsonl", "--out", "o"],
                     "nope.jsonl", "No such file or directory", id="sweep-qa-missing"),
        pytest.param(["ingest", "--format", "reddit-jsonl", "--in", "nope.jsonl",
                      "--out", "o.jsonl"], "nope.jsonl", "No such file or directory",
                     id="ingest-reddit-missing"),
        pytest.param(["ingest", "--format", "textdir", "--in", "nope", "--out", "o.jsonl"],
                     "nope", "No such file or directory", id="ingest-textdir-missing"),
        pytest.param(["ingest", "--format", "textdir", "--in", "corpus.jsonl",
                      "--out", "o.jsonl"], "corpus.jsonl", "Not a directory",
                     id="ingest-textdir-a-file"),
    ])
    def test_unreadable_input_path_is_an_io_error(self, corpus, monkeypatch, capsys,
                                                  args, path, reason):
        # every input path that cannot be read is reported alike, with its reason
        monkeypatch.chdir(corpus.parent)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("io error: [Errno ") and err.endswith(f"] {reason}: '{path}'\n")

    @pytest.mark.parametrize("args,message", [
        pytest.param(["ask", "--corpus", "empty.jsonl", "--question", "q"],
                     "no documents in empty.jsonl", id="ask-corpus-empty"),
        pytest.param(["sweep", "--corpus", "empty.jsonl", "--qa", "qa.jsonl", "--out", "o"],
                     "no documents in empty.jsonl", id="sweep-corpus-empty"),
        pytest.param(["sweep", "--corpus", "corpus.jsonl", "--qa", "empty.jsonl", "--out", "o"],
                     "no QA items in empty.jsonl", id="sweep-qa-empty"),
    ])
    def test_empty_input_file_is_a_data_error(self, corpus, monkeypatch, capsys,
                                              args, message):
        # an empty input file is named with what it lacks
        monkeypatch.chdir(corpus.parent)
        (corpus.parent / "empty.jsonl").write_bytes(b"")
        write_qa(corpus.parent / "qa.jsonl")
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("question", ["", "   "], ids=["empty", "spaces"])
    def test_blank_question_is_a_usage_error(self, tmp_path, capsys, question):
        # rejected before the corpus is read: this one does not exist
        assert main(["ask", "--corpus", str(tmp_path / "nope.jsonl"),
                     f"--question={question}"]) == 1
        assert capsys.readouterr() == ("", "config error: --question must not be blank\n")

    def test_question_not_utf8_is_a_usage_error(self, corpus):
        # argv bytes that are not UTF-8 reach Python as lone surrogates
        src = str(Path(cli_mod.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONUTF8": "1", "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        run = subprocess.run([sys.executable, "-m", "ragbench.cli", "ask", "--corpus",
                              str(corpus), b"--question=What is \xff?"],
                             capture_output=True, timeout=60, env=env)
        assert (run.returncode, run.stdout, run.stderr) == \
            (1, b"", b"config error: field '--question' is not UTF-8 text: "
                     b"surrogates not allowed\n")
