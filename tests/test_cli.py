import json

import pytest

from ragbench.cli import main


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
        write_reddit(src, n=3, extra_lines=[dup])
        assert main(["ingest", "--format", "reddit-jsonl",
                     "--in", str(src), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3
        assert "duplicates_removed=1" in capsys.readouterr().err

    def test_no_dedup_keeps_all(self, tmp_path):
        src = tmp_path / "export.jsonl"
        out = tmp_path / "corpus.jsonl"
        dup = json.dumps({"id": "dup", "subreddit": "s", "title": "Title 0",
                          "selftext": "Body text 0", "top_comment": "Answer 0"})
        write_reddit(src, n=3, extra_lines=[dup])
        assert main(["ingest", "--format", "reddit-jsonl", "--no-dedup",
                     "--in", str(src), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

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

    def test_textdir(self, tmp_path, capsys):
        src = tmp_path / "materials"
        src.mkdir()
        (src / "lesson1.md").write_text("Threat modeling basics.")
        (src / "lesson2.txt").write_text("Incident response steps.")
        out = tmp_path / "corpus.jsonl"
        assert main(["ingest", "--format", "textdir",
                     "--in", str(src), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2


class TestAsk:
    @pytest.fixture
    def corpus(self, tmp_path):
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

    def test_planted_marker_answered(self, corpus, capsys):
        code = main(["ask", "--corpus", str(corpus),
                     "--question", "What is ZEBRA-7?",
                     "--chunk-size", "200", "--backend", "offline"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ZEBRA-7" in out
        assert "retrieved:" in out
        assert "score=" in out

    def test_missing_question_usage_error(self, corpus):
        assert main(["ask", "--corpus", str(corpus)]) == 1

    def test_chunk_size_zero_config_error(self, corpus):
        assert main(["ask", "--corpus", str(corpus), "--question", "q",
                     "--chunk-size", "0"]) == 1

    def test_missing_corpus_data_error(self, tmp_path):
        assert main(["ask", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--question", "q"]) == 2


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

    def test_non_increasing_sizes_exit_1(self, inputs, tmp_path):
        corpus, qa = inputs
        assert main(["sweep", "--corpus", str(corpus), "--qa", str(qa),
                     "--sizes", "100,50", "--out", str(tmp_path / "o")]) == 1

    def test_warm_cache_identical_csv(self, inputs, tmp_path):
        corpus, qa = inputs
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        cache = tmp_path / "cache"
        common = ["sweep", "--corpus", str(corpus), "--qa", str(qa),
                  "--sizes", "100,200", "--backend", "offline",
                  "--cache-dir", str(cache)]
        assert main(common + ["--out", str(out1)]) == 0
        assert any(cache.iterdir())
        assert main(common + ["--out", str(out2)]) == 0
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
        def chat_requests():
            return sum(path.endswith("/chat/completions")
                       for path, _, _ in fake_server.requests)

        cold = chat_requests()
        assert cold > 0
        assert main(common + ["--out", str(tmp_path / "o2")]) == 0
        assert chat_requests() == cold
        for name in ("report.csv", "report.svg", "100/results.jsonl"):
            assert (tmp_path / "o1" / name).read_bytes() == \
                (tmp_path / "o2" / name).read_bytes()


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"no_such_key": 1}')
        assert main(["ask", "--corpus", "x", "--question", "q",
                     "--config", str(cfg)]) == 1

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


class TestHelp:
    @pytest.mark.parametrize("args", [["--help"], ["ingest", "--help"],
                                      ["ask", "--help"], ["sweep", "--help"]])
    def test_help_exits_zero(self, args, capsys):
        assert main(args) == 0
        assert "Usage" in capsys.readouterr().out
