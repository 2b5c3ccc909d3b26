"""Seeded synthetic corpus and QA set for the ragbench benchmark.

Documents are sentences over a pseudo-word vocabulary with a Zipf-like word
frequency, so retrieval has shared and rare terms to work with. Every body is
shorter than 2,500 codepoints, so it is a single chunk at sizes 4000 and
8000. Target body lengths are spread evenly over 500..2,499 and shuffled, so
every seed gives a corpus of nearly the same size and only the text changes.
Each QA item's ground truth is one sentence of a sampled document and its
question names some of that sentence's words.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

_MAX_BODY_CHARS = 2499
_MIN_BODY_CHARS = 500
_VOCAB_SIZE = 3000
_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"


def _vocabulary(rng: random.Random) -> list[str]:
    words: set[str] = set()
    while len(words) < _VOCAB_SIZE:
        syllables = rng.randint(1, 4)
        words.add("".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                          for _ in range(syllables)))
    return sorted(words)


def _sentence(rng: random.Random, vocab: list[str], cum_weights: list[float]) -> str:
    words = rng.choices(vocab, cum_weights=cum_weights, k=rng.randint(6, 16))
    return " ".join(words).capitalize() + "."


def generate(seed: int, n_docs: int, n_qa: int) -> tuple[list[dict], list[dict]]:
    """Return (documents, qa_items) as plain dicts in the ragbench file
    formats. The same arguments always give the same output."""
    rng = random.Random(seed)
    vocab = _vocabulary(rng)
    cum_weights, total = [], 0.0
    for rank in range(len(vocab)):
        total += 1.0 / (rank + 1)
        cum_weights.append(total)

    span = _MAX_BODY_CHARS - _MIN_BODY_CHARS
    targets = [_MIN_BODY_CHARS + span * i // max(1, n_docs - 1) for i in range(n_docs)]
    rng.shuffle(targets)
    docs, doc_sentences = [], []
    for i, target in enumerate(targets):
        sentences = [_sentence(rng, vocab, cum_weights)]
        while True:
            nxt = _sentence(rng, vocab, cum_weights)
            if sum(len(s) + 1 for s in sentences) + len(nxt) > target:
                break
            sentences.append(nxt)
        body = " ".join(sentences)
        docs.append({"id": f"d{i:05d}", "source": "bench",
                     "title": " ".join(sentences[0].split()[:4]),
                     "body": body, "score": rng.randint(0, 500),
                     "created_at": 1_600_000_000 + i})
        doc_sentences.append(sentences)

    qa = []
    for i in range(n_qa):
        sentence = rng.choice(doc_sentences[rng.randrange(n_docs)])
        words = sentence.rstrip(".").lower().split()
        picked = sorted(rng.sample(range(len(words)), k=min(4, len(words))))
        question = "What is said about " + " ".join(words[j] for j in picked) + "?"
        qa.append({"id": f"q{i:05d}", "question": question, "ground_truth": sentence})
    return docs, qa


def write_jsonl(rows: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False) + "\n")

