"""Fixed-size sliding-window chunking over document bodies.

Sizes are counted in Unicode codepoints, never bytes, so multibyte text is
never split mid-character.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .corpus import Document
from .errors import InvalidConfig

ChunkRef = tuple[str, int]  # (doc_id, seq)


@dataclass(frozen=True)
class ChunkConfig:
    size: int
    overlap: int = 0

    def __post_init__(self):
        if self.size <= 0:
            raise InvalidConfig(f"chunk size must be > 0, got {self.size}")
        if self.overlap < 0 or self.overlap >= self.size:
            raise InvalidConfig(
                f"overlap must satisfy 0 <= overlap < size, got {self.overlap}"
            )

    @property
    def stride(self) -> int:
        return self.size - self.overlap


class Chunk(NamedTuple):
    """ref (doc_id, seq) holds the window text[seq * stride:][:size] of its
    document's body; a chunk is the (chunk_ref, text) pair Index takes."""
    ref: ChunkRef
    text: str


def chunk_text(text: str, cfg: ChunkConfig) -> list[str]:
    """Split text into windows of cfg.size codepoints every cfg.stride
    codepoints; stops after the first window reaching the end of text."""
    windows = []
    for start in range(0, len(text), cfg.stride):
        windows.append(text[start:start + cfg.size])
        if start + cfg.size >= len(text):
            break
    return windows


def chunk_corpus(docs: list[Document], cfg: ChunkConfig) -> list[Chunk]:
    """Chunk every document body, concatenated in document order."""
    return [Chunk((doc.id, seq), window)
            for doc in docs for seq, window in enumerate(chunk_text(doc.body, cfg))]
