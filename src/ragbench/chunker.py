"""Fixed-size sliding-window chunking over document bodies.

Sizes are counted in Unicode codepoints, never bytes, so multibyte text is
never split mid-character.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Document
from .errors import InvalidConfig


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


@dataclass(frozen=True)
class Chunk:
    """The window text[seq * stride:][:size] of its document's body."""
    doc_id: str
    seq: int
    text: str


def chunk_text(text: str, cfg: ChunkConfig, doc_id: str = "") -> list[Chunk]:
    """Split text into chunks of cfg.size codepoints every cfg.stride
    codepoints; stops after the first chunk reaching the end of text."""
    chunks = []
    for seq, start in enumerate(range(0, len(text), cfg.stride)):
        chunks.append(Chunk(doc_id=doc_id, seq=seq, text=text[start:start + cfg.size]))
        if start + cfg.size >= len(text):
            break
    return chunks


def chunk_corpus(docs: list[Document], cfg: ChunkConfig) -> list[Chunk]:
    """Chunk every document body, concatenated in document order."""
    out: list[Chunk] = []
    for doc in docs:
        out.extend(chunk_text(doc.body, cfg, doc_id=doc.id))
    return out
