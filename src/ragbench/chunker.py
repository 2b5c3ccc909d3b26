"""Fixed-size chunking over document bodies: consecutive windows.

Sizes are counted in Unicode codepoints, never bytes, so multibyte text is
never split mid-character.
"""

from __future__ import annotations

from typing import NamedTuple

from .corpus import Document

ChunkRef = tuple[str, int]  # (doc_id, seq)


class Chunk(NamedTuple):
    """ref (doc_id, seq) holds the window text[seq * size:][:size] of its
    document's body; a chunk is the (chunk_ref, text) pair Index takes."""
    ref: ChunkRef
    text: str


def chunk_text(text: str, size: int) -> list[str]:
    """Split text into consecutive windows of size codepoints; the last may
    be shorter."""
    return [text[i:i + size] for i in range(0, len(text), size)]


def chunk_corpus(docs: list[Document], size: int) -> list[Chunk]:
    """Chunk every document body, concatenated in document order."""
    return [Chunk((doc.id, seq), window)
            for doc in docs for seq, window in enumerate(chunk_text(doc.body, size))]
