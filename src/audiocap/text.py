"""Caption normalization, vocabulary and integer encoding."""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .atomic import write_atomic

PAD, SOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<sos>", "<eos>", "<unk>")


def tokenize_caption(text: str) -> list[str]:
    """Lowercase, strip all Unicode punctuation, split on whitespace runs."""
    lowered = text.lower()
    cleaned = "".join(
        ch for ch in lowered if not unicodedata.category(ch).startswith("P"))
    return cleaned.split()


@dataclass
class Vocabulary:
    """Dense word<->id bijection with fixed reserved ids 0..3."""

    id_to_word: list[str]
    word_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.word_to_id = {w: i for i, w in enumerate(self.id_to_word)}

    def __len__(self) -> int:
        return len(self.id_to_word)

    def id_of(self, word: str) -> int:
        return self.word_to_id.get(word, UNK)

    def word_of(self, idx: int) -> str:
        if not 0 <= idx < len(self.id_to_word):
            raise ValueError(f"token id {idx} out of range for vocab size {len(self)}")
        return self.id_to_word[idx]


def build_vocabulary(corpus: Sequence[Sequence[str]], min_count: int = 1) -> Vocabulary:
    """Words with frequency >= min_count, ids in descending-frequency order
    (ties broken lexicographically) after the four reserved ids."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if not corpus:
        raise ValueError("empty corpus")
    counts = Counter(w for sent in corpus for w in sent)
    kept = sorted((w for w, c in counts.items() if c >= min_count),
                  key=lambda w: (-counts[w], w))
    return Vocabulary(id_to_word=list(RESERVED) + kept)


def encode(words: Iterable[str], vocab: Vocabulary) -> list[int]:
    """<sos> + word ids (<unk> for OOV) + <eos>."""
    return [SOS] + [vocab.id_of(w) for w in words] + [EOS]


def decode(ids: Iterable[int], vocab: Vocabulary) -> list[str]:
    """Strip special tokens, map remaining ids back to words."""
    words = []
    for i in ids:
        word = vocab.word_of(int(i))
        if int(i) not in (PAD, SOS, EOS):
            words.append(word)
    return words


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """One word per line; line number k holds the word with id k + 4."""
    lines = [
        "# vocabulary: one word per line; id = line_index + 4",
        "# ids 0..3 are reserved: <pad> <sos> <eos> <unk>",
    ]
    lines.extend(vocab.id_to_word[len(RESERVED):])
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
