"""Skip-gram word embeddings with negative sampling, for decoder init."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import stable_sigmoid
from .text import Vocabulary


@dataclass
class SkipGramResult:
    embeddings: np.ndarray       # (|V|, d_w) input-side matrix
    epoch_losses: list[float]    # mean negative-sampling loss per epoch


def skipgram_pairs(sentence: list[int], window: int) -> list[tuple[int, int]]:
    """All (center, context) pairs within `window` positions, both sides."""
    pairs = []
    for i, center in enumerate(sentence):
        lo = max(0, i - window)
        hi = min(len(sentence), i + window + 1)
        for j in range(lo, hi):
            if j != i:
                pairs.append((center, sentence[j]))
    return pairs


def train_skipgram(corpus: list[list[str]], vocab: Vocabulary, dim: int,
                   window: int = 2, negatives: int = 5, epochs: int = 10,
                   seed=0, lr: float = 0.05) -> SkipGramResult:
    """SGNS over tokenized sentences; noise distribution is unigram^0.75.

    Single-threaded and deterministic per seed; returns the input-side
    embedding matrix for all vocabulary ids (reserved rows included).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if negatives < 1:
        raise ValueError("negatives must be >= 1")
    sentences = [[vocab.id_of(w) for w in sent] for sent in corpus]
    pairs = [p for sent in sentences for p in skipgram_pairs(sent, window)]
    if not pairs:
        raise ValueError("corpus has no sentence longer than one token")

    counts = np.zeros(len(vocab))
    for sent in sentences:
        for wid in sent:
            counts[wid] += 1
    noise = counts ** 0.75
    noise /= noise.sum()

    rng = np.random.default_rng(seed)
    w_in = (rng.random((len(vocab), dim)) - 0.5) / dim
    w_out = np.zeros((len(vocab), dim))

    pair_arr = np.array(pairs)
    # the inverse-CDF draws rng.choice(len(vocab), p=noise) makes, taken for a
    # whole epoch at once from the same stream
    cdf = noise.cumsum()
    cdf /= cdf[-1]
    labels = np.zeros(negatives + 1)
    labels[0] = 1.0
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(pair_arr))
        drawn = cdf.searchsorted(rng.random((len(order), negatives)), side="right")
        total = 0.0
        for idx, negs in zip(order, drawn):
            center, context = pair_arr[idx]
            v = w_in[center]
            targets = np.concatenate([[context], negs])
            u = w_out[targets]
            scores = u @ v
            probs = stable_sigmoid(scores)
            total += -(np.log(np.maximum(1e-12, np.where(labels == 1, probs, 1 - probs)))).sum()
            err = probs - labels  # d loss / d score
            grad_v = err @ u
            w_out[targets] -= lr * err[:, None] * v[None, :]
            w_in[center] -= lr * grad_v
        losses.append(total / len(pair_arr))
    return SkipGramResult(embeddings=w_in, epoch_losses=losses)
