"""Per-pair skip-gram reference for the tests.

Each (center, context) pair draws its own negatives with
`rng.choice(p=noise)` right before its update. This is the loop that
`audiocap.word2vec.train_skipgram`, which draws an epoch's negatives in one
call, is checked against byte for byte.
"""

from __future__ import annotations

import numpy as np

from audiocap.autodiff import stable_sigmoid
from audiocap.text import Vocabulary
from audiocap.word2vec import skipgram_pairs


def train_skipgram_reference(corpus: list[list[str]], vocab: Vocabulary, dim: int,
                             window: int, negatives: int, epochs: int, seed,
                             lr: float = 0.05) -> tuple[np.ndarray, list[float]]:
    """(embeddings, epoch losses) of SGNS, one negative draw per pair."""
    sentences = [[vocab.id_of(w) for w in sent] for sent in corpus]
    pairs = [p for sent in sentences for p in skipgram_pairs(sent, window)]
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
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(pair_arr))
        total = 0.0
        for idx in order:
            center, context = pair_arr[idx]
            v = w_in[center]
            targets = np.concatenate(
                [[context], rng.choice(len(vocab), size=negatives, p=noise)])
            labels = np.zeros(len(targets))
            labels[0] = 1.0
            u = w_out[targets]
            scores = u @ v
            probs = stable_sigmoid(scores)
            total += -(np.log(np.maximum(1e-12, np.where(labels == 1, probs, 1 - probs)))).sum()
            err = probs - labels  # d loss / d score
            grad_v = err @ u
            w_out[targets] -= lr * err[:, None] * v[None, :]
            w_in[center] -= lr * grad_v
        losses.append(total / len(pair_arr))
    return w_in, losses
