"""Full-prefix reference decoding for the tests.

Every step re-runs the whole decoder on the whole prefix through
`CaptionerModel.decode` and rescores from scratch. This is the slow,
obviously-correct search that the incremental, batched search in
`audiocap.decoding` is checked against.
"""

from __future__ import annotations

import numpy as np

from audiocap import autodiff as ad
from audiocap.decoding import BeamHypothesis
from audiocap.model import CaptionerModel
from audiocap.text import EOS, SOS


def step_log_probs(model: CaptionerModel, memory, prefix: list[int]) -> np.ndarray:
    """Log-softmax over the vocabulary for the next position after `prefix`."""
    with ad.no_grad():
        logits = model.decode(np.asarray([prefix]), memory)
    row = logits.data[0, -1]
    shifted = row - row.max()
    return shifted - np.log(np.exp(shifted).sum())


def hypothesis_score_by_replay(model: CaptionerModel, memory,
                               tokens: list[int]) -> float:
    """Recompute a hypothesis score with fresh forward passes (oracle for
    the stored cumulative log-probability)."""
    prefix = [SOS]
    total = 0.0
    for tok in tokens:
        total += float(step_log_probs(model, memory, prefix)[tok])
        prefix.append(tok)
    return total


def reference_beam_search(model: CaptionerModel, memory, beam_size: int,
                          max_len: int, banned: tuple[int, ...],
                          length_norm: bool = False):
    """Beam search over full prefixes, one hypothesis at a time: every
    candidate is built, all are sorted by (-log_prob, tokens) and the first
    beam_size survive; <eos> retires a hypothesis. Returns (ids, pool) with
    the pool ranked as `beam_search_decode` ranks it."""
    live = [BeamHypothesis(tokens=[], log_prob=0.0, finished=False)]
    completed: list[BeamHypothesis] = []
    for _ in range(max_len):
        candidates: list[BeamHypothesis] = []
        for hyp in live:
            logp = step_log_probs(model, memory, [SOS] + hyp.tokens)
            for tok in range(logp.shape[0]):
                if tok in banned:
                    continue
                candidates.append(BeamHypothesis(
                    tokens=hyp.tokens + [tok],
                    log_prob=hyp.log_prob + float(logp[tok]),
                    finished=tok == EOS))
        candidates.sort(key=lambda h: (-h.log_prob, h.tokens))
        live = []
        for hyp in candidates[:beam_size]:
            (completed if hyp.finished else live).append(hyp)
        if not live:
            break

    def rank(h: BeamHypothesis) -> tuple:
        score = h.log_prob / len(h.tokens) if length_norm and h.tokens else h.log_prob
        return (-score, h.tokens)

    pool = sorted(completed + live, key=rank)
    ids = [SOS] + pool[0].tokens
    if ids[-1] != EOS:
        ids.append(EOS)
    return ids, pool
