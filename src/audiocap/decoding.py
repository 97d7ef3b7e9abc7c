"""Autoregressive caption generation: incremental, batched beam search.

Each step decodes the newest token of every live hypothesis as one batch
through `CaptionerModel.decode_step`, which reuses cached attention keys and
values instead of re-running the decoder on whole prefixes. Greedy decoding
is the beam_size=1 case. The search stops as soon as its answer is fixed
(see `beam_search_decode`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .model import CaptionerModel
from .text import EOS, PAD, SOS, UNK

DEFAULT_MAX_LEN = 22
DEFAULT_BANNED = (PAD, UNK)


@dataclass
class BeamHypothesis:
    tokens: list[int]   # generated ids, <sos> excluded
    log_prob: float     # exact sum of per-step log-softmax values
    finished: bool      # emitted <eos>; never extended further


def greedy_decode(model: CaptionerModel, memory, max_len: int = DEFAULT_MAX_LEN,
                  banned: tuple[int, ...] = DEFAULT_BANNED) -> list[int]:
    """Argmax decoding (ties resolve to the lowest id); stops at <eos> or
    max_len, appending <eos> if the cap was hit."""
    return beam_search_decode(model, memory, 1, max_len=max_len, banned=banned)


def _rank_key(hyp: BeamHypothesis, length_norm: bool) -> tuple:
    score = hyp.log_prob / len(hyp.tokens) if length_norm and hyp.tokens else hyp.log_prob
    return (-score, hyp.tokens)


def beam_search_decode(model: CaptionerModel, memory, beam_size: int,
                       max_len: int = DEFAULT_MAX_LEN,
                       banned: tuple[int, ...] = DEFAULT_BANNED,
                       length_norm: bool = False,
                       return_topk: bool = False):
    """Breadth-limited best-first search over token sequences.

    Every live hypothesis is expanded by every allowed token; the top
    beam_size candidates by cumulative log-probability survive (ties break
    toward the lexicographically smaller sequence). Hypotheses that emit
    <eos> retire to a completed pool and are never extended. The result is
    the best-scoring hypothesis among the completed pool and the survivors
    still live at max_len (so a wide beam reduces to exhaustive search),
    plus the ranked hypothesis list when return_topk is set.

    Early stop: a step's log-probabilities are <= 0, so without length_norm
    a live score can only fall. Once the best completed score is strictly
    above every live score the answer is fixed, and the search ends there.
    A tie must go on: an exactly-zero step would keep the live score level,
    and the token tie-break could then rank the live hypothesis first. With
    return_topk (whose pool the early stop would shrink) or length_norm (where
    a longer hypothesis can rise), every step up to max_len runs.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")

    allowed = np.array([t for t in range(model.dec_cfg.vocab_size) if t not in banned],
                       dtype=np.int64)
    cache = model.start_decoding(memory)
    live = [BeamHypothesis(tokens=[], log_prob=0.0, finished=False)]
    last_ids = [SOS]
    completed: list[BeamHypothesis] = []
    best_completed = -np.inf
    stop_early = not (return_topk or length_norm)
    for _ in range(max_len):
        logp = ad.log_softmax(model.decode_step(last_ids, cache), axis=-1).data
        scores = (np.array([h.log_prob for h in live])[:, None]
                  + logp[:, allowed]).ravel()
        # every candidate tied with the beam_size-th best score is kept, so
        # the exact (score, tokens) order below decides among them
        k = scores.size - beam_size
        cut = np.partition(scores, k)[k] if k > 0 else -np.inf
        picked = np.flatnonzero(scores >= cut)
        parents, cols = np.divmod(picked, allowed.size)
        candidates = sorted(
            ((score, live[p].tokens + [tok], p) for score, tok, p in zip(
                scores[picked].tolist(), allowed[cols].tolist(), parents.tolist())),
            key=lambda c: (-c[0], c[1]))[:beam_size]

        next_live, rows = [], []
        for score, tokens, parent in candidates:
            hyp = BeamHypothesis(tokens=tokens, log_prob=score, finished=tokens[-1] == EOS)
            if hyp.finished:
                completed.append(hyp)
                best_completed = max(best_completed, score)
            else:
                next_live.append(hyp)
                rows.append(parent)
        live = next_live
        # live is ranked best first
        if not live or (stop_early and best_completed > live[0].log_prob):
            break
        cache.reorder(rows)
        last_ids = [hyp.tokens[-1] for hyp in live]

    pool = sorted(completed + live, key=lambda h: _rank_key(h, length_norm))
    best = pool[0]
    ids = [SOS] + best.tokens
    if ids[-1] != EOS:
        ids.append(EOS)
    if return_topk:
        return ids, pool
    return ids
