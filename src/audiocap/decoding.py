"""Autoregressive caption generation: incremental beam search over many
clips in lockstep.

Each step decodes the newest token of every live hypothesis of every clip
still searching as one batch through `CaptionerModel.decode_step`, which
runs those positions through the same decoder layer call as training,
reusing cached attention keys and values instead of re-running the decoder
on whole prefixes; every projection is one 2-D GEMM over all the rows. Each clip keeps its own hypotheses, completed pool and early stop
(see `beam_search_decode`), and leaves the batch once its answer is fixed.
`beam_search_clips` captions a stream of clips in lockstep groups of at most
LOCKSTEP_CLIPS; `beam_search_decode` is the one-clip case, and greedy
decoding is its beam_size=1 case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from . import autodiff as ad
from .model import CaptionerModel, DecoderCache
from .text import EOS, PAD, SOS, UNK

DEFAULT_MAX_LEN = 22
DEFAULT_BANNED = (PAD, UNK)
# Clips searched in one lockstep group. A group holds each clip's
# cross-attention keys and values, 2 * layers * S * d_dec floats: about
# 0.64 MB at desk size (2 layers, S = 157, d = 128), so a group of 16 holds
# about 10 MB while its decoding steps cost a fraction of 16 one-clip steps.
LOCKSTEP_CLIPS = 16


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


@dataclass
class _ClipSearch:
    """One clip's beam: its live hypotheses (ranked best first, one cache
    row each, in order), its completed pool and the best completed score."""
    live: list[BeamHypothesis] = field(
        default_factory=lambda: [BeamHypothesis(tokens=[], log_prob=0.0, finished=False)])
    completed: list[BeamHypothesis] = field(default_factory=list)
    best_completed: float = -np.inf

    def advance(self, logp: np.ndarray, allowed: np.ndarray, beam_size: int) -> list[int]:
        """Extend the live hypotheses by the log-probabilities `logp`, one
        row per live hypothesis; returns the parent row of each new live
        hypothesis."""
        scores = (np.array([h.log_prob for h in self.live])[:, None]
                  + logp[:, allowed]).ravel()
        # every candidate tied with the beam_size-th best score is kept, so
        # the exact (score, tokens) order below decides among them
        k = scores.size - beam_size
        cut = np.partition(scores, k)[k] if k > 0 else -np.inf
        picked = np.flatnonzero(scores >= cut)
        parents, cols = np.divmod(picked, allowed.size)
        candidates = sorted(
            ((score, self.live[p].tokens + [tok], p) for score, tok, p in zip(
                scores[picked].tolist(), allowed[cols].tolist(), parents.tolist())),
            key=lambda c: (-c[0], c[1]))[:beam_size]

        self.live, rows = [], []
        for score, tokens, parent in candidates:
            hyp = BeamHypothesis(tokens=tokens, log_prob=score, finished=tokens[-1] == EOS)
            if hyp.finished:
                self.completed.append(hyp)
                self.best_completed = max(self.best_completed, score)
            else:
                self.live.append(hyp)
                rows.append(parent)
        return rows

    def fixed(self, stop_early: bool) -> bool:
        """Whether more steps cannot change the answer (see
        `beam_search_decode`); live is ranked best first."""
        return not self.live or (stop_early and self.best_completed > self.live[0].log_prob)

    def result(self, length_norm: bool, return_topk: bool):
        pool = sorted(self.completed + self.live, key=lambda h: _rank_key(h, length_norm))
        ids = [SOS] + pool[0].tokens
        if ids[-1] != EOS:
            ids.append(EOS)
        return (ids, pool) if return_topk else ids


def _lockstep(model: CaptionerModel, cache: DecoderCache, clips: int, beam_size: int,
              max_len: int, banned: tuple[int, ...], length_norm: bool,
              return_topk: bool) -> list:
    """The searches of the `clips` clips whose rows `cache` holds, one
    `decode_step` per position for every clip still searching; one result
    per clip, in order."""
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")

    allowed = np.array([t for t in range(model.dec_cfg.vocab_size) if t not in banned],
                       dtype=np.int64)
    searches = [_ClipSearch() for _ in range(clips)]
    active = searches  # clips still searching, in cache row order
    last_ids = [SOS] * clips
    stop_early = not (return_topk or length_norm)
    for _ in range(max_len):
        logp = ad.log_softmax(model.decode_step(last_ids, cache), axis=-1).data
        rows, last_ids, still = [], [], []
        first = 0
        for search in active:
            width = len(search.live)
            parents = search.advance(logp[first:first + width], allowed, beam_size)
            if not search.fixed(stop_early):
                rows += [first + p for p in parents]
                last_ids += [hyp.tokens[-1] for hyp in search.live]
                still.append(search)
            first += width
        active = still
        if not active:
            break
        cache.reorder(rows)
    return [search.result(length_norm, return_topk) for search in searches]


def beam_search_decode(model: CaptionerModel, memory, beam_size: int,
                       max_len: int = DEFAULT_MAX_LEN,
                       banned: tuple[int, ...] = DEFAULT_BANNED,
                       length_norm: bool = False,
                       return_topk: bool = False):
    """Breadth-limited best-first search over token sequences for one clip,
    memory (1, S, d_dec).

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
    return _lockstep(model, model.start_decoding(memory), 1, beam_size, max_len,
                     banned, length_norm, return_topk)[0]


def beam_search_clips(model: CaptionerModel, memories: Iterable, beam_size: int,
                      max_len: int = DEFAULT_MAX_LEN,
                      length_norm: bool = False) -> Iterator[list[int]]:
    """The `beam_search_decode` ids of each clip whose memory (1, S, d_dec)
    `memories` yields, in order. The clips are searched in lockstep groups
    of at most LOCKSTEP_CLIPS, all of one S: a group's memories are read and
    its cross-attention keys and values computed before its search, and the
    next group is read only after it."""
    memories = iter(memories)
    while group := list(islice(memories, LOCKSTEP_CLIPS)):
        cache = model.start_decoding(ad.concat(group, axis=0))
        clips = len(group)
        del group  # the search keeps only the keys and values
        yield from _lockstep(model, cache, clips, beam_size, max_len, DEFAULT_BANNED,
                             length_norm, False)
