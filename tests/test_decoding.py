import itertools

import numpy as np
import pytest

from audiocap import autodiff as ad
from audiocap import decoding
from audiocap.decoding import (DEFAULT_BANNED, LOCKSTEP_CLIPS, beam_search_clips,
                               beam_search_decode, greedy_decode)
from audiocap.model import CaptionerModel, DecoderConfig, EncoderConfig
from audiocap.text import EOS, PAD, SOS, UNK
from beam_reference import (hypothesis_score_by_replay, reference_beam_search,
                            step_log_probs)


def toy_model(vocab_size=8, seed=0, dec_layers=1):
    enc = EncoderConfig(d=16, heads=2, layers=1, ffn_dim=32, dropout=0.0,
                        patch_dim=8, max_patches=4)
    dec = DecoderConfig(vocab_size=vocab_size, d=16, heads=2, layers=dec_layers,
                        ffn_dim=32, dropout=0.0)
    model = CaptionerModel(enc, dec, num_tags=1, seed=seed)
    # move off the near-uniform init so decoding has real structure
    rng = np.random.default_rng(seed + 100)
    for _, p in model.named_parameters():
        p.data += 0.15 * rng.standard_normal(p.data.shape)
    return model


def toy_memory(model, seed=0):
    rng = np.random.default_rng(seed)
    patches = rng.normal(size=(1, 3, 8))
    with ad.no_grad():
        return model.encoder_memory(model.encode(model.embed_patches(patches)))


# ---------------------------------------------------------------------------
# incremental decode step
# ---------------------------------------------------------------------------

def full_prefix_last_rows(model, memory, prefixes):
    with ad.no_grad():
        return np.stack([model.decode(np.asarray([p]), memory).data[0, -1]
                         for p in prefixes])


@pytest.mark.parametrize("seed", range(4))
def test_decode_step_equals_last_row_of_full_decode(seed):
    model = toy_model(seed=seed, dec_layers=2)
    memory = toy_memory(model, seed)
    rng = np.random.default_rng(seed + 200)
    cache = model.start_decoding(memory)
    prefixes = [[SOS]]
    for t in range(7):
        if t == 1:
            # three continuations of the one <sos> row
            cache.reorder([0, 0, 0])
            prefixes = [list(prefixes[0]) for _ in range(3)]
            # the newest tokens are not in the cache yet, so they may differ
            prefixes[1][-1], prefixes[2][-1] = 6, 7
        if t == 3:
            # keep the third sequence twice and the first once, drop the second
            cache.reorder([2, 2, 0])
            prefixes = [list(prefixes[2]), list(prefixes[2]), list(prefixes[0])]
            prefixes[0][-1], prefixes[1][-1] = 6, 7
        logits = model.decode_step([p[-1] for p in prefixes], cache).data
        assert logits.shape == (len(prefixes), 8)
        expected = full_prefix_last_rows(model, memory, prefixes)
        assert np.max(np.abs(logits - expected)) <= 1e-12
        for p in prefixes:
            p.append(int(rng.integers(4, 8)))


@pytest.mark.parametrize("clips,rows", [(1, 3), (2, 1), (2, 4)])
def test_first_decode_step_needs_one_row_per_clip(clips, rows):
    model = toy_model()
    memory = ad.concat([toy_memory(model, seed) for seed in range(clips)], axis=0)
    cache = model.start_decoding(memory)
    with pytest.raises(ValueError, match=f"{rows} rows for a cache of {clips}"):
        model.decode_step([SOS] * rows, cache)


def test_decode_step_attention_weight_shapes(attention_weights):
    model = toy_model(dec_layers=2)
    memory = toy_memory(model)  # 3 patches + class token = 4 rows
    cache = model.start_decoding(memory)
    model.decode_step([SOS], cache)
    cache.reorder([0, 0, 0])
    attention_weights.clear()
    model.decode_step([4, 5, 6], cache)
    # per layer, self then cross attention; the clip's 3 rows are its
    # queries 0, 1 and 2 in one padded cross-attention call
    group, place = cache.slots(3)
    assert len(attention_weights) == 2 * len(model.dec_layers)
    for self_w, cross_w in zip(attention_weights[::2], attention_weights[1::2]):
        assert cross_w[group, :, place][:, :, None].shape == (3, 2, 1, 4)
        assert self_w.shape == (3, 2, 1, 2)


# ---------------------------------------------------------------------------
# greedy
# ---------------------------------------------------------------------------

def test_greedy_length_cap_one():
    model = toy_model()
    ids = greedy_decode(model, toy_memory(model), max_len=1)
    # one generated token x, then <eos> (or x was <eos> itself)
    assert ids[0] == SOS and ids[-1] == EOS and len(ids) <= 3
    if len(ids) == 3:
        assert ids[1] not in (PAD, UNK)


def test_greedy_is_deterministic():
    model = toy_model()
    memory = toy_memory(model)
    assert greedy_decode(model, memory) == greedy_decode(model, memory)


def test_greedy_never_emits_banned_tokens():
    for seed in range(5):
        model = toy_model(seed=seed)
        ids = greedy_decode(model, toy_memory(model, seed))
        assert PAD not in ids[1:] and UNK not in ids


def test_greedy_picks_stepwise_argmax():
    model = toy_model(seed=2)
    memory = toy_memory(model, seed=2)
    ids = greedy_decode(model, memory, max_len=6)
    prefix = [SOS]
    for tok in ids[1:]:
        logp = step_log_probs(model, memory, prefix)
        logp[[PAD, UNK]] = -np.inf
        expected = int(np.argmax(logp))
        if tok == EOS and prefix[-1] != EOS and ids.index(tok) == len(ids) - 1:
            # final <eos> may be appended by the length cap
            assert tok == expected or len(prefix) == 6 + 1
        else:
            assert tok == expected
        prefix.append(tok)


def test_greedy_rejects_bad_max_len():
    model = toy_model()
    with pytest.raises(ValueError):
        greedy_decode(model, toy_memory(model), max_len=0)


# ---------------------------------------------------------------------------
# beam search
# ---------------------------------------------------------------------------

def test_beam_size_one_equals_greedy():
    for seed in range(4):
        model = toy_model(seed=seed)
        memory = toy_memory(model, seed)
        assert beam_search_decode(model, memory, beam_size=1) == \
            greedy_decode(model, memory)


@pytest.mark.parametrize("beam_size,max_len,banned,length_norm", [
    (1, 8, DEFAULT_BANNED, False),
    (3, 8, DEFAULT_BANNED, False),
    (5, 8, DEFAULT_BANNED, False),
    (5, 8, DEFAULT_BANNED, True),
    (5, 6, (), False),
    (64, 3, (), False),
    (64, 3, DEFAULT_BANNED, True),
    (1, 1, DEFAULT_BANNED, False),
    (5, 1, (), False),
])
def test_beam_matches_full_prefix_reference(beam_size, max_len, banned, length_norm):
    for seed in range(3):
        model = toy_model(seed=seed)
        memory = toy_memory(model, seed)
        ids, pool = beam_search_decode(model, memory, beam_size, max_len=max_len,
                                       banned=banned, length_norm=length_norm,
                                       return_topk=True)
        ref_ids, ref_pool = reference_beam_search(model, memory, beam_size, max_len,
                                                  banned, length_norm)
        assert ids == ref_ids
        assert [h.tokens for h in pool] == [h.tokens for h in ref_pool]
        assert [h.finished for h in pool] == [h.finished for h in ref_pool]
        for hyp, ref in zip(pool, ref_pool):
            assert abs(hyp.log_prob - ref.log_prob) <= 1e-9


def test_beam_matches_reference_when_scores_tie():
    # tokens 6 and 7 share their embedding and output column, so every
    # hypothesis using one has an exact twin using the other; the beam must
    # keep all candidates tied at the cut and rank them by their tokens
    for seed in range(4):
        model = toy_model(seed=seed)
        model.out_proj.w.data[:, 7] = model.out_proj.w.data[:, 6]
        model.out_proj.b.data[7] = model.out_proj.b.data[6]
        model.word_embed.data[7] = model.word_embed.data[6]
        memory = toy_memory(model, seed)
        for beam_size in (1, 2, 3, 4):
            ids, pool = beam_search_decode(model, memory, beam_size, max_len=6,
                                           return_topk=True)
            ref_ids, ref_pool = reference_beam_search(model, memory, beam_size, 6,
                                                      DEFAULT_BANNED)
            assert ids == ref_ids
            assert [h.tokens for h in pool] == [h.tokens for h in ref_pool]


def test_beam_rejects_bad_beam_size():
    model = toy_model()
    with pytest.raises(ValueError):
        beam_search_decode(model, toy_memory(model), beam_size=0)


def exhaustive_best(model, memory, k_vocab, max_len):
    """Brute-force oracle: enumerate every raw token sequence, truncate at
    the first <eos>, score by replay, keep the best (ties toward the
    lexicographically smaller sequence)."""
    seen = {}
    for raw in itertools.product(range(k_vocab), repeat=max_len):
        tokens = []
        for tok in raw:
            tokens.append(tok)
            if tok == EOS:
                break
        key = tuple(tokens)
        if key not in seen:
            seen[key] = hypothesis_score_by_replay(model, memory, list(key))
    return min(seen.items(), key=lambda kv: (-kv[1], list(kv[0])))


def test_beam_matches_exhaustive_enumeration():
    # vocabulary of 4 ids, nothing banned, beam wide enough to hold
    # every live prefix: must equal the brute-force optimum exactly
    model = toy_model(vocab_size=4, seed=3)
    memory = toy_memory(model, seed=3)
    ids, pool = beam_search_decode(model, memory, beam_size=64, max_len=3,
                                   banned=(), return_topk=True)
    best_tokens, best_score = exhaustive_best(model, memory, 4, 3)
    assert tuple(pool[0].tokens) == best_tokens
    assert abs(pool[0].log_prob - best_score) < 1e-9


def test_beam_score_matches_replay():
    model = toy_model(seed=4)
    memory = toy_memory(model, seed=4)
    _, pool = beam_search_decode(model, memory, beam_size=3, max_len=6,
                                 return_topk=True)
    for hyp in pool:
        replay = hypothesis_score_by_replay(model, memory, hyp.tokens)
        assert abs(hyp.log_prob - replay) < 1e-6


def test_wider_beam_never_scores_worse():
    for seed in range(3):
        model = toy_model(seed=seed)
        memory = toy_memory(model, seed)
        _, pool1 = beam_search_decode(model, memory, beam_size=1, max_len=6,
                                      return_topk=True)
        _, pool5 = beam_search_decode(model, memory, beam_size=5, max_len=6,
                                      return_topk=True)
        assert pool5[0].log_prob >= pool1[0].log_prob - 1e-12


def test_no_tokens_after_eos():
    model = toy_model(seed=5)
    _, pool = beam_search_decode(model, toy_memory(model, 5), beam_size=5,
                                 max_len=8, return_topk=True)
    for hyp in pool:
        if EOS in hyp.tokens:
            assert hyp.tokens.index(EOS) == len(hyp.tokens) - 1
            assert hyp.finished


def test_beam_deterministic():
    model = toy_model(seed=6)
    memory = toy_memory(model, 6)
    a = beam_search_decode(model, memory, beam_size=4)
    b = beam_search_decode(model, memory, beam_size=4)
    assert a == b


def test_banned_tokens_absent_from_beam():
    model = toy_model(seed=7)
    _, pool = beam_search_decode(model, toy_memory(model, 7), beam_size=4,
                                 max_len=6, return_topk=True)
    for hyp in pool:
        assert PAD not in hyp.tokens and UNK not in hyp.tokens


def test_length_norm_flag_changes_ranking_key_only():
    model = toy_model(seed=8)
    memory = toy_memory(model, 8)
    plain = beam_search_decode(model, memory, beam_size=4, max_len=6)
    normed = beam_search_decode(model, memory, beam_size=4, max_len=6,
                                length_norm=True)
    assert plain[0] == normed[0] == SOS  # both well-formed
    assert plain[-1] == normed[-1] == EOS


# ---------------------------------------------------------------------------
# early stop
# ---------------------------------------------------------------------------

def count_decode_steps(model):
    """Wrap model.decode_step on the instance; returns the call counter."""
    calls = [0]
    step = model.decode_step

    def counted(last_ids, cache):
        calls[0] += 1
        return step(last_ids, cache)

    model.decode_step = counted
    return calls


@pytest.mark.parametrize("vocab_size", [6, 8, 12])
def test_early_stop_ids_equal_full_search(vocab_size):
    # return_topk keeps the full search, so it is the oracle here
    for seed in range(30):
        model = toy_model(vocab_size=vocab_size, seed=seed)
        memory = toy_memory(model, seed)
        for beam_size in (1, 2, 3, 5):
            full_ids, _ = beam_search_decode(model, memory, beam_size,
                                             return_topk=True)
            assert beam_search_decode(model, memory, beam_size) == full_ids


def test_early_stop_calls_decode_step_fewer_times_than_max_len():
    model = toy_model(seed=1)
    memory = toy_memory(model, 1)
    calls = count_decode_steps(model)
    ids = beam_search_decode(model, memory, beam_size=5, max_len=22)
    assert calls[0] < 22
    assert len(ids) - 1 <= calls[0]  # every generated token took a step


class _Cache:
    def __init__(self):
        self.prefixes = [[]]

    def reorder(self, rows):
        self.prefixes = [list(self.prefixes[r]) for r in rows]


class ScriptedModel:
    """Stub decoder whose next-token logits are a fixed function of the
    prefix: `script` maps a prefix tuple to {token: logit}, and `default`
    serves every other prefix. Tokens not named get -1000, so their exp
    underflows and a lone named token has log-prob exactly 0."""

    def __init__(self, vocab_size, script, default=None):
        self.dec_cfg = DecoderConfig(vocab_size=vocab_size)
        self.script = script
        self.default = default or {}
        self.calls = 0

    def start_decoding(self, memory):
        return _Cache()

    def decode_step(self, last_ids, cache):
        self.calls += 1
        rows = []
        for prefix, tok in zip(cache.prefixes, last_ids):
            if tok != SOS:
                prefix.append(tok)
            row = np.full(self.dec_cfg.vocab_size, -1000.0)
            for t, logit in self.script.get(tuple(prefix), self.default).items():
                row[t] = logit
            rows.append(row)
        return ad.Tensor(np.stack(rows))


def test_early_stop_continues_through_a_tie():
    # step 1: <eos> and token 0 share log(1/2), so the best completed
    # hypothesis ties the best live one; step 2 gives [0] an <eos> of
    # log-prob exactly 0, and [0, <eos>] then ties [<eos>] and wins the
    # token tie-break. Stopping at the tie would return [<eos>].
    script = {(): {EOS: 0.0, 0: 0.0}, (0,): {EOS: 0.0}}
    model = ScriptedModel(6, script)
    full_ids, pool = beam_search_decode(model, None, 2, max_len=6, banned=(),
                                        return_topk=True)
    assert full_ids == [SOS, 0, EOS]
    assert pool[0].log_prob == pool[1].log_prob  # [0, <eos>] ties [<eos>]
    model.calls = 0
    assert beam_search_decode(model, None, 2, max_len=6, banned=()) == full_ids
    assert model.calls == 2


@pytest.mark.parametrize("flags", [{"length_norm": True}, {"return_topk": True}])
def test_length_norm_and_return_topk_run_the_full_search(flags):
    # every prefix continues with token 4 or retires with <eos>, equally
    # likely, so a live hypothesis survives every step
    model = ScriptedModel(6, {}, default={EOS: 0.0, 4: 0.0})
    beam_search_decode(model, None, 2, max_len=9)
    assert model.calls == 2  # stops once [4, 4] falls below [<eos>]
    model.calls = 0
    beam_search_decode(model, None, 2, max_len=9, **flags)
    assert model.calls == 9


# ---------------------------------------------------------------------------
# lockstep: many clips per decode step
# ---------------------------------------------------------------------------

def step_rows(model):
    """Wrap model.decode_step on the instance; returns the row count of each
    call."""
    rows = []
    step = model.decode_step

    def counted(last_ids, cache):
        rows.append(len(last_ids))
        return step(last_ids, cache)

    model.decode_step = counted
    return rows


@pytest.mark.parametrize("beam_size,length_norm", [(1, False), (3, False), (5, False),
                                                   (5, True)])
def test_lockstep_captions_equal_one_clip_search(beam_size, length_norm):
    # more clips than one lockstep group holds, so a second group runs; a
    # likelier <eos> ends the clips' searches at different steps
    model = toy_model(vocab_size=12, seed=2, dec_layers=2)
    model.out_proj.b.data[EOS] += 1.0
    memories = [toy_memory(model, seed) for seed in range(LOCKSTEP_CLIPS + 3)]
    rows = step_rows(model)
    alone, steps, narrowed = [], set(), False
    for memory in memories:
        alone.append(beam_search_decode(model, memory, beam_size, max_len=10,
                                        length_norm=length_norm))
        steps.add(len(rows))
        narrowed |= any(0 < r < beam_size for r in rows[1:])
        rows.clear()
    groups = []
    start = model.start_decoding
    model.start_decoding = lambda memory: groups.append(memory.shape[0]) or start(memory)
    together = list(beam_search_clips(model, iter(memories), beam_size, max_len=10,
                                      length_norm=length_norm))
    assert together == alone
    assert groups == [LOCKSTEP_CLIPS, 3]
    # the clips stop at different steps (unless every step runs), and with a
    # beam some clip searches on with fewer live hypotheses than the beam
    assert len(steps) > 1 or length_norm
    assert narrowed or beam_size == 1


def test_lockstep_step_logits_match_each_clip_alone():
    model = toy_model(seed=2, dec_layers=2)
    memories = [toy_memory(model, seed) for seed in range(3)]
    together = model.start_decoding(ad.concat(memories, axis=0))
    alone = [model.start_decoding(m) for m in memories]
    rng = np.random.default_rng(9)
    # live rows of each clip per step: the clips' widths differ, so the
    # narrower ones are padded; clip 0 narrows from three rows to two and
    # then leaves
    widths = [(1, 1, 1), (3, 1, 2), (2, 1, 4), (0, 2, 4)]
    ids = [[SOS] for _ in range(3)]
    for t, width in enumerate(widths):
        if t:
            # parents: each clip's rows, cycled
            rows, first = [], 0
            for c, (n_old, n) in enumerate(zip(widths[t - 1], width)):
                parents = [p % n_old for p in range(n)]
                if n:
                    alone[c].reorder(parents)
                rows += [first + p for p in parents]
                first += n_old
            together.reorder(rows)
            ids = [[int(i) for i in rng.integers(4, 8, n)] for n in width]
        live = [c for c in range(3) if width[c]]
        logits = model.decode_step([i for c in live for i in ids[c]], together).data
        expected = np.concatenate([model.decode_step(ids[c], alone[c]).data for c in live])
        assert logits.shape == expected.shape
        assert np.max(np.abs(logits - expected)) <= 1e-12
