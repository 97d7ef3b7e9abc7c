import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from audiocap import autodiff as ad
from audiocap.audio import (FrontendConfig, LogMelSpectrogram, SpecAugmentPolicy,
                            patchify, spec_augment)
from audiocap.autodiff import NumericError, Tensor
from audiocap.data import training_examples
from audiocap.model import CaptionerModel, DecoderConfig, EncoderConfig
from audiocap.optim import Adam
from audiocap.text import EOS, PAD, SOS
from audiocap.training import (CaptionExample, TaggingExample, TrainConfig,
                               bce_with_logits, caption_batch_loss,
                               caption_terms, label_smoothed_ce,
                               lr_at_epoch, pretrain_tagging,
                               tagging_terms, train_captioner, train_epoch,
                               trainable_caption_params)


def small_model(seed=0, vocab_size=10, num_tags=3, dropout=0.0):
    enc = EncoderConfig(d=16, heads=2, layers=2, ffn_dim=32, dropout=dropout,
                        patch_dim=8, max_patches=6)
    dec = DecoderConfig(vocab_size=vocab_size, d=16, heads=2, layers=1,
                        ffn_dim=32, dropout=dropout)
    return CaptionerModel(enc, dec, num_tags=num_tags, seed=seed)


def logits_for(probs):
    return Tensor(np.log(np.asarray(probs, dtype=np.float64)))


# ---------------------------------------------------------------------------
# label-smoothed cross entropy
# ---------------------------------------------------------------------------

def test_ce_perfect_prediction_zero_loss():
    # near-one probability on every target
    probs = np.full((1, 3, 4), 1e-12)
    for t, y in enumerate([0, 2, 1]):
        probs[0, t, y] = 1.0
    loss = label_smoothed_ce(logits_for(probs), np.array([[0, 2, 1]]), smoothing=0.0)
    assert loss.item() < 1e-9


def test_ce_uniform_logits_is_log_vocab():
    logits = Tensor(np.zeros((1, 5, 7)))
    loss = label_smoothed_ce(logits, np.array([[0, 1, 2, 3, 4]]), smoothing=0.0)
    assert abs(loss.item() - np.log(7)) < 1e-12


def test_ce_smoothing_hand_oracle():
    # eps=0.1, K=4, p=(0.1,0.1,0.1,0.7), target class 3:
    # -(0.925*ln 0.7 + 3*0.025*ln 0.1) = 0.5026182051 (high-precision eval)
    loss = label_smoothed_ce(logits_for([[[0.1, 0.1, 0.1, 0.7]]]),
                             np.array([[3]]), smoothing=0.1)
    assert abs(loss.item() - 0.5026182051) < 1e-9


def test_ce_matches_plain_nll_when_unsmoothed():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(1, 6, 9))
    targets = rng.integers(4, 9, size=(1, 6))
    loss = label_smoothed_ce(Tensor(logits), targets, smoothing=0.0)
    logp = ad.log_softmax(Tensor(logits), axis=-1).data
    direct = -np.mean([logp[0, t, y] for t, y in enumerate(targets[0])])
    assert abs(loss.item() - direct) < 1e-12


def test_ce_excludes_pad_positions():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(1, 4, 6))
    with_pad = label_smoothed_ce(Tensor(logits), np.array([[4, 5, PAD, PAD]]), 0.0)
    without = label_smoothed_ce(Tensor(logits[:, :2]), np.array([[4, 5]]), 0.0)
    assert abs(with_pad.item() - without.item()) < 1e-12


def test_ce_rejects_out_of_range_target():
    with pytest.raises(ValueError, match="out of range"):
        label_smoothed_ce(Tensor(np.zeros((1, 2, 5))), np.array([[1, 5]]), 0.0)


def test_ce_batched_matches_flat():
    # the same six positions as a (2, 3) batch and as one row of six
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(2, 3, 5))
    targets = np.array([[4, 3, 2], [1, 2, 4]])
    batched = label_smoothed_ce(Tensor(logits), targets, smoothing=0.1)
    flat = label_smoothed_ce(Tensor(logits.reshape(1, 6, 5)), targets.reshape(1, 6),
                             smoothing=0.1)
    assert abs(batched.item() - flat.item()) < 1e-12


def test_caption_terms_broadcast_targets_match_one_row_calls():
    # one (1, T) target row over B rows gives each row the bytes of its own
    # (1, T) call
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(5, 4, 7))
    targets = np.array([[4, 6, 2, PAD]])
    terms, valid = caption_terms(Tensor(logits), targets, 0.1)
    assert terms.shape == (5, 4) and valid.shape == (1, 4)
    for row in range(5):
        alone, alone_valid = caption_terms(Tensor(logits[row:row + 1]), targets, 0.1)
        assert terms.data[row].tobytes() == alone.data[0].tobytes()
        assert alone_valid.tobytes() == valid.tobytes()


def test_caption_terms_zero_at_pad_and_mask_counts_the_rest():
    rng = np.random.default_rng(5)
    targets = np.array([[4, PAD, 5, PAD], [PAD, 6, PAD, PAD]])
    terms, valid = caption_terms(Tensor(rng.normal(size=(2, 4, 7))), targets, 0.1)
    assert np.all(terms.data[targets == PAD] == 0.0)
    assert np.all(terms.data[targets != PAD] < 0.0)
    assert valid.sum() == 3 and np.array_equal(valid, targets != PAD)


# ---------------------------------------------------------------------------
# tagging BCE
# ---------------------------------------------------------------------------

def test_bce_half_everywhere_is_log_two():
    loss = bce_with_logits(Tensor(np.zeros((3, 4))), np.zeros((3, 4)))
    assert abs(loss.item() - np.log(2)) < 1e-12


def test_bce_single_entry_oracle():
    # y=1, f=0.9 -> -ln 0.9 = 0.1053605157 (high-precision eval)
    z = np.log(0.9 / 0.1)  # sigmoid(z) = 0.9
    loss = bce_with_logits(Tensor(np.array([[z]])), np.array([[1.0]]))
    assert abs(loss.item() - 0.1053605157) < 1e-9


def test_bce_matching_probabilities_near_zero():
    # sigmoid(+-40) is within 5e-18 of the labels
    loss = bce_with_logits(Tensor(np.array([[40.0, -40.0, 40.0]])),
                           np.array([[1.0, 0.0, 1.0]]))
    assert loss.item() < 1e-9


def test_bce_probability_and_logit_forms_agree():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 5))
    y = rng.integers(0, 2, size=(4, 5)).astype(float)
    p = 1.0 / (1.0 + np.exp(-z))
    expected = -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    assert abs(bce_with_logits(Tensor(z), y).item() - expected) < 1e-12


def test_bce_rejects_non_binary_labels():
    with pytest.raises(ValueError):
        bce_with_logits(Tensor(np.zeros((1, 2))), np.array([[0.5, 1.0]]))
    with pytest.raises(ValueError):
        bce_with_logits(Tensor(np.zeros((1, 1))), np.array([[2.0]]))


def test_bce_with_logits_stable_at_extremes():
    loss = bce_with_logits(Tensor(np.array([[1000.0, -1000.0]])),
                           np.array([[1.0, 0.0]]))
    assert np.isfinite(loss.item()) and loss.item() < 1e-9


def test_tagging_terms_finite_at_extremes():
    z = np.array([[1000.0, -1000.0, 1000.0, -1000.0]])
    terms = tagging_terms(Tensor(z), np.array([[1.0, 0.0, 0.0, 1.0]])).data
    assert np.all(np.isfinite(terms))
    assert np.allclose(terms, [0.0, 0.0, -1000.0, -1000.0], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------

def test_lr_schedule_reference_points():
    cfg = TrainConfig()
    assert lr_at_epoch(1, cfg) == pytest.approx(2e-5)
    assert lr_at_epoch(5, cfg) == 1e-4
    assert lr_at_epoch(10, cfg) == 1e-4
    assert lr_at_epoch(15, cfg) == pytest.approx(1e-5)
    assert lr_at_epoch(11, cfg) == pytest.approx(1e-5)  # first decay boundary
    assert lr_at_epoch(21, cfg) == pytest.approx(1e-6)


def test_lr_schedule_rejects_epoch_zero():
    with pytest.raises(ValueError):
        lr_at_epoch(0, TrainConfig())


@given(st.integers(min_value=1, max_value=4))
def test_lr_warmup_non_decreasing(e):
    cfg = TrainConfig()
    assert lr_at_epoch(e, cfg) <= lr_at_epoch(e + 1, cfg)


@given(st.integers(min_value=5, max_value=60))
def test_lr_decay_non_increasing(e):
    cfg = TrainConfig()
    assert lr_at_epoch(e + 1, cfg) <= lr_at_epoch(e, cfg)


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------

def toy_examples(n=4, seed=0, vocab_size=10, n_patches=4, patch_dim=8):
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n):
        length = int(rng.integers(2, 5))
        words = rng.integers(4, vocab_size, size=length).tolist()
        examples.append(CaptionExample(
            patches=rng.normal(size=(n_patches, patch_dim)),
            tokens=[SOS, *words, EOS]))
    return examples


def test_single_step_reduces_batch_loss():
    model = small_model()
    examples = toy_examples()
    before = caption_batch_loss(model, examples, 0.0, train=False, rng=None).item()
    optimizer = Adam(trainable_caption_params(model, freeze_encoder=False))
    cfg = TrainConfig(epochs=1, batch_size=4, base_lr=1e-5, warmup_epochs=1,
                      label_smoothing=0.0, dropout=0.0, seed=0)
    train_epoch(examples, lambda batch, rng: caption_batch_loss(
        model, batch, 0.0, train=True, rng=rng), cfg, optimizer, epoch=1)
    after = caption_batch_loss(model, examples, 0.0, train=False, rng=None).item()
    assert after < before


def test_gradients_reach_every_caption_parameter():
    model = small_model()
    loss = caption_batch_loss(model, toy_examples(), 0.1, train=False, rng=None)
    model.zero_grad()
    ad.backward(loss)
    for name, p in model.named_parameters():
        if name.startswith("tag_head"):
            continue  # not part of the caption objective
        assert np.abs(p.grad).max() > 0, f"zero gradient for {name}"


def test_zero_grad_leaves_no_gradient_on_any_parameter():
    # no gradient buffer stands between steps: zero_grad drops every
    # trainable leaf's grad, and the tagging head, which the caption loss
    # does not reach, never gets one
    model = small_model()
    optimizer = Adam(trainable_caption_params(model, freeze_encoder=False))
    ad.backward(caption_batch_loss(model, toy_examples(), 0.1, train=False, rng=None))
    optimizer.step(1e-4)
    assert all(p.grad is not None for p in optimizer.params)
    assert all(p.grad is None for n, p in model.named_parameters() if n.startswith("tag_head"))
    optimizer.zero_grad()
    assert all(p.grad is None for _, p in model.named_parameters())


def test_loss_curves_deterministic_per_seed():
    def run():
        model = small_model(seed=5)
        cfg = TrainConfig(epochs=3, batch_size=2, base_lr=1e-4,
                          label_smoothing=0.0, dropout=0.0, seed=9)
        result = train_captioner(model, lambda e: toy_examples(), cfg)
        return [s.mean_loss for s in result.history]

    assert run() == run()


def test_freeze_encoder_keeps_encoder_fixed():
    model = small_model()
    frozen = {n: p.data.copy() for n, p in model.named_parameters()
              if n.startswith("enc.")}
    cfg = TrainConfig(epochs=2, batch_size=4, base_lr=1e-3,
                      label_smoothing=0.0, dropout=0.0, seed=0,
                      freeze_encoder=True)
    train_captioner(model, lambda e: toy_examples(), cfg)
    for n, p in model.named_parameters():
        if n.startswith("enc."):
            np.testing.assert_array_equal(p.data, frozen[n])


def test_empty_dataset_rejected():
    model = small_model()
    cfg = TrainConfig(epochs=1, batch_size=2, seed=0)
    with pytest.raises(ValueError):
        train_captioner(model, lambda e: [], cfg)


def test_non_finite_batch_loss_names_epoch_and_batch():
    w = Tensor(np.ones(2), requires_grad=True)
    losses = iter([1.0, np.inf])
    cfg = TrainConfig(epochs=3, batch_size=2, seed=0)
    optimizer = Adam([w])

    def batch_loss(batch, rng):
        return ad.mul(ad.sum_(w), next(losses))

    with pytest.raises(NumericError, match="epoch 3, batch 2"):
        train_epoch([0, 1, 2, 3], batch_loss, cfg, optimizer, epoch=3)
    assert optimizer.t == 1  # the non-finite batch took no step


def test_non_finite_gradient_names_epoch_and_batch():
    # the loss stays finite; the second batch's backward yields NaN
    w = Tensor(np.ones(2), requires_grad=True)
    poisoned = iter([False, True])
    cfg = TrainConfig(epochs=3, batch_size=2, seed=0)
    optimizer = Adam([w])

    def batch_loss(batch, rng):
        loss = ad.mul(ad.sum_(w), 1.0)
        if next(poisoned):
            (node, rule), = loss.node.edges
            loss.node.edges = ((node, lambda g: rule(g) * np.nan),)
        return loss

    with pytest.raises(NumericError, match="non-finite gradient at epoch 3, batch 2"):
        train_epoch([0, 1, 2, 3], batch_loss, cfg, optimizer, epoch=3)
    assert optimizer.t == 1  # the non-finite gradient took no step
    assert np.all(np.isfinite(w.data))


def test_second_desk_step_peaks_no_higher_than_the_first():
    # desk shapes: a batch of 2 clips of 156 patches, captions of 9 and 14
    # tokens, vocabulary 28. A step's graph dies in its own backward, so the
    # next step's forward does not run beside it.
    model = CaptionerModel(EncoderConfig(dropout=0.0),
                           DecoderConfig(vocab_size=28, dropout=0.0), num_tags=1, seed=0)
    rng = np.random.default_rng(0)
    examples = [CaptionExample(patches=rng.normal(size=(156, 256)),
                               tokens=[SOS, *rng.integers(4, 28, n - 2).tolist(), EOS])
                for n in (9, 14, 9, 14)]
    cfg = TrainConfig(epochs=1, batch_size=2, label_smoothing=0.0, dropout=0.0, seed=0)
    optimizer = Adam(trainable_caption_params(model, freeze_encoder=False))
    peaks = []

    def batch_loss(batch, rng):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return caption_batch_loss(model, batch, 0.0, True, rng)

    tracemalloc.start()
    try:
        train_epoch(examples, batch_loss, cfg, optimizer, epoch=1)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    first, second = peaks[1:]
    # 1 % covers the interpreter's free lists, which keep a few kB of small
    # blocks after the first step; a step's graph is about 20 MB
    assert second <= first * 1.01, f"step peaks {first} then {second} bytes"


def test_one_clip_memorization_desk_dims():
    # single clip, desk-scale model dims, loss driven under 0.1
    enc = EncoderConfig(d=128, heads=4, layers=2, ffn_dim=512, dropout=0.0,
                        patch_dim=8, max_patches=20)
    dec = DecoderConfig(vocab_size=12, d=128, heads=4, layers=2, ffn_dim=512,
                        dropout=0.0)
    model = CaptionerModel(enc, dec, num_tags=1, seed=0)
    rng = np.random.default_rng(0)
    example = CaptionExample(patches=rng.normal(size=(20, 8)),
                             tokens=[SOS, 4, 7, 5, 9, 6, EOS])
    cfg = TrainConfig(epochs=200, batch_size=1, base_lr=3e-4, warmup_epochs=5,
                      decay_every=10 ** 9, label_smoothing=0.0, dropout=0.0,
                      seed=0)
    result = train_captioner(model, lambda e: [example], cfg, stop_below=0.1)
    assert result.final_loss < 0.1
    assert result.history[0].mean_loss > result.final_loss


def test_pretrain_tagging_updates_only_encoder_and_head():
    model = small_model()
    dec_before = {n: p.data.copy() for n, p in model.named_parameters()
                  if n.startswith("dec.")}
    rng = np.random.default_rng(4)
    examples = [TaggingExample(patches=rng.normal(size=(4, 8)),
                               labels=np.array([1.0, 0.0, float(i % 2)]))
                for i in range(6)]
    cfg = TrainConfig(epochs=3, batch_size=3, base_lr=1e-3,
                      label_smoothing=0.0, dropout=0.0, seed=0)
    result = pretrain_tagging(model, lambda e: examples, cfg)
    assert len(result.history) == 3
    for n, p in model.named_parameters():
        if n.startswith("dec."):
            np.testing.assert_array_equal(p.data, dec_before[n])
    changed = [n for n, p in model.named_parameters()
               if n.startswith("enc.") and np.abs(p.grad).max() > 0]
    assert changed


def test_encoder_only_pretraining_equals_full_model():
    full = small_model(vocab_size=4, dropout=0.2)  # dropout draws from the batch rng
    enc_only = CaptionerModel(full.enc_cfg, None, num_tags=3, seed=0)
    # only the tag head's init differs: the full model draws it after the decoder
    enc_only.tag_head.w.data[...] = full.tag_head.w.data
    rng = np.random.default_rng(4)
    examples = [TaggingExample(patches=rng.normal(size=(4, 8)),
                               labels=np.array([1.0, 0.0, float(i % 2)]))
                for i in range(6)]
    cfg = TrainConfig(epochs=3, batch_size=4, base_lr=1e-3, warmup_epochs=1,
                      label_smoothing=0.0, dropout=0.0, seed=0)
    a = pretrain_tagging(full, lambda e: examples, cfg)
    b = pretrain_tagging(enc_only, lambda e: examples, cfg)
    assert [s.mean_loss for s in a.history] == [s.mean_loss for s in b.history]
    full_params = dict(full.named_parameters())
    for name, p in enc_only.named_parameters():
        assert p.data.tobytes() == full_params[name].data.tobytes(), name


def test_bce_loss_decreases_during_pretraining():
    model = small_model()
    rng = np.random.default_rng(6)
    examples = [TaggingExample(patches=rng.normal(size=(4, 8)) + 2.0 * (i % 3),
                               labels=np.eye(3)[i % 3])
                for i in range(9)]
    cfg = TrainConfig(epochs=5, batch_size=9, base_lr=1e-3, warmup_epochs=1,
                      label_smoothing=0.0, dropout=0.0, seed=0)
    result = pretrain_tagging(model, lambda e: examples, cfg)
    losses = [s.mean_loss for s in result.history]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def logmel_examples(frontend):
    """Two caption and two tagging examples built as `train` builds them:
    the patches are a view of the log-mel each example carries."""
    rng = np.random.default_rng(8)
    specs = [LogMelSpectrogram(frames=rng.normal(size=(13, frontend.mel_bins)),
                               frame_hop=frontend.hop, mel_bins=frontend.mel_bins)
             for _ in range(4)]
    fpp = frontend.frames_per_patch
    return ([CaptionExample(patchify(s, fpp).patches, [SOS, 5 + i, EOS], s)
             for i, s in enumerate(specs[:2])],
            [TaggingExample(patchify(s, fpp).patches, np.eye(3)[i], s)
             for i, s in enumerate(specs[2:])])


@pytest.mark.parametrize("policy", [
    SpecAugmentPolicy(),
    SpecAugmentPolicy(time_mask_width_max=0, freq_mask_width_max=0, num_time_masks=2),
    SpecAugmentPolicy(time_mask_width_max=3, num_freq_masks=2),
])
def test_training_examples_identity_policy_returns_the_list(policy):
    frontend = FrontendConfig(mel_bins=4, frames_per_patch=4)
    for examples in logmel_examples(frontend):
        assert training_examples(examples, frontend, policy, 3, 2) is examples


def test_training_examples_remask_each_log_mel_per_epoch():
    frontend = FrontendConfig(mel_bins=4, frames_per_patch=4)
    policy = SpecAugmentPolicy(time_mask_width_max=3, freq_mask_width_max=2,
                               num_time_masks=1, num_freq_masks=1, mask_value=-50.0)
    seed, epoch = 5, 2
    for examples in logmel_examples(frontend):
        before = [ex.patches.copy() for ex in examples]
        out = training_examples(examples, frontend, policy, seed, epoch)
        assert len(out) == len(examples)
        for i, (ex, new) in enumerate(zip(examples, out)):
            masked = spec_augment(ex.logmel, policy, [seed, epoch, i])
            np.testing.assert_array_equal(
                new.patches, patchify(masked, frontend.frames_per_patch).patches)
            assert new.logmel is ex.logmel
            if isinstance(ex, CaptionExample):
                assert new.tokens == ex.tokens
            else:
                np.testing.assert_array_equal(new.labels, ex.labels)
            np.testing.assert_array_equal(ex.patches, before[i])  # not masked in place
        assert any((new.patches == -50.0).any() for new in out)
        later = training_examples(examples, frontend, policy, seed, epoch + 1)
        assert any(not np.array_equal(a.patches, b.patches) for a, b in zip(out, later))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    # a schedule that would fail, or log a NaN rate, only epochs later
    for bad in (dict(base_lr=0.0), dict(base_lr=math.nan), dict(base_lr=math.inf),
                dict(decay_every=0), dict(decay_every=-1), dict(decay_factor=0.0),
                dict(decay_factor=-0.5), dict(decay_factor=math.nan),
                dict(decay_factor=math.inf), dict(warmup_epochs=-1),
                dict(warmup_epochs=-3)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(**bad)
    with pytest.raises(ValueError):
        TrainConfig(label_smoothing=1.0)
