"""Stacked finite differences in `audiocap.gradcheck` against the scalar loop."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from audiocap import autodiff
from audiocap import gradcheck
from audiocap.gradcheck import (CHUNK, DEFAULT_TOLERANCE, check_objective,
                                make_objective)
from audiocap.model import CaptionerModel, DecoderConfig, EncoderConfig, EncoderLayer
from audiocap.training import caption_terms, tagging_terms
from finite_diff import finite_diff_check
from test_cli import GRADCHECK_CONFIG

# encoder and decoder widths differ, so the model has a bridge; the encoder
# FFN weights (8 x 24, 24 x 8) span two chunks, the second one partial
SMALL_ENC = EncoderConfig(d=8, heads=2, layers=1, ffn_dim=24, dropout=0.0,
                          patch_dim=8, max_patches=3)
SMALL_DEC = DecoderConfig(vocab_size=7, d=6, heads=2, layers=1, ffn_dim=12,
                          dropout=0.0)
# two encoder layers: rows can branch in the middle of the encoder
TWO_LAYER_ENC = dataclasses.replace(SMALL_ENC, layers=2)


def small_objective(seed=0):
    return make_objective(seed=seed, enc=SMALL_ENC, dec=SMALL_DEC)


def test_every_parameter_scalar_probed_once_per_side():
    objective = small_objective()
    model = objective.model
    originals = {name: p.data.copy() for name, p in model.named_parameters()}
    probes = Counter()
    passes = []
    row_losses = objective.row_losses

    def recording_row_losses(rows):
        k, odd = divmod(rows, 2)  # rows 0..k-1 at +h, rows k..2k-1 at -h
        assert not odd and 1 <= k <= CHUNK
        per_row = Counter()
        scalar = {}
        stacked = []
        for name, p in model.named_parameters():
            shape = originals[name].shape
            if p.data.shape == shape:  # a tensor this pass does not probe
                assert p.data.tobytes() == originals[name].tobytes()
                continue
            # (rows, *shape) for a matrix, (rows, 1, size) for a vector
            want = (rows, *shape) if len(shape) == 2 else (rows, 1, *shape)
            assert p.data.shape == want
            stacked.append(name)
            orig = originals[name].reshape(-1)
            data = p.data.reshape(rows, -1)
            for row, i in zip(*np.nonzero(data != orig)):
                per_row[row] += 1
                scalar[row] = name, int(i)
                up = bool(data[row, i] > orig[i])
                assert up == (row < k)
                probes[name, int(i), up] += 1
        # row j and row k + j probe the same scalar, one at each side
        assert all(scalar[j] == scalar[k + j] for j in range(k))
        assert sorted(per_row) == list(range(rows))  # one probe in every row
        assert set(per_row.values()) == {1}
        passes.append((k, stacked))
        return row_losses(rows)

    objective.row_losses = recording_row_losses
    check_objective(objective)
    # chunks run end to end over the tensors: full ones, then a partial last
    count = model.param_count()
    assert len(passes) == -(-count // CHUNK)
    assert [k for k, _ in passes] == [CHUNK] * (len(passes) - 1) + [
        count - CHUNK * (len(passes) - 1)]
    # a chunk spans tensors, and a tensor spans chunks
    assert max(len(stacked) for _, stacked in passes) > 1
    assert sum("enc.layer0.ffn.fc1.w" in stacked for _, stacked in passes) == 2
    assert set(probes.values()) == {1}
    assert len(probes) == 2 * count
    assert len({(name, i) for name, i, _ in probes}) == count
    for name, p in model.named_parameters():  # every tensor restored
        assert p.data.tobytes() == originals[name].tobytes()


def stacked_copies(p, rows):
    """`p`'s data stacked to `rows` equal copies, as a probe stacks it."""
    row = p.data if p.data.ndim == 2 else p.data.reshape(1, -1)
    return np.repeat(row[None], rows, axis=0)


@pytest.mark.parametrize("name", ["enc.patch_embed.w", "enc.layer0.attn.wq.w",
                                  "enc.final_ln.beta", "dec.layer0.ffn.fc1.b",
                                  "dec.layer0.ln2.gamma", "bridge.w", "enc.cls",
                                  "enc.pos", "dec.word_embed", "tag_head.w",
                                  "tag_head.b"])
def test_row_losses_equal_loss_bit_for_bit(name):
    objective = small_objective()
    loss = objective.loss().data
    assert objective.row_losses(1).shape == (1,)
    assert objective.row_losses(1)[0].tobytes() == loss.tobytes()
    p = dict(objective.model.named_parameters())[name]
    orig = p.data
    p.data = stacked_copies(p, 2 * CHUNK)
    try:
        losses = objective.row_losses(2 * CHUNK)
    finally:
        p.data = orig
    assert losses.shape == (2 * CHUNK,)
    assert {r.tobytes() for r in losses} == {loss.tobytes()}


def failing_tensors(report):
    return {name for name, err in report.per_param.items() if err >= DEFAULT_TOLERANCE}


def test_corrupted_bias_gradient_fails_stacked_tensors(monkeypatch):
    # scale the gradient `linear` passes to its bias, a parameter leaf
    true_linear = autodiff.linear

    def broken_linear(x, w, b=None):
        out = true_linear(x, w, b)
        if out.node is not None and b is not None and b.requires_grad:
            *rest, (leaf, rule) = out.node.edges  # b's edge comes last
            out.node.edges = (*rest, (leaf, lambda g: 1.5 * rule(g)))
        return out

    monkeypatch.setattr(autodiff, "linear", broken_linear)
    objective = small_objective()
    report = check_objective(objective)
    biases = {name for name, _ in objective.model.named_parameters()
              if name.endswith(".b")}
    assert not report.passed
    assert failing_tensors(report) == biases
    assert "dec.layer0.ffn.fc1.b" in biases and "tag_head.b" in biases


def test_corrupted_embedding_gradient_fails_word_embed(monkeypatch):
    true_embedding = autodiff.embedding

    def broken_embedding(weight, ids):
        out = true_embedding(weight, ids)
        if out.node is not None:
            (table, rule), = out.node.edges
            out.node.edges = ((table, lambda g: 1.5 * rule(g)),)
        return out

    monkeypatch.setattr(autodiff, "embedding", broken_embedding)
    report = check_objective(small_objective())
    assert not report.passed
    assert failing_tensors(report) == {"dec.word_embed"}


def test_zero_step_rejected():
    with pytest.raises(autodiff.NumericError):
        check_objective(small_objective(), h=0.0)


def test_per_tensor_errors_match_scalar_loop_oracle():
    # the model `audiocap gradcheck --config` builds from the CLI tests' config
    enc = EncoderConfig(**GRADCHECK_CONFIG["encoder"])
    dec = DecoderConfig(**GRADCHECK_CONFIG["decoder"])
    report = check_objective(make_objective(seed=0, enc=enc, dec=dec))

    objective = make_objective(seed=0, enc=enc, dec=dec)
    oracle = {name: finite_diff_check(lambda _: objective.loss(), p, 1e-4)
              for name, p in objective.model.named_parameters()}
    assert report.per_param.keys() == oracle.keys()
    for name, err in oracle.items():
        assert abs(report.per_param[name] - err) <= 1e-6, name
    assert report.passed and max(oracle.values()) < DEFAULT_TOLERANCE


def two_full_passes_per_chunk(objective, h=1e-4):
    """The per-tensor errors of two whole-model no-grad passes per chunk of
    CHUNK scalars of one tensor, one at +h and one at -h: the reference for
    `check_objective`'s one pass per chunk of the scalars laid end to end."""
    model = objective.model

    def row_losses(rows):
        with autodiff.no_grad():
            encoded = model.encode(model.embed_patches(
                np.repeat(objective.patches, rows, axis=0)))
            logits = model.decode(np.repeat(objective.inputs, rows, axis=0),
                                  model.encoder_memory(encoded))
            ce, valid = caption_terms(logits, objective.targets, gradcheck.SMOOTHING)
            bce = tagging_terms(model.tagging_logits(encoded), objective.labels)
        return (ce.data.sum(axis=-1) * (-1.0 / valid.sum())
                - bce.data.mean(axis=-1))

    model.zero_grad()
    autodiff.backward(objective.loss())
    per_param = {}
    for name, p in model.named_parameters():
        analytic = p.grad.reshape(-1)
        orig = p.data
        flat = orig.reshape(-1)
        central = np.empty(flat.size)
        for start in range(0, flat.size, CHUNK):
            idx = np.arange(start, min(start + CHUNK, flat.size))
            k = idx.size
            shape = (k, *orig.shape) if orig.ndim == 2 else (k, 1, orig.size)
            stacked = np.repeat(flat[None], k, axis=0)
            sides = []
            for step in (h, -h):
                stacked[np.arange(k), idx] = flat[idx] + step
                p.data = stacked.reshape(shape)
                sides.append(row_losses(k))
            p.data = orig
            central[idx] = (sides[0] - sides[1]) / (2.0 * h)
        err = np.abs(analytic - central) / np.maximum(
            1e-12, np.abs(analytic) + np.abs(central))
        per_param[name] = float(err.max())
    return per_param


@pytest.mark.parametrize("enc, dec", [
    (SMALL_ENC, SMALL_DEC),
    (EncoderConfig(**GRADCHECK_CONFIG["encoder"]), DecoderConfig(**GRADCHECK_CONFIG["decoder"])),
    (TWO_LAYER_ENC, SMALL_DEC),
], ids=["bridge", "cli-config", "two-encoder-layers"])
def test_per_tensor_errors_equal_two_full_passes_per_chunk(enc, dec):
    report = check_objective(make_objective(seed=0, enc=enc, dec=dec))
    oracle = two_full_passes_per_chunk(make_objective(seed=0, enc=enc, dec=dec))
    assert list(report.per_param) == list(oracle)
    assert ({name: err.hex() for name, err in report.per_param.items()}
            == {name: err.hex() for name, err in oracle.items()})


# stages: 0 patch embedding, 1 and 2 the encoder layers, 3 the encoder's
# final norm, 4 the heads; `stage` is the first whose output branches into
# the stacked rows, `layers_run` the encoder layers that run on them
@pytest.mark.parametrize("name, stage, layers_run", [
    ("enc.patch_embed.w", 0, [0, 1]), ("enc.cls", 0, [0, 1]), ("enc.pos", 0, [0, 1]),
    ("enc.layer0.ffn.fc1.w", 1, [0, 1]), ("enc.layer1.attn.wk.w", 2, [1]),
    ("enc.layer1.ln2.beta", 2, [1]), ("enc.final_ln.gamma", 3, []),
    ("bridge.w", 4, []), ("bridge.b", 4, []), ("dec.word_embed", 4, []),
    ("dec.layer0.cross_attn.wv.w", 4, []), ("dec.final_ln.beta", 4, []),
    ("dec.out_proj.b", 4, []), ("tag_head.w", 4, []),
])
def test_a_pass_runs_only_the_encoder_layers_after_the_probed_tensor(
        monkeypatch, name, stage, layers_run):
    # rows branch at the first stacked tensor: the stages before it run on
    # the clip's one row, the tensor's own stage and the later ones on all
    objective = make_objective(seed=0, enc=TWO_LAYER_ENC, dec=SMALL_DEC)
    model = objective.model
    layers = model.enc_layers
    outputs = []  # (stage, rows of its input, rows of its output)

    def recording(method, number):
        def call(module, x, *args):
            out = method(module, x, *args)
            rows_in = x.shape[0] if isinstance(x, autodiff.Tensor) else len(x)
            outputs.append((number(module), rows_in, out.shape[0]))
            return out
        return call

    monkeypatch.setattr(CaptionerModel, "embed_patches",
                        recording(CaptionerModel.embed_patches, lambda m: 0))
    monkeypatch.setattr(EncoderLayer, "__call__",
                        recording(EncoderLayer.__call__, lambda m: 1 + layers.index(m)))
    monkeypatch.setattr(CaptionerModel, "encode",
                        recording(CaptionerModel.encode, lambda m: len(layers) + 1))
    p = dict(model.named_parameters())[name]
    rows = 2 * CHUNK
    p.data = stacked_copies(p, rows)
    objective.row_losses(rows)
    assert [s for s, _, _ in outputs] == [0, 1, 2, 1 + len(layers)]
    assert outputs[0][1] == 1  # the clip enters as one row
    assert [out for _, _, out in outputs] == [
        rows if s >= stage else 1 for s, _, _ in outputs]
    # a layer's input is the previous stage's output
    assert all(outputs[i][1] == outputs[i - 1][2] for i in (1, 2))
    assert [s - 1 for s, _, out in outputs[1:3] if out == rows] == layers_run
