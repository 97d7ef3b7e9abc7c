"""Stacked finite differences in `audiocap.gradcheck` against the scalar loop."""

from collections import Counter

import numpy as np
import pytest

from audiocap import autodiff
from audiocap.gradcheck import (CHUNK, DEFAULT_TOLERANCE, check_objective,
                                make_objective)
from audiocap.model import DecoderConfig, EncoderConfig
from finite_diff import finite_diff_check
from test_cli import GRADCHECK_CONFIG

# encoder and decoder widths differ, so the model has a bridge; the encoder
# FFN weights (8 x 24, 24 x 8) span two chunks, the second one partial
SMALL_ENC = EncoderConfig(d=8, heads=2, layers=1, ffn_dim=24, dropout=0.0,
                          patch_dim=8, max_patches=3)
SMALL_DEC = DecoderConfig(vocab_size=7, d=6, heads=2, layers=1, ffn_dim=12,
                          dropout=0.0)


def small_objective(seed=0):
    return make_objective(seed=seed, enc=SMALL_ENC, dec=SMALL_DEC)


def test_every_parameter_scalar_probed_once_per_side():
    objective = small_objective()
    model = objective.model
    originals = {name: p.data.copy() for name, p in model.named_parameters()}
    probes = Counter()
    passes = Counter()
    row_losses = objective.row_losses

    def recording_row_losses(rows):
        assert 1 <= rows <= CHUNK
        per_row = Counter()
        stacked = []
        for name, p in model.named_parameters():
            shape = originals[name].shape
            if p.data.shape == shape:  # a tensor not probed in this pass
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
                probes[name, int(i), bool(data[row, i] > orig[i])] += 1
        assert len(stacked) == 1  # every tensor arrives stacked, one at a time
        passes[stacked[0], rows] += 1
        assert sorted(per_row) == list(range(rows))  # one probe in every row
        assert set(per_row.values()) == {1}
        return row_losses(rows)

    objective.row_losses = recording_row_losses
    check_objective(objective)
    # full chunks and a partial last chunk of one tensor both occur
    assert passes["enc.layer0.ffn.fc1.w", CHUNK] == 2
    assert passes["enc.layer0.ffn.fc1.w", 8 * 24 - CHUNK] == 2
    assert set(probes.values()) == {1}
    assert len(probes) == 2 * model.param_count()
    assert len({(name, i) for name, i, _ in probes}) == model.param_count()
    for name, p in model.named_parameters():  # every tensor restored
        assert p.data.tobytes() == originals[name].tobytes()


@pytest.mark.parametrize("name", ["enc.layer0.attn.wq.w", "dec.layer0.ffn.fc1.b",
                                  "dec.layer0.ln2.gamma", "bridge.w", "enc.cls",
                                  "enc.pos", "dec.word_embed", "tag_head.w",
                                  "tag_head.b"])
def test_row_losses_equal_loss_bit_for_bit(name):
    objective = small_objective()
    loss = objective.loss().data
    assert objective.row_losses(1)[0].tobytes() == loss.tobytes()
    p = dict(objective.model.named_parameters())[name]
    orig = p.data
    row = orig if orig.ndim == 2 else orig.reshape(1, -1)
    p.data = np.repeat(row[None], CHUNK, axis=0)
    try:
        rows = objective.row_losses(CHUNK)
    finally:
        p.data = orig
    assert rows.shape == (CHUNK,)
    assert {r.tobytes() for r in rows} == {loss.tobytes()}


def failing_tensors(report):
    return {name for name, err in report.per_param.items() if err >= report.tolerance}


def test_corrupted_bias_gradient_fails_stacked_tensors(monkeypatch):
    # scale the gradient `add` passes to a parameter leaf: Linear's bias
    true_add = autodiff.add

    def broken_add(a, b):
        out = true_add(a, b)
        # only a leaf's node holds a grad buffer
        if out.node is not None and isinstance(b, autodiff.Tensor) \
                and b.grad is not None:
            *rest, (leaf, rule) = out.node.edges  # b's edge comes last
            out.node.edges = (*rest, (leaf, lambda g: 1.5 * rule(g)))
        return out

    monkeypatch.setattr(autodiff, "add", broken_add)
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
