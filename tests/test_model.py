import numpy as np
import pytest

from audiocap import autodiff as ad
from audiocap.model import (CaptionerModel, DecoderConfig, EncoderConfig, Linear,
                            Module, MultiHeadAttention, causal_mask)


def small_model(seed=0, num_tags=3, vocab_size=11, enc_d=16, dec_d=16,
                patch_dim=8, max_patches=6, enc_layers=2, dec_layers=2):
    enc = EncoderConfig(d=enc_d, heads=2, layers=enc_layers, ffn_dim=2 * enc_d,
                        dropout=0.0, patch_dim=patch_dim, max_patches=max_patches)
    dec = DecoderConfig(vocab_size=vocab_size, d=dec_d, heads=2,
                        layers=dec_layers, ffn_dim=2 * dec_d, dropout=0.0)
    return CaptionerModel(enc, dec, num_tags=num_tags, seed=seed)


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


# ---------------------------------------------------------------------------
# patch embedding (input representation)
# ---------------------------------------------------------------------------

def test_embed_patches_zero_weights_give_zeros():
    model = small_model()
    model.patch_embed.w.data[...] = 0
    model.cls_token.data[...] = 0
    model.pos_embed.data[...] = 0
    out = model.embed_patches(rand((1, 4, 8)))
    assert out.shape == (1, 5, 16)
    np.testing.assert_array_equal(out.data, np.zeros((1, 5, 16)))


def test_embed_patches_full_scale_shape():
    # 125 patches at embedding dim 768 -> a 126-row encoder input
    enc = EncoderConfig(d=768, heads=12, layers=1, ffn_dim=3072, dropout=0.0,
                        patch_dim=256, max_patches=125)
    dec = DecoderConfig(vocab_size=8, d=64, heads=2, layers=1, ffn_dim=128,
                        dropout=0.0)
    model = CaptionerModel(enc, dec, num_tags=1, seed=0)
    out = model.embed_patches(rand((1, 125, 256)))
    assert out.shape == (1, 126, 768)


def test_embed_patches_composition():
    model = small_model()
    patches = rand((1, 3, 8), seed=4)
    out = model.embed_patches(patches).data[0]
    w, cls, pos = (model.patch_embed.w.data, model.cls_token.data,
                   model.pos_embed.data)
    np.testing.assert_allclose(out[0], cls[0] + pos[0], atol=1e-12)
    for i in range(3):
        np.testing.assert_allclose(out[i + 1], patches[0, i] @ w + pos[i + 1],
                                   atol=1e-12)


def test_embed_patches_locality():
    model = small_model()
    patches = rand((1, 4, 8), seed=1)
    base = model.embed_patches(patches).data
    bumped = patches.copy()
    bumped[0, 2] += 1.0
    out = model.embed_patches(bumped).data
    diff_rows = np.flatnonzero(np.abs(out - base).max(axis=2)[0])
    assert diff_rows.tolist() == [3]  # only the row of the perturbed patch


def test_embed_patches_capacity_check():
    model = small_model(max_patches=4)
    with pytest.raises(ValueError):
        model.embed_patches(rand((1, 5, 8)))


# ---------------------------------------------------------------------------
# multi-head attention
# ---------------------------------------------------------------------------

def test_attention_single_key_weight_is_one(attention_weights):
    rng = np.random.default_rng(0)
    attn = MultiHeadAttention(8, 2, rng)
    xq = ad.Tensor(rand((1, 1, 8), 1))
    xkv = ad.Tensor(rand((1, 1, 8), 2))
    out = attn(xq, attn.keys_values(xkv))
    np.testing.assert_allclose(attention_weights[-1], np.ones((1, 2, 1, 1)))
    v = xkv.data @ attn.wv.w.data
    np.testing.assert_allclose(out.data, v @ attn.wo.w.data, atol=1e-12)


def test_attention_identical_keys_uniform_weights(attention_weights):
    rng = np.random.default_rng(1)
    attn = MultiHeadAttention(8, 2, rng)
    xq = ad.Tensor(rand((1, 3, 8), 3))
    xkv = ad.Tensor(np.tile(rand((1, 1, 8), 4), (1, 5, 1)))
    attn(xq, attn.keys_values(xkv))
    np.testing.assert_allclose(attention_weights[-1], np.full((1, 2, 3, 5), 0.2),
                               atol=1e-12)


def test_attention_matches_dense_oracle_single_head():
    # h=1 on a 2x2 case vs a hand-rolled evaluation of the formula
    rng = np.random.default_rng(2)
    attn = MultiHeadAttention(4, 1, rng)
    x = rand((2, 4), seed=5)
    out = attn(ad.Tensor(x[None]), attn.keys_values(ad.Tensor(x[None]))).data[0]

    q, k, v = x @ attn.wq.w.data, x @ attn.wk.w.data, x @ attn.wv.w.data
    scores = q @ k.T / np.sqrt(4)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights = e / e.sum(axis=1, keepdims=True)
    expected = (weights @ v) @ attn.wo.w.data
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_attention_mask_shape_mismatch_rejected():
    rng = np.random.default_rng(3)
    attn = MultiHeadAttention(8, 2, rng)
    x = ad.Tensor(rand((1, 3, 8)))
    with pytest.raises(ValueError):
        attn(x, attn.keys_values(x), mask=np.zeros((2, 2)))


def test_attention_rows_are_distributions(attention_weights):
    model = small_model()
    model.caption_logits(rand((2, 4, 8)), np.array([[1, 5, 6], [1, 7, 2]]))
    # one call per encoder layer, two per decoder layer
    assert len(attention_weights) == 2 + 2 * 2
    for w in attention_weights:
        assert np.all(w >= 0)
        np.testing.assert_allclose(w.sum(axis=-1), np.ones(w.shape[:-1]), atol=1e-6)


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

def test_encoder_zeroed_sublayers_reduce_to_final_norm():
    model = small_model()
    for layer in model.enc_layers:
        layer.attn.wo.w.data[...] = 0
        layer.ffn.fc2.w.data[...] = 0
        layer.ffn.fc2.b.data[...] = 0
    x = ad.Tensor(rand((1, 5, 16), 6))
    out = model.encode(x).data
    expected = model.enc_final_ln(x).data
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_encoder_permutation_equivariance():
    # self-attention stack with positions out of the picture
    model = small_model()
    x = rand((1, 6, 16), seed=7)
    perm = np.random.default_rng(8).permutation(6)
    out = model.encode(ad.Tensor(x)).data[0]
    out_perm = model.encode(ad.Tensor(x[:, perm])).data[0]
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)


def test_every_patch_reaches_the_class_token():
    model = small_model()
    patches = rand((1, 5, 8), seed=9)
    base = model.encode(model.embed_patches(patches)).data[0, 0]
    for j in range(5):
        bumped = patches.copy()
        bumped[0, j] += 0.5
        cls_row = model.encode(model.embed_patches(bumped)).data[0, 0]
        assert np.abs(cls_row - base).max() > 1e-9


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

def test_causal_mask_layout():
    m = causal_mask(3)
    assert np.all(m[np.tril_indices(3)] == 0)
    assert np.all(np.isinf(m[np.triu_indices(3, k=1)]))


def test_decoder_causality_bit_exact():
    model = small_model()
    memory = ad.Tensor(rand((1, 5, 16), 10))
    ids = np.array([[1, 4, 5, 6, 7]])
    base = model.decode(ids, memory).data
    for j in range(1, 5):
        mutated = ids.copy()
        mutated[0, j] = 8
        out = model.decode(mutated, memory).data
        assert out[0, :j].tobytes() == base[0, :j].tobytes()


def test_decoder_layer_past_kv_matches_whole_prefix():
    # one position at a time, the layer's call with past_kv and slots builds
    # the keys and values (and outputs) that the whole prefix under the
    # causal mask does; row r is the only row of clip r
    model = small_model()
    layer = model.dec_layers[0]
    memory = ad.Tensor(rand((2, 5, 16), 13))
    cross_kv = layer.cross_attn.keys_values(memory)
    x = ad.Tensor(rand((2, 4, 16), 14))
    whole, _ = layer(x, cross_kv, causal_mask(4), False, None)
    k, v = layer.self_attn.keys_values(layer.ln1(x))
    slots = (np.arange(2), np.zeros(2, dtype=int))
    past_kv = None
    with ad.no_grad():
        for t in range(4):
            out, past_kv = layer(x[:, t:t + 1], cross_kv, None, False, None, past_kv, slots)
            np.testing.assert_allclose(out.data[:, 0], whole.data[:, t], rtol=0, atol=1e-12)
    assert past_kv[0].shape == k.shape == (2, 2, 4, 8)
    np.testing.assert_allclose(past_kv[0].data, k.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(past_kv[1].data, v.data, rtol=0, atol=1e-12)


def test_decoder_prefix_of_one():
    model = small_model()
    memory = ad.Tensor(rand((1, 4, 16), 11))
    logits = model.decode(np.array([[1]]), memory)
    assert logits.shape == (1, 1, 11)


def test_decoder_empty_prefix_rejected():
    model = small_model()
    memory = ad.Tensor(rand((1, 4, 16)))
    with pytest.raises(ValueError):
        model.decode(np.zeros((1, 0), dtype=int), memory)


def test_masked_attention_weights_zero_above_diagonal(attention_weights):
    model = small_model()
    memory = ad.Tensor(rand((1, 5, 16), 12))
    model.decode(np.array([[1, 4, 5, 6]]), memory)
    # each decoder layer attends over itself, then over the memory
    assert len(attention_weights) == 2 * len(model.dec_layers)
    for w in attention_weights[::2]:
        assert w.shape == (1, 2, 4, 4)  # (1, h, T, T)
        for t in range(4):
            assert np.all(w[0, :, t, t + 1:] == 0.0)


def test_encoder_decoder_bridge_when_dims_differ():
    model = small_model(enc_d=24, dec_d=16)
    assert model.bridge is not None
    logits = model.caption_logits(rand((2, 4, 8)), np.array([[1, 5], [1, 6]]))
    assert logits.shape == (2, 2, 11)


def test_dropout_off_forward_is_pure():
    model = small_model()
    patches = rand((1, 4, 8), seed=13)
    ids = np.array([[1, 4, 5]])
    a = model.caption_logits(patches, ids, train=False).data
    b = model.caption_logits(patches, ids, train=False).data
    assert a.tobytes() == b.tobytes()


def test_dropout_on_is_seed_deterministic():
    enc = EncoderConfig(d=16, heads=2, layers=1, ffn_dim=32, dropout=0.2,
                        patch_dim=8, max_patches=6)
    dec = DecoderConfig(vocab_size=11, d=16, heads=2, layers=1, ffn_dim=32,
                        dropout=0.2)
    model = CaptionerModel(enc, dec, num_tags=2, seed=0)
    patches = rand((1, 4, 8), seed=14)
    ids = np.array([[1, 4, 5]])
    a = model.caption_logits(patches, ids, train=True,
                             rng=np.random.default_rng(3)).data
    b = model.caption_logits(patches, ids, train=True,
                             rng=np.random.default_rng(3)).data
    c = model.caption_logits(patches, ids, train=True,
                             rng=np.random.default_rng(4)).data
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


# ---------------------------------------------------------------------------
# tagging head and pretrained-kernel adaptation
# ---------------------------------------------------------------------------

def test_tagging_head_zero_weights_give_half():
    model = small_model()
    model.tag_head.w.data[...] = 0
    model.tag_head.b.data[...] = 0
    encoded = model.encode(model.embed_patches(rand((1, 4, 8))))
    probs = model.tagging_probabilities(encoded).data
    np.testing.assert_allclose(probs, np.full((1, 3), 0.5))


def test_tagging_probabilities_monotone_in_logits():
    model = small_model(num_tags=2)
    encoded = model.encode(model.embed_patches(rand((1, 4, 8))))
    base = model.tagging_logits(encoded).data
    probs = model.tagging_probabilities(encoded).data
    assert np.all((base > 0) == (probs > 0.5))
    assert np.all((probs > 0) & (probs < 1))


def test_encoder_only_model_holds_encoder_and_tag_head():
    full = small_model(seed=5)
    enc_only = CaptionerModel(full.enc_cfg, None, num_tags=3, seed=5)
    names = [n for n, _ in enc_only.named_parameters()]
    assert names == [n for n, _ in full.named_parameters()
                     if n.startswith(("enc.", "tag_head."))]
    # the encoder draws first from the seed's generator in both models
    full_params = dict(full.named_parameters())
    for name, p in enc_only.named_parameters():
        if name.startswith("enc."):
            np.testing.assert_array_equal(p.data, full_params[name].data, err_msg=name)
    patches = rand((2, 4, 8))
    encoded = enc_only.encode(enc_only.embed_patches(patches))
    assert enc_only.tagging_logits(encoded).shape == (2, 3)


# checkpoint names, Adam's tensor order and gradcheck's tables follow this
ENCODER_NAMES = [
    "enc.patch_embed.w", "enc.cls", "enc.pos",
    "enc.layer0.ln1.gamma", "enc.layer0.ln1.beta",
    "enc.layer0.attn.wq.w", "enc.layer0.attn.wk.w",
    "enc.layer0.attn.wv.w", "enc.layer0.attn.wo.w",
    "enc.layer0.ln2.gamma", "enc.layer0.ln2.beta",
    "enc.layer0.ffn.fc1.w", "enc.layer0.ffn.fc1.b",
    "enc.layer0.ffn.fc2.w", "enc.layer0.ffn.fc2.b",
    "enc.final_ln.gamma", "enc.final_ln.beta",
]
DECODER_NAMES = [
    "bridge.w", "bridge.b", "dec.word_embed",
    "dec.layer0.ln1.gamma", "dec.layer0.ln1.beta",
    "dec.layer0.self_attn.wq.w", "dec.layer0.self_attn.wk.w",
    "dec.layer0.self_attn.wv.w", "dec.layer0.self_attn.wo.w",
    "dec.layer0.ln2.gamma", "dec.layer0.ln2.beta",
    "dec.layer0.cross_attn.wq.w", "dec.layer0.cross_attn.wk.w",
    "dec.layer0.cross_attn.wv.w", "dec.layer0.cross_attn.wo.w",
    "dec.layer0.ln3.gamma", "dec.layer0.ln3.beta",
    "dec.layer0.ffn.fc1.w", "dec.layer0.ffn.fc1.b",
    "dec.layer0.ffn.fc2.w", "dec.layer0.ffn.fc2.b",
    "dec.final_ln.gamma", "dec.final_ln.beta",
    "dec.out_proj.w", "dec.out_proj.b",
]
TAG_HEAD_NAMES = ["tag_head.w", "tag_head.b"]


def test_named_parameters_order_is_pinned():
    bridged = small_model(enc_d=16, dec_d=8, enc_layers=1, dec_layers=1)
    assert ([n for n, _ in bridged.named_parameters()]
            == ENCODER_NAMES + DECODER_NAMES + TAG_HEAD_NAMES)
    enc_only = CaptionerModel(bridged.enc_cfg, None, num_tags=3, seed=0)
    assert [n for n, _ in enc_only.named_parameters()] == ENCODER_NAMES + TAG_HEAD_NAMES


def test_module_walks_tensor_attributes_in_set_order():
    class Part(Module):
        def __init__(self):
            self.z = ad.Tensor(np.zeros(2))
            self.missing = None
            self.width = 3
            self.inner = Linear(2, 3, np.random.default_rng(0), bias=False)
            self.a = ad.Tensor(np.ones(1))

    part = Part()
    assert [(n, id(t)) for n, t in part.named_params("p")] == [
        ("p.z", id(part.z)), ("p.inner.w", id(part.inner.w)), ("p.a", id(part.a))]


# ---------------------------------------------------------------------------
# configs and parameter counting
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(d=10, heads=3)
    with pytest.raises(ValueError):
        DecoderConfig(vocab_size=10, d=8, heads=2, dropout=1.0)
    with pytest.raises(ValueError):
        small_model(vocab_size=2)


def decoder_param_count(d: int, layers: int, ffn: int, vocab: int) -> int:
    """Closed-form decoder size under this artifact's conventions:
    per layer, two bias-free attention blocks (4 d*d matrices each), an FFN
    with biases, and three layer norms; then a final layer norm, the word
    embedding matrix, and the output projection with bias."""
    attn = 4 * d * d
    ffn_params = d * ffn + ffn + ffn * d + d
    lns = 3 * 2 * d
    per_layer = 2 * attn + ffn_params + lns
    return layers * per_layer + 2 * d + vocab * d + d * vocab + vocab


# the paper's decoder variants: embedding dim / layers / heads / FFN width
PUBLISHED_DECODERS = {
    "small": dict(d=512, layers=2, heads=4, ffn_dim=2048),
    "medium": dict(d=512, layers=4, heads=8, ffn_dim=2048),
    "large": dict(d=512, layers=6, heads=8, ffn_dim=2048),
}


@pytest.mark.parametrize("name", sorted(PUBLISHED_DECODERS))
def test_published_decoder_variant_sizes(name):
    vocab = 5000
    cfg = DecoderConfig(vocab_size=vocab, **PUBLISHED_DECODERS[name])
    enc = EncoderConfig(d=16, heads=2, layers=1, ffn_dim=32, dropout=0.0,
                        patch_dim=8, max_patches=4)
    model = CaptionerModel(enc, cfg, num_tags=1, seed=0)
    actual = sum(p.data.size for n, p in model.named_parameters()
                 if n.startswith("dec."))
    expected = decoder_param_count(cfg.d, cfg.layers, cfg.ffn_dim, vocab)
    assert actual == expected
