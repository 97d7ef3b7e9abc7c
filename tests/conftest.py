import numpy as np
import pytest

from audiocap import autodiff as ad


@pytest.fixture
def attention_weights(monkeypatch):
    """The weights of every `ad.attention` call, in call order. The model
    keeps none, so each call is run a second time on identity values, under
    no_grad: w @ I = w exactly."""
    weights = []
    true_attention = ad.attention

    def recording(q, k, v, scale, mask=None):
        tk = k.shape[-2]
        eye = ad.Tensor(np.broadcast_to(np.eye(tk), k.shape[:-2] + (tk, tk)))
        with ad.no_grad():
            weights.append(true_attention(q, k, eye, scale, mask).data)
        return true_attention(q, k, v, scale, mask)

    monkeypatch.setattr(ad, "attention", recording)
    return weights
