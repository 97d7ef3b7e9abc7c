"""The benchmark's tracer still finds every name it wraps in the package.

`bench/run.py --trace 1` patches the functions and methods named in
`bench/tracing.py`'s SPAN_TARGETS and PRIMITIVES; a package change that
deletes one of them fails here instead of in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from audiocap import autodiff as ad
from audiocap import cli  # noqa: F401  (loads every module the tracer patches)
from audiocap import model as model_module

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_uninstalls_on_the_package():
    tracing = load_tracing()
    layer_call = model_module.DecoderLayer.__call__
    primitives = {name: getattr(ad, name) for name in tracing.PRIMITIVES}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert model_module.DecoderLayer.__call__ is not layer_call
        assert all(getattr(ad, name) is not fn for name, fn in primitives.items())
        enc = model_module.EncoderConfig(d=8, heads=2, layers=1, ffn_dim=16, dropout=0.0,
                                         patch_dim=4, max_patches=3)
        dec = model_module.DecoderConfig(vocab_size=6, d=8, heads=2, layers=1,
                                         ffn_dim=16, dropout=0.0)
        model = model_module.CaptionerModel(enc, dec, num_tags=2, seed=0)
        patches = np.random.default_rng(0).normal(size=(1, 3, 4))
        model.caption_logits(patches, np.array([[1, 4, 5]]))
    finally:
        tracer.uninstall()
    assert tracer.calls["model.decoder_layer"] == 1
    assert tracer.calls["model.attention"] == 3
    assert tracer.counts["autodiff.ops"] > 0
    assert model_module.DecoderLayer.__call__ is layer_call
    assert all(getattr(ad, name) is fn for name, fn in primitives.items())
