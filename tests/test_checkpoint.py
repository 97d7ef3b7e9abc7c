import json
import struct

import numpy as np
import pytest

from audiocap import atomic
from audiocap.checkpoint import (FORMAT_VERSION, MAGIC, Checkpoint,
                                 load_checkpoint, load_model_state,
                                 model_state, save_checkpoint)
from audiocap.config import ValidationError
from audiocap.model import CaptionerModel, DecoderConfig, EncoderConfig


def small_model(seed=0, patch_dim=8):
    enc = EncoderConfig(d=16, heads=2, layers=1, ffn_dim=32, dropout=0.0,
                        patch_dim=patch_dim, max_patches=4)
    dec = DecoderConfig(vocab_size=9, d=16, heads=2, layers=1, ffn_dim=32,
                        dropout=0.0)
    return CaptionerModel(enc, dec, num_tags=2, seed=seed)


def test_checkpoint_round_trip(tmp_path):
    model = small_model(seed=1)
    path = tmp_path / "model.bin"
    save_checkpoint(path, Checkpoint(
        kind="caption", config={"seed": 1}, vocab=["<pad>", "<sos>", "<eos>", "<unk>", "dog"],
        tags=["tone"], tensors=model_state(model), epoch=7,
        optimizer={"m.x": np.arange(3.0)}, optimizer_step=12))
    loaded = load_checkpoint(path)
    assert loaded.kind == "caption"
    assert loaded.config == {"seed": 1}
    assert loaded.vocab[-1] == "dog"
    assert loaded.tags == ["tone"]
    assert loaded.epoch == 7
    assert loaded.optimizer_step == 12
    np.testing.assert_array_equal(loaded.optimizer["m.x"], np.arange(3.0))
    for name, arr in model_state(model).items():
        np.testing.assert_array_equal(loaded.tensors[name], arr)


def test_load_into_fresh_model(tmp_path):
    source = small_model(seed=2)
    path = tmp_path / "model.bin"
    save_checkpoint(path, Checkpoint(kind="caption", config={}, vocab=None,
                                     tags=None, tensors=model_state(source)))
    target = small_model(seed=99)
    load_model_state(target, load_checkpoint(path).tensors)
    for (_, a), (_, b) in zip(source.named_parameters(), target.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data)


def test_load_leaves_trainable_parameters_writable_and_unaliased(tmp_path):
    # a model built to train gets copies: Adam updates them in place, and the
    # checkpoint's read-only bytes are never its parameters
    path = tmp_path / "model.bin"
    save_checkpoint(path, Checkpoint(kind="caption", config={}, vocab=None, tags=None,
                                     tensors=model_state(small_model(seed=5))))
    stored = load_checkpoint(path).tensors
    target = small_model(seed=6)
    arrays = {name: p.data for name, p in target.named_parameters()}
    load_model_state(target, stored)
    for name, p in target.named_parameters():
        assert p.data is arrays[name] and p.requires_grad, name
        assert p.data.flags.writeable and not np.shares_memory(p.data, stored[name]), name
        np.testing.assert_array_equal(p.data, stored[name])
        p.data += 1.0
    for name, arr in model_state(small_model(seed=5)).items():
        np.testing.assert_array_equal(stored[name], arr)


def test_prefix_load_touches_only_encoder(tmp_path):
    source = small_model(seed=3)
    path = tmp_path / "model.bin"
    save_checkpoint(path, Checkpoint(kind="tagging", config={}, vocab=None,
                                     tags=["a"], tensors=model_state(source)))
    target = small_model(seed=4)
    dec_before = {n: p.data.copy() for n, p in target.named_parameters()
                  if not n.startswith("enc.")}
    loaded = load_model_state(target, load_checkpoint(path).tensors, prefix="enc.")
    assert all(n.startswith("enc.") for n in loaded)
    for n, p in target.named_parameters():
        if n.startswith("enc."):
            np.testing.assert_array_equal(
                p.data, dict(source.named_parameters())[n].data)
        else:
            np.testing.assert_array_equal(p.data, dec_before[n])


def test_shape_mismatch_names_offending_tensor(tmp_path):
    source = small_model(seed=5)
    path = tmp_path / "model.bin"
    save_checkpoint(path, Checkpoint(kind="tagging", config={}, vocab=None,
                                     tags=None, tensors=model_state(source)))
    target = small_model(seed=6, patch_dim=12)  # different patch projection
    with pytest.raises(ValueError, match="enc.patch_embed.w"):
        load_model_state(target, load_checkpoint(path).tensors, prefix="enc.")


def test_missing_tensor_rejected(tmp_path):
    source = small_model(seed=7)
    tensors = model_state(source)
    tensors.pop("dec.word_embed")
    path = tmp_path / "model.bin"
    save_checkpoint(path, Checkpoint(kind="caption", config={}, vocab=None,
                                     tags=None, tensors=tensors))
    with pytest.raises(ValueError, match="dec.word_embed"):
        load_model_state(small_model(seed=8), load_checkpoint(path).tensors)


def test_newer_format_version_rejected(tmp_path):
    path = tmp_path / "model.bin"
    header = b"{}"
    path.write_bytes(MAGIC + struct.pack("<I", FORMAT_VERSION + 1) +
                     struct.pack("<Q", len(header)) + header)
    with pytest.raises(ValueError, match="newer"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_save_is_deterministic(tmp_path):
    model = small_model(seed=9)
    ckpt = Checkpoint(kind="caption", config={"seed": 9}, vocab=None,
                      tags=None, tensors=model_state(model))
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(a, ckpt)
    save_checkpoint(b, ckpt)
    assert a.read_bytes() == b.read_bytes()


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.bin"
    save_checkpoint(path, Checkpoint(kind="caption", config={"run": 1}, vocab=None,
                                     tags=None, tensors={"w": np.ones((2, 3))}))
    before = path.read_bytes()

    class DiskFull:  # the file fills up after the header
        def __init__(self, f):
            self.f, self.writes = f, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 4:
                raise OSError(28, "No space left on device")
            return self.f.write(data)

    monkeypatch.setattr(atomic, "open", lambda *a: DiskFull(open(*a)), raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, Checkpoint(kind="caption", config={"run": 2}, vocab=None,
                                         tags=None, tensors={"w": np.zeros((2, 3))}))
    assert path.read_bytes() == before
    assert load_checkpoint(path).config == {"run": 1}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]


def test_loaded_tensors_are_read_only(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, Checkpoint(kind="caption", config={}, vocab=None, tags=None,
                                     tensors={"w": np.ones((2, 3))},
                                     optimizer={"m.w": np.zeros((2, 3))}))
    loaded = load_checkpoint(path)
    for arr in (loaded.tensors["w"], loaded.optimizer["m.w"]):
        with pytest.raises(ValueError):
            arr[0, 0] = 5.0


def write_raw(path, header: dict, body: bytes = b"") -> None:
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", FORMAT_VERSION)
                     + struct.pack("<Q", len(blob)) + blob + body)


def header(**entry):
    return {"kind": "caption", "config": {}, "vocab": None, "tags": None,
            "tensors": [dict({"name": "w", "shape": [2], "dtype": "<f8",
                              "offset": 0}, **entry)]}


@pytest.mark.parametrize("case,match", [
    ("short", "truncated"),
    ("header_past_end", "header of"),
    ("missing_keys", "lacks"),
    ("entry_missing_keys", "lacks"),
    ("dtype", "dtype"),
    ("offset_past_body", "runs past"),
    ("shape_past_body", "runs past"),
])
def test_malformed_checkpoint_raises_validation_error(tmp_path, case, match):
    path = tmp_path / "model.bin"
    body = np.arange(2.0).tobytes()
    if case == "short":
        path.write_bytes(MAGIC + struct.pack("<I", FORMAT_VERSION) + b"\x00\x00")
    elif case == "header_past_end":
        path.write_bytes(MAGIC + struct.pack("<I", FORMAT_VERSION)
                         + struct.pack("<Q", 1000) + b"{}")
    elif case == "missing_keys":
        write_raw(path, {"kind": "caption", "tensors": []})
    elif case == "entry_missing_keys":
        bad = header()
        del bad["tensors"][0]["offset"]
        write_raw(path, bad, body)
    elif case == "dtype":
        write_raw(path, header(dtype="<f4"), body)
    elif case == "offset_past_body":
        write_raw(path, header(offset=8), body)
    else:
        write_raw(path, header(shape=[3]), body)
    with pytest.raises(ValidationError, match=match):
        load_checkpoint(path)


def test_well_formed_raw_checkpoint_loads(tmp_path):
    # the writer used by the malformed cases makes a loadable file unmodified
    path = tmp_path / "model.bin"
    write_raw(path, header(), np.arange(2.0).tobytes())
    np.testing.assert_array_equal(load_checkpoint(path).tensors["w"], [0.0, 1.0])


@pytest.mark.parametrize("field, value", [
    ("kind", 3), ("config", []), ("vocab", [["a"]]), ("tags", "tone"),
    ("epoch", "4"), ("optimizer_step", 1.5), ("epoch", True),
    # a negative step count makes Adam's bias corrections negative
    ("epoch", -1), ("optimizer_step", -3),
])
def test_header_field_of_wrong_type_rejected(tmp_path, field, value):
    path = tmp_path / "model.bin"
    write_raw(path, dict(header(), **{field: value}), np.arange(2.0).tobytes())
    with pytest.raises(ValidationError, match="wrong type"):
        load_checkpoint(path)


def test_tensor_name_must_be_a_string(tmp_path):
    path = tmp_path / "model.bin"
    write_raw(path, header(name=7), np.arange(2.0).tobytes())
    with pytest.raises(ValidationError, match="bad name"):
        load_checkpoint(path)
