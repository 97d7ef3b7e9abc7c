"""Malformed manifests, configs, checkpoints and WAV files through `cli.main`.

Whatever the bytes, a command must end with one of the documented exit
codes (0 success, 2 usage, 3 validation or numeric error, 4 I/O error),
never with an exception. Inputs are valid files with one value replaced,
one key dropped, bytes overwritten or the tail cut off, plus raw bytes.
Examples are derandomized, so every run tries the same inputs.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from audiocap.cli import main

EXIT_CODES = (0, 2, 3, 4)
FUZZ = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

TINY_CONFIG = {
    "seed": 1,
    "frontend": {"mel_bins": 8, "frames_per_patch": 16},
    "encoder": {"d": 8, "heads": 2, "layers": 1, "ffn_dim": 8, "dropout": 0.0,
                "patch_dim": 128, "max_patches": 40},
    "decoder": {"vocab_size": 0, "d": 8, "heads": 2, "layers": 1, "ffn_dim": 8,
                "dropout": 0.0},
    "train": {"epochs": 1, "batch_size": 2, "checkpoint_every": 0},
    "pretrain": {"epochs": 1, "batch_size": 2, "checkpoint_every": 0},
    "word2vec": {"epochs": 1},
    "decode": {"beam_size": 2, "max_len": 4},
}
GRADCHECK_CONFIG = {
    "frontend": {"mel_bins": 4, "frames_per_patch": 2},
    "encoder": {"d": 4, "heads": 2, "layers": 1, "ffn_dim": 4, "dropout": 0.0,
                "patch_dim": 8, "max_patches": 3},
    "decoder": {"vocab_size": 6, "d": 4, "heads": 2, "layers": 1, "ffn_dim": 4,
                "dropout": 0.0},
}
RECORDS = [
    {"id": "clip0000", "wav": "clip0000.wav", "captions": ["a low tone hums"],
     "tags": ["tone"]},
    {"id": "synth", "synth_seed": 3, "captions": ["a burst of noise"], "tags": ["noise"],
     "events": [{"kind": "noise", "onset": 1.0, "duration": 2.0, "amplitude": 0.4}]},
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.text(max_size=4)
    | st.floats(-1e3, 1e3) | st.sampled_from([float("nan"), float("inf"), 1e300]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)


def mutated(doc) -> st.SearchStrategy:
    """`doc` with one value somewhere replaced by arbitrary JSON or one
    object key dropped."""
    if isinstance(doc, dict) and doc:
        return json_values | st.sampled_from(sorted(doc)).flatmap(lambda k: st.one_of(
            st.just({x: v for x, v in doc.items() if x != k}),
            mutated(doc[k]).map(lambda v: {**doc, k: v})))
    if isinstance(doc, list) and doc:
        return json_values | st.integers(0, len(doc) - 1).flatmap(
            lambda i: mutated(doc[i]).map(lambda v: doc[:i] + [v] + doc[i + 1:]))
    return json_values


def damaged(raw: bytes) -> st.SearchStrategy:
    """`raw` with its tail cut off, or with up to 3 bytes overwritten."""
    cut = st.integers(0, len(raw) - 1).map(lambda n: raw[:n])
    patch = st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)),
                     min_size=1, max_size=3)
    return cut | patch.map(lambda edits: _overwrite(raw, edits)) | st.binary(max_size=64)


def _overwrite(raw: bytes, edits) -> bytes:
    out = bytearray(raw)
    for at, value in edits:
        out[at] = value
    return bytes(out)


def run(argv) -> int:
    code = main([str(a) for a in argv])
    assert code in EXIT_CODES, (argv, code)
    return code


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A corpus of one clip, a tiny config and a caption checkpoint of it."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["synth-data", "--count", "1", "--seed", "2", "--out", str(root)]) == 0
    (root / "config.json").write_text(json.dumps(TINY_CONFIG))
    assert main(["train", "--config", str(root / "config.json"),
                 "--manifest", str(root / "captions.jsonl"), "--out", str(root / "run")]) == 0
    return root


def scratch(work: Path) -> Path:
    return Path(tempfile.mkdtemp(dir=work))


@FUZZ
@given(lines=st.lists(mutated(RECORDS[0]) | mutated(RECORDS[1]) | json_values,
                      min_size=1, max_size=3).map(
                          lambda docs: [json.dumps(d) for d in docs]) | st.lists(
                              st.text(max_size=20), max_size=3))
def test_fuzzed_manifest(work, lines):
    d = scratch(work)
    manifest = d / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    shutil.copy(work / "clip0000.wav", d)
    (d / "candidates.tsv").write_text("clip0000\ta low tone\n")
    run(["eval", "--candidates", d / "candidates.tsv", "--references", manifest,
         "--out", d / "eval"])
    for mode in ([], ["--pretrain-tagging"]):
        run(["train", "--config", work / "config.json", "--manifest", manifest,
             "--out", d / "run", *mode])
    shutil.rmtree(d)


def desk_sized(doc) -> bool:
    """Whether the encoder or decoder falls back to the desk default d or
    ffn_dim (128, 512), whose gradient check takes minutes."""
    return isinstance(doc, dict) and any(
        isinstance(doc.get(s, {}), dict) and not {"d", "ffn_dim"} <= set(doc.get(s, {}))
        for s in ("encoder", "decoder"))


@FUZZ
@given(doc=mutated(GRADCHECK_CONFIG).filter(lambda doc: not desk_sized(doc)))
def test_fuzzed_config(work, doc):
    path = scratch(work) / "config.json"
    path.write_text(json.dumps(doc))
    code = main(["gradcheck", "--config", str(path)])
    assert code in EXIT_CODES or code == 1  # 1: the gradient check itself failed
    shutil.rmtree(path.parent)


@pytest.fixture(scope="module")
def checkpoint_bytes(work):
    return (work / "run" / "model.bin").read_bytes()


@FUZZ
@given(data=st.data())
def test_fuzzed_checkpoint(work, checkpoint_bytes, data):
    raw = checkpoint_bytes
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + header_len])
    config = header.pop("config")  # mutated configs: test_fuzzed_config
    fields = data.draw(mutated(header))
    if isinstance(fields, dict):
        fields["config"] = config
    new_header = json.dumps(fields).encode()
    rewritten = raw[:8] + len(new_header).to_bytes(8, "little") + new_header + raw[16 + header_len:]
    d = scratch(work)
    (d / "model.bin").write_bytes(data.draw(damaged(raw) | st.just(rewritten)))
    run(["caption", "--checkpoint", d / "model.bin", "--input", work / "clip0000.wav"])
    shutil.rmtree(d)


@FUZZ
@given(data=st.data())
def test_fuzzed_wav(work, data):
    raw = (work / "clip0000.wav").read_bytes()[:44 + 400]  # header + 200 samples
    d = scratch(work)
    (d / "clip.wav").write_bytes(data.draw(damaged(raw)))
    run(["caption", "--checkpoint", work / "run" / "model.bin", "--input", d / "clip.wav"])
    shutil.rmtree(d)
