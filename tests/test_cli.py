import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest

from audiocap import atomic, autodiff, cli, data
from audiocap.audio import CLIP_SAMPLES
from audiocap.checkpoint import Checkpoint, load_checkpoint, model_state, save_checkpoint
from audiocap.cli import _load_config, build_parser, main
from audiocap.config import (RunConfig, ValidationError, load_run_config,
                             run_config_from_dict, run_config_to_dict)
from audiocap.model import CaptionerModel
from audiocap.synth import make_corpus

TINY_CONFIG = {
    "seed": 3,
    "frontend": {"mel_bins": 16, "frames_per_patch": 8},
    "encoder": {"d": 16, "heads": 2, "layers": 1, "ffn_dim": 32,
                "dropout": 0.0, "patch_dim": 128, "max_patches": 80},
    "decoder": {"vocab_size": 0, "d": 16, "heads": 2, "layers": 1,
                "ffn_dim": 32, "dropout": 0.0},
    "train": {"epochs": 2, "batch_size": 4, "label_smoothing": 0.0,
              "dropout": 0.0, "checkpoint_every": 1},
    "word2vec": {"epochs": 2},
    "decode": {"beam_size": 2, "max_len": 6},
}


def write_config(tmp_path, overrides=None) -> Path:
    cfg = json.loads(json.dumps(TINY_CONFIG))
    for key, value in (overrides or {}).items():
        section, _, leaf = key.partition(".")
        if leaf:
            cfg.setdefault(section, {})[leaf] = value
        else:
            cfg[section] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


@pytest.fixture
def corpus(tmp_path):
    out = tmp_path / "corpus"
    assert main(["synth-data", "--count", "4", "--seed", "5",
                 "--out", str(out)]) == 0
    return out


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# synth-data
# ---------------------------------------------------------------------------

def test_synth_data_writes_clips_and_manifests(corpus):
    assert sorted(p.name for p in corpus.glob("*.wav")) == [
        f"clip{i:04d}.wav" for i in range(4)]
    captions = corpus / "captions.jsonl"
    records = [json.loads(l) for l in captions.read_text().splitlines()]
    assert len(records) == 4
    assert all(r["captions"] for r in records)
    tags = [json.loads(l) for l in (corpus / "tags.jsonl").read_text().splitlines()]
    assert all(t["tags"] for t in tags)


def test_synth_data_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["synth-data", "--count", "3", "--seed", "9",
                     "--out", str(out)]) == 0
    assert sha(a / "captions.jsonl") == sha(b / "captions.jsonl")
    assert sha(a / "tags.jsonl") == sha(b / "tags.jsonl")
    assert all(sha(a / f"clip{i:04d}.wav") == sha(b / f"clip{i:04d}.wav")
               for i in range(3))


def write_corpus_whole(out: Path, count: int, seed: int, max_events: int) -> None:
    """synth-data's files as they were written before it rendered one clip
    at a time: every record from make_corpus, then each WAV through
    BytesIO and `wave`."""
    out.mkdir()
    caption_recs, tag_recs = [], []
    for rec in make_corpus(count, seed, max_events=max_events):
        pcm = np.clip(np.round(rec.waveform.samples * 32767.0), -32768, 32767).astype("<i2")
        buf = io.BytesIO()
        with wave.open(buf, "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(rec.waveform.sample_rate)
            wf.writeframes(pcm.tobytes())
        (out / f"{rec.clip_id}.wav").write_bytes(buf.getvalue())
        caption_recs.append(data.ManifestRecord(
            clip_id=rec.clip_id, wav=f"{rec.clip_id}.wav", captions=[rec.caption]))
        tag_recs.append(data.ManifestRecord(
            clip_id=rec.clip_id, wav=f"{rec.clip_id}.wav", tags=rec.tags))
    data.write_manifest(out / "captions.jsonl", caption_recs)
    data.write_manifest(out / "tags.jsonl", tag_recs)


@pytest.mark.parametrize("seed", [0, 7, 23])
@pytest.mark.parametrize("max_events", [1, 3, 5])
def test_synth_data_writes_the_whole_corpus_writers_bytes(tmp_path, seed, max_events):
    ours, whole = tmp_path / "ours", tmp_path / "whole"
    assert main(["synth-data", "--count", "3", "--seed", str(seed),
                 "--max-events", str(max_events), "--out", str(ours)]) == 0
    write_corpus_whole(whole, 3, seed, max_events)
    assert sorted(p.name for p in ours.iterdir()) == sorted(p.name for p in whole.iterdir())
    for path in whole.iterdir():
        assert (ours / path.name).read_bytes() == path.read_bytes(), path.name


def test_synth_data_memory_does_not_grow_with_count(tmp_path, capsys):
    main(["synth-data", "--count", "1", "--out", str(tmp_path / "warm")])
    peaks = {}
    for count in (2, 12):
        tracemalloc.start()
        try:
            assert main(["synth-data", "--count", str(count), "--seed", "3",
                         "--out", str(tmp_path / f"n{count}")]) == 0
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # within one clip's float64 waveform; holding every clip grows 10 of them
    assert peaks[12] - peaks[2] < CLIP_SAMPLES * 8, peaks


def test_synth_data_rejects_zero_count(tmp_path, capsys):
    assert main(["synth-data", "--count", "0", "--out", str(tmp_path / "x")]) == 3
    assert "count" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_synth_data_rejects_max_events_below_one(tmp_path, capsys, value):
    out = tmp_path / "x"
    assert main(["synth-data", "--count", "2", "--max-events", value,
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "--max-events must be >= 1" in err and "Traceback" not in err
    assert not out.exists()


def test_synth_data_rejects_max_events_above_five(tmp_path, capsys):
    # 5 events of 1.5 s with 0.5 s gaps fill 9.5 s of a 10 s clip
    out = tmp_path / "x"
    assert main(["synth-data", "--count", "2", "--max-events", "6",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "--max-events must be <= 5" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("target", ["clip0001.wav", "captions.jsonl", "tags.jsonl"])
def test_failed_synth_write_keeps_earlier_file_whole(tmp_path, monkeypatch, capsys,
                                                     target):
    # the same corpus is written again, and the write of `target` runs out of
    # space halfway: every file, `target` included, keeps its earlier bytes
    out = tmp_path / "corpus"
    args = ["synth-data", "--count", "2", "--seed", "1", "--out", str(out)]
    assert main(args) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    class HalfWritten:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

    def open_(path, mode):
        f = open(path, mode)
        return HalfWritten(f) if target in Path(path).name else f

    monkeypatch.setattr(atomic, "open", open_, raising=False)
    assert main(args) == 4
    assert "No space" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": 1, "learning_rate": 2}))
    with pytest.raises(ValidationError, match="learning_rate"):
        load_run_config(path)


def test_unknown_nested_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"train": {"epochs": 2, "momentum": 0.9}}))
    with pytest.raises(ValidationError, match="train.momentum"):
        load_run_config(path)


def test_invalid_json_maps_to_exit_3(tmp_path, corpus, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["train", "--config", str(bad),
                 "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(tmp_path / "run")])
    assert code == 3


@pytest.mark.parametrize("data, key", [
    ({"train": {"epochs": 2.5}}, "train.epochs"),
    ({"frontend": {"hop": 5e2}}, "frontend.hop"),
    ({"word2vec": {"enabled": 1}}, "word2vec.enabled"),
    ({"decode": {"beam_size": True}}, "decode.beam_size"),
    ({"train": {"base_lr": "0.1"}}, "train.base_lr"),
    ({"seed": None}, "seed"),
    ({"encoder": {"heads": 0}}, "encoder"),
    ({"frontend": {"hop": -512}}, "frontend: hop"),
    ({"frontend": {"window": 0}}, "frontend: window"),
    ({"frontend": {"mel_bins": 0}}, "frontend: mel_bins"),
    ({"frontend": {"frames_per_patch": 0}}, "frontend: frames_per_patch"),
    ({"frontend": {"log_floor": 0}}, "frontend: log_floor"),
    ({"frontend": {"log_floor": -1e-10}}, "frontend: log_floor"),
])
def test_wrong_value_type_rejected(data, key):
    with pytest.raises(ValidationError, match=key):
        run_config_from_dict(data)


def test_numbers_and_unset_section_seeds_accepted():
    cfg = run_config_from_dict({"train": {"base_lr": 1, "seed": None},
                                "pretrain": {"seed": 4}})
    assert cfg.train.base_lr == 1 and cfg.train.seed is None and cfg.pretrain.seed == 4


def test_patch_dim_consistency_enforced():
    with pytest.raises(ValidationError, match="patch_dim"):
        run_config_from_dict({"frontend": {"mel_bins": 16, "frames_per_patch": 8},
                              "encoder": {"patch_dim": 99}})


def test_default_config_is_valid():
    cfg = RunConfig()
    assert cfg.encoder.patch_dim == 256
    assert cfg.train.base_lr == 1e-4
    assert cfg.pretrain.epochs == 20 and cfg.pretrain.batch_size == 128


def test_decoder_section_without_vocab_size_parses():
    cfg = run_config_from_dict({"decoder": {"dropout": 0.0}})
    assert cfg.decoder.vocab_size == 0 and cfg.decoder.dropout == 0.0


def test_partial_pretrain_section_keeps_pretraining_defaults():
    cfg = run_config_from_dict({"pretrain": {"base_lr": 2e-4}})
    assert cfg.pretrain.base_lr == 2e-4
    assert cfg.pretrain.epochs == 20 and cfg.pretrain.batch_size == 128
    assert cfg.train.epochs == 30 and cfg.train.batch_size == 32


# ---------------------------------------------------------------------------
# train / caption / eval
# ---------------------------------------------------------------------------

def test_train_caption_and_eval_round_trip(tmp_path, corpus):
    cfg = write_config(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg),
                 "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(run)]) == 0
    assert (run / "model.bin").exists()
    assert (run / "vocab.txt").exists()
    log = [json.loads(l) for l in (run / "metrics.jsonl").read_text().splitlines()]
    assert [e["epoch"] for e in log] == [1, 2]
    assert all({"epoch", "lr", "loss", "wall_time"} <= set(e) for e in log)

    caps = tmp_path / "caps.tsv"
    assert main(["caption", "--checkpoint", str(run / "model.bin"),
                 "--input", str(corpus / "captions.jsonl"),
                 "--out", str(caps)]) == 0
    lines = caps.read_text().splitlines()
    assert len(lines) == 4
    assert [l.split("\t")[0] for l in lines] == sorted(l.split("\t")[0] for l in lines)

    assert main(["eval", "--candidates", str(caps),
                 "--references", str(corpus / "captions.jsonl"),
                 "--out", str(tmp_path / "report")]) == 0
    report = json.loads((tmp_path / "report" / "report.json").read_text())
    assert "bleu_1" in report["corpus"]
    assert "spice" in report["unavailable"]


def test_caption_single_wav(tmp_path, corpus):
    cfg = write_config(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg),
                 "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(run)]) == 0
    out = tmp_path / "one.tsv"
    assert main(["caption", "--checkpoint", str(run / "model.bin"),
                 "--input", str(corpus / "clip0001.wav"),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("clip0001\t")
    # the manifest's clips, searched in lockstep, caption as each does alone
    together = tmp_path / "all.tsv"
    assert main(["caption", "--checkpoint", str(run / "model.bin"),
                 "--input", str(corpus / "captions.jsonl"), "--out", str(together)]) == 0
    for line in together.read_text().splitlines():
        clip = line.split("\t")[0]
        assert main(["caption", "--checkpoint", str(run / "model.bin"),
                     "--input", str(corpus / f"{clip}.wav"), "--out", str(out)]) == 0
        assert out.read_text() == line + "\n"


def test_caption_outputs_identical_across_runs(tmp_path, corpus):
    cfg = write_config(tmp_path)
    run = tmp_path / "run"
    main(["train", "--config", str(cfg),
          "--manifest", str(corpus / "captions.jsonl"), "--out", str(run)])
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    for out in (a, b):
        assert main(["caption", "--checkpoint", str(run / "model.bin"),
                     "--input", str(corpus / "captions.jsonl"),
                     "--out", str(out)]) == 0
    assert sha(a) == sha(b)


def identity_candidates(refs: Path, caps: Path) -> Path:
    """Write each reference clip's first caption as its candidate."""
    rows = [json.loads(l) for l in refs.read_text().splitlines()]
    caps.write_text("".join(f"{r['id']}\t{r['captions'][0]}\n" for r in rows))
    return caps


def test_eval_identity_scores_one(tmp_path, corpus):
    refs = corpus / "captions.jsonl"
    caps = identity_candidates(refs, tmp_path / "caps.tsv")
    assert main(["eval", "--candidates", str(caps), "--references", str(refs),
                 "--out", str(tmp_path / "rep")]) == 0
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert report["corpus"]["bleu_1"] == pytest.approx(1.0)


def test_eval_missing_id_names_it(tmp_path, corpus, capsys):
    caps = tmp_path / "caps.tsv"
    caps.write_text("ghost\ta tone sounds\n")
    code = main(["eval", "--candidates", str(caps),
                 "--references", str(corpus / "captions.jsonl"),
                 "--out", str(tmp_path / "rep")])
    assert code == 3
    assert "ghost" in capsys.readouterr().err


def test_eval_rejects_duplicate_candidate_ids(tmp_path, corpus, capsys):
    refs = corpus / "captions.jsonl"
    rows = [json.loads(l) for l in refs.read_text().splitlines()]
    lines = [f"{r['id']}\t{r['captions'][0]}\n" for r in rows]
    lines.append(f"{rows[1]['id']}\ta tone sounds\n")
    caps = tmp_path / "caps.tsv"
    caps.write_text("".join(lines))
    code = main(["eval", "--candidates", str(caps), "--references", str(refs),
                 "--out", str(tmp_path / "rep")])
    assert code == 3
    err = capsys.readouterr().err
    assert rows[1]["id"] in err and f":{len(lines)}:" in err and "line 2" in err
    assert not (tmp_path / "rep" / "report.json").exists()


def test_eval_names_uncovered_references(tmp_path, corpus, capsys):
    refs = corpus / "captions.jsonl"
    rows = [json.loads(l) for l in refs.read_text().splitlines()]
    covered, left_out = rows[:2], rows[2:]
    caps = tmp_path / "caps.tsv"
    caps.write_text("".join(f"{r['id']}\ta tone sounds\n" for r in covered))
    assert main(["eval", "--candidates", str(caps), "--references", str(refs),
                 "--out", str(tmp_path / "part")]) == 0
    err = capsys.readouterr().err
    ids = sorted(r["id"] for r in left_out)
    assert all(i in err for i in ids) and "2 reference clip(s)" in err
    report = json.loads((tmp_path / "part" / "report.json").read_text())
    assert report["metadata"]["uncovered_references"] == ids
    assert report["metadata"]["corpus_size"] == 2
    text = (tmp_path / "part" / "report.txt").read_text()
    assert f"meta.uncovered_references={','.join(ids)}\n" in text

    # the scores are those of the covered clips alone
    only_covered = tmp_path / "covered.jsonl"
    only_covered.write_text("".join(json.dumps(r) + "\n" for r in covered))
    assert main(["eval", "--candidates", str(caps), "--references", str(only_covered),
                 "--out", str(tmp_path / "full")]) == 0
    assert capsys.readouterr().err == ""
    full = json.loads((tmp_path / "full" / "report.json").read_text())
    assert full["corpus"] == report["corpus"]
    assert "uncovered_references" not in full["metadata"]


def test_eval_spice_supplied_enables_spider(tmp_path, corpus):
    refs = corpus / "captions.jsonl"
    caps = identity_candidates(refs, tmp_path / "caps.tsv")
    assert main(["eval", "--candidates", str(caps), "--references", str(refs),
                 "--spice", "0.2", "--out", str(tmp_path / "rep")]) == 0
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert "spider" in report["corpus"]
    assert "spice" not in report["unavailable"]


@pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "1.5"])
def test_eval_rejects_spice_outside_unit_interval(tmp_path, corpus, capsys, value):
    refs = corpus / "captions.jsonl"
    caps = identity_candidates(refs, tmp_path / "caps.tsv")
    out = tmp_path / "rep"
    assert main(["eval", "--candidates", str(caps), "--references", str(refs),
                 "--spice", value, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "--spice must be a score in [0, 1]" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0.0", "1.0"])
def test_eval_accepts_spice_at_the_interval_ends(tmp_path, corpus, value):
    refs = corpus / "captions.jsonl"
    caps = identity_candidates(refs, tmp_path / "caps.tsv")
    assert main(["eval", "--candidates", str(caps), "--references", str(refs),
                 "--spice", value, "--out", str(tmp_path / "rep")]) == 0
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert report["corpus"]["spice"] == float(value)
    assert report["corpus"]["spider"] == (report["corpus"]["cider"] + float(value)) / 2


@pytest.mark.parametrize("line, complaint", [
    ('1', "must be a JSON object"),
    ('{"id": "a", "events": [1]}', "an event must be an object"),
    ('{"id": "a", "events": [{"kind": "tone", "onset": 0}]}', "an event must be an object"),
    ('{"id": "a", "events": [{"kind": "tone", "onset": 0, "duration": NaN}]}',
     "finite numbers"),
    ('{"id": "a", "wav": "x.wav", "captions": "a dog barks"}', "captions must be a list"),
    ('{"id": "a", "wav": "x.wav", "tags": [1]}', "tags must be a list"),
    ('{"id": 1, "wav": "x.wav"}', "string id"),
    ('{"id": "a", "wav": 3}', "wav must be a path string"),
    ('{"id": "a", "events": [], "synth_seed": "s"}', "synth_seed"),
])
def test_malformed_manifest_record_exits_3_with_line(tmp_path, capsys, line, complaint):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"id": "ok", "wav": "ok.wav"}\n' + line + "\n")
    (tmp_path / "c.tsv").write_text("ok\tx\n")
    for argv in (["train", "--manifest", str(manifest), "--out", str(tmp_path / "run")],
                 ["eval", "--candidates", str(tmp_path / "c.tsv"),
                  "--references", str(manifest), "--out", str(tmp_path / "ev")]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{manifest}:2:" in err and complaint in err, err


# ---------------------------------------------------------------------------
# tagging pretraining and --init
# ---------------------------------------------------------------------------

def test_pretrain_and_init_transfer(tmp_path, corpus):
    cfg = write_config(tmp_path, {"pretrain": {"epochs": 2, "batch_size": 4,
                                               "label_smoothing": 0.0,
                                               "dropout": 0.0,
                                               "checkpoint_every": 0}})
    tag_run = tmp_path / "tag_run"
    assert main(["train", "--config", str(cfg),
                 "--manifest", str(corpus / "tags.jsonl"),
                 "--out", str(tag_run), "--pretrain-tagging"]) == 0
    ckpt = load_checkpoint(tag_run / "model.bin")
    assert ckpt.kind == "tagging"
    assert ckpt.tags and ckpt.vocab is None
    # tagging pretraining builds no decoder, so it saves none
    assert ckpt.tensors and all(name.startswith(("enc.", "tag_head."))
                                for name in ckpt.tensors)
    assert "tag_head.w" in ckpt.tensors and "enc.cls" in ckpt.tensors

    run = tmp_path / "cap_run"
    assert main(["train", "--config", str(cfg),
                 "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(run), "--init", str(tag_run / "model.bin")]) == 0


def test_init_shape_mismatch_reports_tensor(tmp_path, corpus, capsys):
    cfg = write_config(tmp_path)
    tag_run = tmp_path / "tag_run"
    assert main(["train", "--config", str(cfg),
                 "--manifest", str(corpus / "tags.jsonl"),
                 "--out", str(tag_run), "--pretrain-tagging"]) == 0
    other_cfg = write_config(tmp_path, {"encoder.d": 32, "encoder.ffn_dim": 64})
    code = main(["train", "--config", str(other_cfg),
                 "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(tmp_path / "bad"),
                 "--init", str(tag_run / "model.bin")])
    assert code == 3
    assert "enc." in capsys.readouterr().err


def untrained_caption_checkpoint(tmp_path, cfg_path) -> Path:
    run_cfg = load_run_config(cfg_path)
    model = CaptionerModel(run_cfg.encoder,
                           dataclasses.replace(run_cfg.decoder, vocab_size=5), num_tags=1)
    ckpt = tmp_path / "model.bin"
    save_checkpoint(ckpt, Checkpoint(
        kind="caption", config=run_config_to_dict(run_cfg),
        vocab=["<pad>", "<sos>", "<eos>", "<unk>", "dog"], tags=None,
        tensors=model_state(model)))
    return ckpt


@pytest.mark.parametrize("flag, value, key", [("--beam", "0", "decode.beam_size"),
                                              ("--max-len", "-1", "decode.max_len")])
def test_caption_bad_override_exit_3_before_any_log_mel(tmp_path, corpus, capsys,
                                                        monkeypatch, flag, value, key):
    def no_log_mel(*args):
        raise AssertionError("compute_log_mel ran")

    monkeypatch.setattr(data, "compute_log_mel", no_log_mel)
    ckpt = untrained_caption_checkpoint(tmp_path, write_config(tmp_path))
    assert main(["caption", "--checkpoint", str(ckpt),
                 "--input", str(corpus / "captions.jsonl"), flag, value]) == 3
    assert f"{key} must be >= 1" in capsys.readouterr().err


def test_caption_model_is_the_checkpoint_arrays(tmp_path, monkeypatch):
    # nothing drawn, copied or given a gradient buffer
    ckpt = untrained_caption_checkpoint(tmp_path, write_config(tmp_path))
    loaded = []
    monkeypatch.setattr(cli, "load_checkpoint",
                        lambda path: loaded.append(load_checkpoint(path)) or loaded[-1])

    def no_draws(*args, **kwargs):
        raise AssertionError("random numbers drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    model, _, _ = cli._caption_model_from_checkpoint(str(ckpt))
    names = [name for name, _ in model.named_parameters()]
    assert sorted(names) == sorted(loaded[0].tensors)
    for name, p in model.named_parameters():
        assert p.data is loaded[0].tensors[name]
        assert p.grad is None and not p.requires_grad


def test_caption_refuses_tagging_checkpoint(tmp_path, corpus, capsys):
    cfg = write_config(tmp_path)
    tag_run = tmp_path / "tag_run"
    main(["train", "--config", str(cfg), "--manifest", str(corpus / "tags.jsonl"),
          "--out", str(tag_run), "--pretrain-tagging"])
    code = main(["caption", "--checkpoint", str(tag_run / "model.bin"),
                 "--input", str(corpus / "clip0000.wav")])
    assert code == 3
    assert "vocabulary" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# resume
# ---------------------------------------------------------------------------

def test_resume_reproduces_uninterrupted_run(tmp_path, corpus):
    cfg = write_config(tmp_path, {"train.epochs": 4, "train.checkpoint_every": 2})
    full = tmp_path / "full"
    assert main(["train", "--config", str(cfg),
                 "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(full)]) == 0

    resumed = tmp_path / "resumed"
    resumed.mkdir()
    shutil.copy(full / "ckpt_epoch_0002.bin", resumed / "ckpt_epoch_0002.bin")
    assert main(["train", "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(resumed), "--resume"]) == 0

    a = load_checkpoint(full / "model.bin")
    b = load_checkpoint(resumed / "model.bin")
    assert a.epoch == b.epoch == 4
    for name, arr in a.tensors.items():
        np.testing.assert_array_equal(arr, b.tensors[name], err_msg=name)
    # the final model.bin carries no moments; the epoch-4 checkpoint does
    a = load_checkpoint(full / "ckpt_epoch_0004.bin")
    b = load_checkpoint(resumed / "ckpt_epoch_0004.bin")
    assert a.optimizer.keys() == b.optimizer.keys() and a.optimizer
    for name, arr in a.optimizer.items():
        np.testing.assert_array_equal(arr, b.optimizer[name], err_msg=name)


def test_resume_skips_word2vec(tmp_path, corpus, monkeypatch):
    # a resumed run loads every word embedding from its checkpoint, so
    # word2vec embeddings trained first would be overwritten unread
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    train = ["train", "--manifest", str(corpus / "captions.jsonl"), "--out", str(out)]
    assert main(train + ["--config", str(cfg)]) == 0
    final = sha(out / "model.bin")
    (out / "ckpt_epoch_0002.bin").unlink()

    def refuse(*args, **kwargs):
        raise AssertionError("word2vec trained on --resume")

    monkeypatch.setattr(cli, "train_skipgram", refuse)
    assert main(train + ["--resume"]) == 0
    assert sha(out / "model.bin") == final


def test_resume_drops_metrics_logged_past_the_checkpoint(tmp_path, corpus):
    cfg = write_config(tmp_path, {"train.epochs": 4, "train.checkpoint_every": 2})
    full = tmp_path / "full"
    assert main(["train", "--config", str(cfg),
                 "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(full)]) == 0
    (full / "ckpt_epoch_0004.bin").unlink()
    logged = (full / "metrics.jsonl").read_text(encoding="utf-8")
    # as interrupted after logging epoch 4, and while writing epoch 4's line
    for name, text in (("after", logged), ("during", logged[:-20])):
        run = tmp_path / name
        shutil.copytree(full, run)
        (run / "metrics.jsonl").write_text(text, encoding="utf-8")
        assert main(["train", "--manifest", str(corpus / "captions.jsonl"),
                     "--out", str(run), "--resume"]) == 0
        lines = (run / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["epoch"] for line in lines] == [1, 2, 3, 4], name
        assert lines[:2] == logged.splitlines()[:2], name


def test_fresh_train_replaces_earlier_run(tmp_path, corpus, capsys):
    run = tmp_path / "run"
    for seed, epochs in (("3", 4), ("9", 2)):
        cfg = write_config(tmp_path, {"train.epochs": epochs, "train.checkpoint_every": 2})
        assert main(["train", "--config", str(cfg), "--seed", seed,
                     "--manifest", str(corpus / "captions.jsonl"),
                     "--out", str(run)]) == 0
    lines = (run / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["epoch"] for line in lines] == [1, 2]
    assert sorted(p.name for p in run.glob("ckpt_epoch_*.bin")) == ["ckpt_epoch_0002.bin"]
    assert load_checkpoint(run / "ckpt_epoch_0002.bin").config["seed"] == 9
    err = capsys.readouterr().err
    assert "ckpt_epoch_0002.bin, ckpt_epoch_0004.bin" in err


def test_resume_skips_truncated_latest_checkpoint(tmp_path, corpus, capsys):
    cfg = write_config(tmp_path, {"train.epochs": 4, "train.checkpoint_every": 1})
    full = tmp_path / "full"
    assert main(["train", "--config", str(cfg),
                 "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(full)]) == 0

    resumed = tmp_path / "resumed"
    resumed.mkdir()
    shutil.copy(full / "ckpt_epoch_0002.bin", resumed / "ckpt_epoch_0002.bin")
    raw = (full / "ckpt_epoch_0003.bin").read_bytes()
    (resumed / "ckpt_epoch_0003.bin").write_bytes(raw[: len(raw) // 2])
    capsys.readouterr()
    assert main(["train", "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(resumed), "--resume"]) == 0
    assert "ckpt_epoch_0003.bin" in capsys.readouterr().err

    a = load_checkpoint(full / "model.bin")
    b = load_checkpoint(resumed / "model.bin")
    assert a.epoch == b.epoch == 4
    for name, arr in a.tensors.items():
        np.testing.assert_array_equal(arr, b.tensors[name], err_msg=name)


def test_resume_orders_checkpoints_by_epoch_number(tmp_path, corpus, capsys, monkeypatch):
    run = tmp_path / "run"
    assert main(["train", "--config", str(write_config(tmp_path)),
                 "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(run)]) == 0
    # a 10,000-epoch run: resuming from epoch 10000 finds nothing left to do,
    # while epoch 9999 (first by name: "ckpt_epoch_10000" sorts before it)
    # would train one more epoch
    for epoch in (9999, 10000):
        ckpt = load_checkpoint(run / "ckpt_epoch_0002.bin")
        ckpt.epoch = epoch
        ckpt.config["train"]["epochs"] = 10000
        save_checkpoint(run / f"ckpt_epoch_{epoch}.bin", ckpt)

    def no_log_mel(*args):
        raise AssertionError("compute_log_mel ran")

    # a finished run is refused before any clip's log-mel is computed
    monkeypatch.setattr(data, "compute_log_mel", no_log_mel)
    code = main(["train", "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(run), "--resume"])
    assert code == 3
    assert "already finished" in capsys.readouterr().err


def test_only_periodic_checkpoints_carry_optimizer_state(tmp_path, corpus):
    run = tmp_path / "run"
    assert main(["train", "--config", str(write_config(tmp_path)),
                 "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(run)]) == 0
    final = load_checkpoint(run / "model.bin")
    periodic = load_checkpoint(run / "ckpt_epoch_0002.bin")
    assert final.optimizer == {}  # load_checkpoint files every opt.* entry here
    assert periodic.optimizer and set(periodic.optimizer) <= {
        f"{m}.{name}" for name in final.tensors for m in "mv"}
    for name, arr in final.tensors.items():
        np.testing.assert_array_equal(arr, periodic.tensors[name], err_msg=name)


def test_resume_restores_optimizer_moments(tmp_path, corpus, capsys, monkeypatch):
    cfg = write_config(tmp_path, {"train.epochs": 3, "train.checkpoint_every": 2})
    full = tmp_path / "full"
    assert main(["train", "--config", str(cfg),
                 "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(full)]) == 0
    saved = load_checkpoint(full / "ckpt_epoch_0002.bin")

    class Captured(Exception):
        pass

    def capture(model, provider, cfg, start_epoch, optimizer, on_epoch):
        raise Captured(optimizer, model, start_epoch)

    monkeypatch.setattr(cli, "train_captioner", capture)
    resumed = tmp_path / "resumed"
    resumed.mkdir()
    shutil.copy(full / "ckpt_epoch_0002.bin", resumed)
    with pytest.raises(Captured) as exc:
        main(["train", "--manifest", str(corpus / "captions.jsonl"),
              "--out", str(resumed), "--resume"])
    optimizer, model, start_epoch = exc.value.args
    assert start_epoch == 3 and optimizer.t == saved.optimizer_step
    names = {id(p): n for n, p in model.named_parameters()}
    for p, m, v in zip(optimizer.params, optimizer.m, optimizer.v):
        name = names[id(p)]
        np.testing.assert_array_equal(m, saved.optimizer[f"m.{name}"], err_msg=name)
        np.testing.assert_array_equal(v, saved.optimizer[f"v.{name}"], err_msg=name)
        assert m.flags.writeable and v.flags.writeable  # Adam updates in place

    # a checkpoint without one of the moments is a validation error
    dropped = f"v.{names[id(optimizer.params[0])]}"
    del saved.optimizer[dropped]
    broken = tmp_path / "broken"
    broken.mkdir()
    save_checkpoint(broken / "ckpt_epoch_0002.bin", saved)
    code = main(["train", "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(broken), "--resume"])
    assert code == 3
    assert dropped in capsys.readouterr().err


def test_caption_on_truncated_checkpoint_exits_3(tmp_path, corpus, capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", str(write_config(tmp_path)),
                 "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(run)]) == 0
    raw = (run / "model.bin").read_bytes()
    header_end = 16 + int.from_bytes(raw[8:16], "little")
    for cut in (0, 10, 17, header_end // 2, header_end + 100, len(raw) - 8):
        path = tmp_path / f"cut{cut}.bin"
        path.write_bytes(raw[:cut])
        code = main(["caption", "--checkpoint", str(path),
                     "--input", str(corpus / "clip0000.wav")])
        assert code == 3, cut
        err = capsys.readouterr().err
        assert "truncated" in err or "runs past" in err, (cut, err)


def test_resume_without_checkpoint_fails(tmp_path, corpus, capsys):
    code = main(["train", "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(tmp_path / "empty"), "--resume"])
    assert code == 3
    assert "checkpoint" in capsys.readouterr().err


def test_resume_from_tagging_checkpoint_fails(tmp_path, corpus, capsys):
    # a tagging run with periodic checkpoints leaves the newest ckpt_epoch_*
    # in --out, and it has no vocabulary to resume captioning from
    cfg = write_config(tmp_path, {"pretrain.epochs": 1, "pretrain.batch_size": 4,
                                  "pretrain.checkpoint_every": 1})
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--manifest", str(corpus / "tags.jsonl"),
                 "--out", str(run), "--pretrain-tagging"]) == 0
    capsys.readouterr()
    code = main(["train", "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(run), "--resume"])
    err = capsys.readouterr().err
    assert code == 3
    assert str(run / "ckpt_epoch_0001.bin") in err
    assert "Traceback" not in err


def test_resume_on_another_corpus_exits_3(tmp_path, capsys):
    # a run resumed on a manifest with other words would train on with the
    # checkpoint's vocabulary, the new words all <unk>
    for seed in (3, 9):
        assert main(["synth-data", "--count", "4", "--seed", str(seed),
                     "--out", str(tmp_path / f"corpus{seed}")]) == 0
    run = tmp_path / "run"
    assert main(["train", "--config", str(write_config(tmp_path)),
                 "--manifest", str(tmp_path / "corpus3" / "captions.jsonl"),
                 "--out", str(run)]) == 0
    (run / "ckpt_epoch_0002.bin").unlink()  # resume after epoch 1 of 2, not a finished run
    capsys.readouterr()
    code = main(["train", "--manifest", str(tmp_path / "corpus9" / "captions.jsonl"),
                 "--out", str(run), "--resume"])
    assert code == 3
    assert "'deep' in the manifest, 'by' in the checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--config", "config.json"), ("--seed", "3"),
                                         ("--init", "pretrain.bin")])
def test_resume_rejects_the_flags_it_would_ignore(tmp_path, capsys, flag, value):
    # the checkpoint fixes the config, the seed and every weight
    with pytest.raises(SystemExit) as exc:
        main(["train", "--manifest", "m.jsonl", "--out", str(tmp_path), "--resume",
              flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_word2vec_dim_mismatch_exit_3_before_any_log_mel(tmp_path, corpus, capsys,
                                                        monkeypatch):
    def no_log_mel(*args):
        raise AssertionError("compute_log_mel ran")

    monkeypatch.setattr(data, "compute_log_mel", no_log_mel)
    cfg = write_config(tmp_path, {"word2vec.dim": 8})  # the decoder dim is 16
    assert main(["train", "--config", str(cfg), "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(tmp_path / "run")]) == 3
    assert "word2vec.dim 8 must be 0 or the decoder dim 16" in capsys.readouterr().err
    # without word2vec the dim is not read
    load_run_config(write_config(tmp_path, {"word2vec": {"enabled": False, "dim": 8}}))


def test_bad_lr_schedule_exit_3_before_any_log_mel(tmp_path, corpus, capsys, monkeypatch):
    # decay_every 0 used to train epoch 1, then die dividing by zero
    def no_log_mel(*args):
        raise AssertionError("compute_log_mel ran")

    monkeypatch.setattr(data, "compute_log_mel", no_log_mel)
    cfg = write_config(tmp_path, {"train.decay_every": 0})
    assert main(["train", "--config", str(cfg), "--manifest", str(corpus / "captions.jsonl"),
                 "--out", str(tmp_path / "run")]) == 3
    assert "decay_every must be >= 1" in capsys.readouterr().err


def test_too_many_patches_exit_3_before_any_log_mel(tmp_path, corpus, capsys, monkeypatch):
    # hop 64 makes 5,001 frames, 625 patches of 8, from a 10 s clip
    def no_log_mel(*args):
        raise AssertionError("compute_log_mel ran")

    monkeypatch.setattr(data, "compute_log_mel", no_log_mel)
    cfg = write_config(tmp_path, {"frontend": {"mel_bins": 16, "frames_per_patch": 8,
                                               "hop": 64}})
    for manifest, extra in (("captions.jsonl", []),
                            ("tags.jsonl", ["--pretrain-tagging"])):
        assert main(["train", "--config", str(cfg), "--manifest", str(corpus / manifest),
                     "--out", str(tmp_path / "run"), *extra]) == 3
        assert "625 patches" in capsys.readouterr().err

    ckpt = untrained_caption_checkpoint(tmp_path, cfg)
    assert main(["caption", "--checkpoint", str(ckpt),
                 "--input", str(corpus / "captions.jsonl")]) == 3
    err = capsys.readouterr().err
    assert "625 patches" in err and "max_patches 80" in err


# ---------------------------------------------------------------------------
# seeds and numeric failures
# ---------------------------------------------------------------------------

def _parsed_config(path, *extra):
    args = build_parser().parse_args(
        ["train", "--config", str(path), "--manifest", "m", "--out", "o", *extra])
    return _load_config(args)


def test_explicit_section_seed_zero_is_kept(tmp_path):
    path = write_config(tmp_path, {"seed": 7, "train.seed": 0})
    cfg = _parsed_config(path)
    assert (cfg.seed, cfg.train.seed, cfg.pretrain.seed) == (7, 0, 7)
    cfg = _parsed_config(write_config(tmp_path, {"seed": 7}))
    assert (cfg.train.seed, cfg.pretrain.seed) == (7, 7)
    cfg = _parsed_config(path, "--seed", "5")
    assert (cfg.seed, cfg.train.seed, cfg.pretrain.seed) == (5, 5, 5)


def test_nan_input_stops_training_with_exit_3(tmp_path, corpus, capsys, monkeypatch):
    real_read_wav = data.read_wav

    def read_wav(path):
        wave = real_read_wav(path)
        if Path(path).name == "clip0002.wav":
            wave.samples[:] = np.nan
        return wave

    monkeypatch.setattr(data, "read_wav", read_wav)
    cfg = write_config(tmp_path, {"train.batch_size": 1})
    run = tmp_path / "run"
    code = main(["train", "--config", str(cfg),
                 "--manifest", str(corpus / "captions.jsonl"), "--out", str(run)])
    assert code == 3
    # clip 2 is the third example; batches of one follow the epoch's order
    order = np.random.default_rng([TINY_CONFIG["seed"], 1, 0]).permutation(4)
    batch = int(np.flatnonzero(order == 2)[0]) + 1
    err = capsys.readouterr().err
    assert f"non-finite loss nan at epoch 1, batch {batch}" in err
    assert not (run / "model.bin").exists()


def test_nan_gradient_stops_training_with_exit_3(tmp_path, corpus, capsys, monkeypatch):
    # a finite loss whose GELU backward yields NaN on the first batch
    true_gelu = autodiff.gelu

    def nan_gelu(a):
        out = true_gelu(a)
        if out.node is not None:
            (x, _), = out.node.edges
            out.node.edges = ((x, lambda g: np.full_like(g, np.nan)),)
        return out

    monkeypatch.setattr(autodiff, "gelu", nan_gelu)
    run = tmp_path / "run"
    code = main(["train", "--config", str(write_config(tmp_path)),
                 "--manifest", str(corpus / "captions.jsonl"), "--out", str(run)])
    assert code == 3
    assert "non-finite gradient at epoch 1, batch 1" in capsys.readouterr().err
    assert not (run / "model.bin").exists()


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

GRADCHECK_CONFIG = {
    "seed": 1,
    "frontend": {"mel_bins": 8, "frames_per_patch": 2},
    "encoder": {"d": 16, "heads": 2, "layers": 1, "ffn_dim": 32,
                "dropout": 0.0, "patch_dim": 16, "max_patches": 8},
    "decoder": {"vocab_size": 8, "d": 16, "heads": 2, "layers": 1,
                "ffn_dim": 32, "dropout": 0.0},
}


def test_gradcheck_passes_on_small_config(tmp_path, capsys):
    path = tmp_path / "gc.json"
    path.write_text(json.dumps(GRADCHECK_CONFIG))
    assert main(["gradcheck", "--config", str(path), "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out and "PASS" in out


def test_gradcheck_detects_corrupted_backward(tmp_path, monkeypatch, capsys):
    # sabotage one backward rule; the harness must go red
    true_gelu = autodiff.gelu

    def broken_gelu(a):
        out = true_gelu(a)
        if out.node is not None:
            (x, rule), = out.node.edges
            out.node.edges = ((x, lambda g: 1.5 * rule(g)),)
        return out

    monkeypatch.setattr(autodiff, "gelu", broken_gelu)
    path = tmp_path / "gc.json"
    path.write_text(json.dumps(GRADCHECK_CONFIG))
    assert main(["gradcheck", "--config", str(path), "--seed", "0"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_deterministic_output(tmp_path, capsys):
    path = tmp_path / "gc.json"
    path.write_text(json.dumps(GRADCHECK_CONFIG))
    main(["gradcheck", "--config", str(path), "--seed", "2"])
    first = capsys.readouterr().out
    main(["gradcheck", "--config", str(path), "--seed", "2"])
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required arguments
    assert exc.value.code == 2


def test_tagging_cannot_resume(tmp_path):
    # a tagging run starts afresh and would remove the checkpoints --resume wants
    with pytest.raises(SystemExit) as exc:
        main(["train", "--pretrain-tagging", "--resume", "--manifest", "m.jsonl",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_train_has_no_caption_flag(tmp_path):
    # captioning is what `train` does unless --pretrain-tagging is given
    with pytest.raises(SystemExit) as exc:
        main(["train", "--caption", "--manifest", "m.jsonl", "--out", str(tmp_path)])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# dependencies
# ---------------------------------------------------------------------------

def test_cli_imports_no_scipy():
    # numpy is the only runtime dependency; GELU's erf is autodiff's own
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import sys, audiocap.cli; print([m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert proc.stdout.strip() == "[]"


def test_train_bytes_do_not_depend_on_blas_threads(tmp_path, corpus):
    # audiocap pins numpy's OpenBLAS to one thread at import, so a desk-size
    # model trains to the same bytes whatever OPENBLAS_NUM_THREADS says
    src = Path(cli.__file__).resolve().parents[1]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 7, "train": {"epochs": 2, "batch_size": 2},
                                  "word2vec": {"epochs": 1}}), encoding="utf-8")
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "audiocap.cli", "train", "--config", str(config),
                        "--manifest", str(corpus / "captions.jsonl"), "--out", str(out)],
                       env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, check=True)
        digests.append(sha(out / "model.bin"))
    assert digests[0] == digests[1]
