"""Command-line surface: synth-data, train, caption, eval, gradcheck.

Exit codes: 0 success, 2 usage error, 3 validation or numeric error,
4 I/O error.
Every command is reproducible: config + seed + inputs determine outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import gradcheck
from .atomic import write_atomic
from .audio import CLIP_SAMPLES, patchify, pcm16, write_wav
from .autodiff import NumericError, no_grad
from .checkpoint import (Checkpoint, load_checkpoint, load_model_state,
                         model_state, save_checkpoint)
from .config import (RunConfig, ValidationError, load_run_config,
                     run_config_from_dict, run_config_to_dict)
from .data import (CaptionClip, ManifestRecord, load_manifest, load_tagging_clips,
                   record_logmel, tag_name_list, training_examples, write_manifest)
from .decoding import beam_search_clips
from .metrics import evaluate_captions
from .model import CaptionerModel
from .optim import Adam
from .synth import MAX_EVENTS, corpus_clip
from .text import (Vocabulary, build_vocabulary, decode as decode_tokens,
                   encode as encode_tokens, save_vocabulary, tokenize_caption)
from .training import (EpochStats, pretrain_tagging, train_captioner,
                       trainable_caption_params)
from .word2vec import train_skipgram

DATA_DIR_ENV = "AUDIOCAP_DATA_DIR"


def _default_data_dir() -> str:
    return os.environ.get(DATA_DIR_ENV, "data")


# ---------------------------------------------------------------------------
# synth-data
# ---------------------------------------------------------------------------

def cmd_synth_data(args) -> int:
    if args.count < 1:
        raise ValidationError("--count must be >= 1")
    if args.max_events < 1:
        raise ValidationError("--max-events must be >= 1")
    if args.max_events > MAX_EVENTS:
        raise ValidationError(f"--max-events must be <= {MAX_EVENTS}: a clip holds "
                              f"at most {MAX_EVENTS} events")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # one clip at a time, through two clip-sized buffers reused for every
    # clip: memory does not grow with --count, and freed clip arrays are not
    # handed back to the OS only to be page-faulted in for the next clip
    samples = np.empty(CLIP_SAMPLES)
    pcm = np.empty(CLIP_SAMPLES, dtype="<i2")
    caption_recs, tag_recs = [], []
    for i in range(args.count):
        rec = corpus_clip(i, args.seed, args.max_events, samples)
        wav_name = f"{rec.clip_id}.wav"
        write_wav(out_dir / wav_name, pcm16(samples, pcm))
        caption_recs.append(ManifestRecord(
            clip_id=rec.clip_id, wav=wav_name, captions=[rec.caption]))
        tag_recs.append(ManifestRecord(
            clip_id=rec.clip_id, wav=wav_name, tags=rec.tags))
    write_manifest(out_dir / "captions.jsonl", caption_recs)
    write_manifest(out_dir / "tags.jsonl", tag_recs)
    print(f"wrote {args.count} clips to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _load_config(args) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    for section in (cfg.train, cfg.pretrain):
        if args.seed is not None or section.seed is None:
            section.seed = cfg.seed
    return cfg


def _resume_checkpoint(out_dir: Path) -> tuple[Path, Checkpoint]:
    """The periodic checkpoint of the highest epoch in `out_dir` that loads;
    newer ones that fail to load are named on stderr and skipped."""
    epochs = {p: p.stem.removeprefix("ckpt_epoch_") for p in out_dir.glob("ckpt_epoch_*.bin")}
    for path in sorted((p for p in epochs if epochs[p].isdecimal()),
                       key=lambda p: int(epochs[p]), reverse=True):
        try:
            return path, load_checkpoint(path)
        except ValidationError as exc:
            print(f"warning: skipping an unloadable checkpoint: {exc}", file=sys.stderr)
    raise ValidationError(f"--resume: no loadable periodic checkpoint in {out_dir}")


def _optimizer_blobs(optimizer: Adam, names: list[str]) -> dict[str, np.ndarray]:
    return {f"{kind}.{name}": moment for kind, moments in (("m", optimizer.m), ("v", optimizer.v))
            for name, moment in zip(names, moments)}


def _fit(out_dir: Path, every: int, train, checkpoint, done: str,
         resumed_epoch: int | None = None) -> None:
    """Run `train(on_epoch)`, appending each epoch to metrics.jsonl, writing
    ckpt_epoch_NNNN.bin every `every` epochs (0: never) and model.bin at the
    end. `checkpoint(epoch, periodic)` builds what is written. A run resumed
    after epoch `resumed_epoch` drops the metrics.jsonl lines past it; any
    other run replaces an earlier one in `out_dir`: metrics.jsonl starts
    empty and the earlier periodic checkpoints are removed."""
    metrics = out_dir / "metrics.jsonl"
    if resumed_epoch is None:
        stale = sorted(out_dir.glob("ckpt_epoch_*.bin"))
        if stale:
            print(f"removing the earlier run's checkpoints: "
                  f"{', '.join(p.name for p in stale)}", file=sys.stderr)
        for path in stale:
            path.unlink()
        metrics.write_text("", encoding="utf-8")
    elif metrics.exists():
        # the interrupted run may have logged epochs past its last checkpoint,
        # the last line perhaps cut short (no newline)
        kept = [line for line in metrics.read_text(encoding="utf-8").splitlines(True)
                if line.endswith("\n") and json.loads(line)["epoch"] <= resumed_epoch]
        write_atomic(metrics, "".join(kept).encode("utf-8"))
    start = time.monotonic()

    def on_epoch(stats: EpochStats) -> None:
        with open(metrics, "a", encoding="utf-8") as f:
            f.write(json.dumps({
                "epoch": stats.epoch, "lr": stats.lr, "loss": stats.mean_loss,
                "wall_time": round(time.monotonic() - start, 3),
            }, sort_keys=True) + "\n")
        if every > 0 and stats.epoch % every == 0:
            save_checkpoint(out_dir / f"ckpt_epoch_{stats.epoch:04d}.bin",
                            checkpoint(stats.epoch, True))

    result = train(on_epoch)
    save_checkpoint(out_dir / "model.bin", checkpoint(result.history[-1].epoch, False))
    print(f"{done}: final loss {result.final_loss:.4f}")
    print(f"checkpoint: {out_dir / 'model.bin'}")


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = load_manifest(args.manifest)
    base_dir = Path(args.manifest).parent
    if args.pretrain_tagging:
        return _train_tagging(args, cfg, records, base_dir, out_dir)
    return _train_caption(args, cfg, records, base_dir, out_dir)


def _train_tagging(args, cfg: RunConfig, records, base_dir, out_dir: Path) -> int:
    cfg.frontend.check_clip_patches(cfg.encoder.max_patches)
    tags = tag_name_list(records)
    clips = load_tagging_clips(records, cfg.frontend, tags, base_dir)
    model = CaptionerModel(cfg.encoder, None, num_tags=len(tags), seed=cfg.seed)

    def checkpoint(epoch: int, periodic: bool) -> Checkpoint:
        return Checkpoint(kind="tagging", config=run_config_to_dict(cfg), vocab=None,
                          tags=tags, tensors=model_state(model), epoch=epoch)

    def train(on_epoch):
        return pretrain_tagging(model, lambda epoch: training_examples(
            clips, cfg.frontend, cfg.augment, cfg.seed, epoch), cfg.pretrain, on_epoch=on_epoch)

    _fit(out_dir, cfg.pretrain.checkpoint_every, train, checkpoint,
         "tagging pretraining done")
    return 0


def _train_caption(args, cfg: RunConfig, records, base_dir, out_dir: Path) -> int:
    start_epoch = 1
    resume_ckpt = None
    if args.resume:
        latest, resume_ckpt = _resume_checkpoint(out_dir)
        if resume_ckpt.vocab is None:
            raise ValidationError(
                f"{latest}: checkpoint has no vocabulary (tagging checkpoint?); "
                "--resume needs a caption checkpoint")
        cfg = run_config_from_dict(resume_ckpt.config)
        start_epoch = (resume_ckpt.epoch or 0) + 1
        if start_epoch > cfg.train.epochs:
            raise ValidationError("--resume: training already finished")
    cfg.frontend.check_clip_patches(cfg.encoder.max_patches)

    corpus = [tokenize_caption(rec.captions[0]) if rec.captions else []
              for rec in records]
    if any(not sent for sent in corpus):
        raise ValidationError("every caption-training record needs a caption")
    vocab = build_vocabulary(corpus, min_count=cfg.min_count)
    if resume_ckpt is not None and vocab.id_to_word != resume_ckpt.vocab:
        pair = list(zip(vocab.id_to_word, resume_ckpt.vocab))
        i = next((i for i, (a, b) in enumerate(pair) if a != b), len(pair))
        ours, theirs = (repr(words[i]) if i < len(words) else "no word"
                        for words in (vocab.id_to_word, resume_ckpt.vocab))
        raise ValidationError(
            f"--resume: {args.manifest} gives another vocabulary than {latest}: "
            f"id {i} is {ours} in the manifest, {theirs} in the checkpoint")
    clips = [CaptionClip(clip_id=rec.clip_id, logmel=record_logmel(rec, cfg.frontend, base_dir),
                         tokens=encode_tokens(sent, vocab))
             for rec, sent in zip(records, corpus)]
    tags = sorted({t for rec in records for t in rec.tags})

    dec_cfg = dataclasses.replace(cfg.decoder, vocab_size=len(vocab))
    word_embeddings = None
    if cfg.word2vec.enabled and resume_ckpt is None:  # a resumed run loads its own
        word_embeddings = train_skipgram(
            corpus, vocab, dim=dec_cfg.d, window=cfg.word2vec.window,
            negatives=cfg.word2vec.negatives, epochs=cfg.word2vec.epochs,
            seed=cfg.seed, lr=cfg.word2vec.lr).embeddings
    model = CaptionerModel(cfg.encoder, dec_cfg, num_tags=len(tags) or 1,
                           seed=cfg.seed, word_embeddings=word_embeddings)
    if args.init:
        init_ckpt = load_checkpoint(args.init)
        load_model_state(model, init_ckpt.tensors, prefix="enc.")
        print(f"initialized encoder from {args.init}")
    optimizer = Adam(trainable_caption_params(model, cfg.train.freeze_encoder))
    param_names = [name for name, p in model.named_parameters()
                   if any(p is q for q in optimizer.params)]
    if resume_ckpt is not None:
        load_model_state(model, resume_ckpt.tensors)
        moments = resume_ckpt.optimizer
        missing = [key for name in param_names for key in (f"m.{name}", f"v.{name}")
                   if key not in moments]
        if missing:
            raise ValidationError(f"{latest}: optimizer state lacks {missing}")
        for i, name in enumerate(param_names):
            optimizer.m[i][...] = moments[f"m.{name}"]
            optimizer.v[i][...] = moments[f"v.{name}"]
        optimizer.t = resume_ckpt.optimizer_step

    def checkpoint(epoch: int, periodic: bool) -> Checkpoint:
        # only the periodic checkpoints that --resume reads carry Adam moments
        return Checkpoint(
            kind="caption", config=run_config_to_dict(cfg),
            vocab=vocab.id_to_word, tags=tags or None,
            tensors=model_state(model), epoch=epoch,
            optimizer=_optimizer_blobs(optimizer, param_names) if periodic else {},
            optimizer_step=optimizer.t)

    def train(on_epoch):
        return train_captioner(model, lambda epoch: training_examples(
            clips, cfg.frontend, cfg.augment, cfg.seed, epoch), cfg.train,
            start_epoch=start_epoch, optimizer=optimizer, on_epoch=on_epoch)

    _fit(out_dir, cfg.train.checkpoint_every, train, checkpoint, "caption training done",
         resumed_epoch=start_epoch - 1 if args.resume else None)
    save_vocabulary(vocab, out_dir / "vocab.txt")
    return 0


# ---------------------------------------------------------------------------
# caption
# ---------------------------------------------------------------------------

def _caption_model_from_checkpoint(path: str) -> tuple[CaptionerModel, Vocabulary, RunConfig]:
    ckpt = load_checkpoint(path)
    if ckpt.vocab is None:
        raise ValidationError(
            f"{path}: checkpoint has no vocabulary (tagging checkpoint?); "
            "caption decoding needs a caption checkpoint")
    cfg = run_config_from_dict(ckpt.config)
    vocab = Vocabulary(id_to_word=list(ckpt.vocab))
    # an inference model: the checkpoint's read-only arrays are its
    # parameters, with nothing drawn, copied or given a gradient buffer
    model = CaptionerModel(cfg.encoder, dataclasses.replace(cfg.decoder, vocab_size=len(vocab)),
                           num_tags=len(ckpt.tags) if ckpt.tags else 1, seed=None)
    load_model_state(model, ckpt.tensors)
    return model, vocab, cfg


def cmd_caption(args) -> int:
    model, vocab, cfg = _caption_model_from_checkpoint(args.checkpoint)
    cfg.frontend.check_clip_patches(cfg.encoder.max_patches)
    decode = dataclasses.replace(  # checks the overrides as the config's own
        cfg.decode,
        beam_size=args.beam if args.beam is not None else cfg.decode.beam_size,
        max_len=args.max_len if args.max_len is not None else cfg.decode.max_len,
        length_norm=cfg.decode.length_norm or args.length_norm)

    input_path = Path(args.input)
    base_dir = input_path.parent
    if input_path.suffix.lower() == ".wav":
        records = [ManifestRecord(clip_id=input_path.stem, wav=input_path.name)]
    else:
        records = load_manifest(input_path)
    records.sort(key=lambda r: r.clip_id)

    def memories():
        for rec in records:
            logmel = record_logmel(rec, cfg.frontend, base_dir)
            patches = patchify(logmel, cfg.frontend.frames_per_patch).patches[None]
            with no_grad():
                memory = model.encoder_memory(model.encode(model.embed_patches(patches)))
            yield memory

    captions = beam_search_clips(model, memories(), decode.beam_size,
                                 max_len=decode.max_len, length_norm=decode.length_norm)
    lines = [f"{rec.clip_id}\t{' '.join(decode_tokens(ids, vocab))}"
             for rec, ids in zip(records, captions)]
    text = "\n".join(lines) + "\n"
    if args.out:
        write_atomic(args.out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    if args.spice is not None and not 0.0 <= args.spice <= 1.0:  # NaN fails too
        raise ValidationError(f"--spice must be a score in [0, 1], got {args.spice}")
    references = {}
    for rec in load_manifest(args.references):
        if not rec.captions:
            raise ValidationError(f"reference clip {rec.clip_id!r} has no captions")
        references[rec.clip_id] = [tokenize_caption(c) for c in rec.captions]
    candidates, line_of = {}, {}
    for ln, line in enumerate(
            Path(args.candidates).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise ValidationError(f"{args.candidates}:{ln}: expected 'id<TAB>caption'")
        clip_id, caption = line.split("\t", 1)
        if clip_id in line_of:
            raise ValidationError(
                f"{args.candidates}:{ln}: duplicate candidate id {clip_id!r} "
                f"(first on line {line_of[clip_id]})")
        line_of[clip_id] = ln
        candidates[clip_id] = tokenize_caption(caption)

    report = evaluate_captions(candidates, references, spice_score=args.spice,
                               bleu_smoothing=args.smoothing)
    uncovered = report.metadata.get("uncovered_references")
    if uncovered:
        print(f"warning: {len(uncovered)} reference clip(s) have no candidate and "
              f"are not scored: {', '.join(uncovered)}", file=sys.stderr)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / "report.txt", report.to_key_value_text().encode("utf-8"))
    write_atomic(out_dir / "report.json", report.to_json().encode("utf-8"))
    sys.stdout.write(report.to_key_value_text())
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    if args.config:
        cfg = load_run_config(args.config)
        enc = dataclasses.replace(cfg.encoder, dropout=0.0, max_patches=max(
            cfg.encoder.max_patches, gradcheck.NUM_PATCHES))
        dec = dataclasses.replace(cfg.decoder, dropout=0.0,
                                  vocab_size=cfg.decoder.vocab_size or gradcheck.VOCAB_SIZE)
    else:
        enc, dec = gradcheck.tiny_configs()
    report = gradcheck.model_gradient_check(args.seed, enc, dec)
    worst_name = max(report.per_param, key=report.per_param.get)
    print(f"checked {len(report.per_param)} parameter tensors")
    print(f"max relative error: {report.max_error:.3e} (worst: {worst_name})")
    print(f"tolerance: {gradcheck.DEFAULT_TOLERANCE:.1e} -> {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="audiocap",
        description="Audio captioning transformer toolkit (desk scale)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate a synthetic audio corpus")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=_default_data_dir())
    p.add_argument("--max-events", type=int, default=2)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("train", help="train the captioner or pretrain tagging")
    p.add_argument("--config", default=None)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    mode = p.add_mutually_exclusive_group()  # a tagging run always starts afresh
    mode.add_argument("--pretrain-tagging", action="store_true",
                      help="pretrain the encoder on audio tagging instead of "
                           "training the captioner")
    p.add_argument("--init", default=None,
                   help="load encoder weights from a tagging checkpoint")
    mode.add_argument("--resume", action="store_true",
                      help="continue from the latest periodic checkpoint in --out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("caption", help="caption a wav file or manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="wav file or manifest")
    p.add_argument("--beam", type=int, default=None)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--length-norm", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_caption)

    p = sub.add_parser("eval", help="score candidate captions")
    p.add_argument("--candidates", required=True, help="TSV: id<TAB>caption")
    p.add_argument("--references", required=True, help="reference manifest")
    p.add_argument("--out", default=os.environ.get(DATA_DIR_ENV, "."))
    p.add_argument("--spice", type=float, default=None,
                   help="externally computed SPICE score for SPIDEr")
    p.add_argument("--smoothing", action="store_true", help="add-one BLEU smoothing")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False):
        # the checkpoint holds the config, the seed and every weight
        ignored = [f"--{flag}" for flag in ("config", "seed", "init")
                   if getattr(args, flag) is not None]
        if ignored:
            parser.error(f"train --resume continues the checkpoint's run and "
                         f"cannot take {', '.join(ignored)}")
    try:
        return args.func(args)
    except (ValueError, NumericError) as exc:  # ValidationError included
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
