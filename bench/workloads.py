"""The three workloads: train, caption and gradcheck.

Each drives `audiocap.cli.main` in process. `setup` may run several times
into fresh directories (the benchmark reports the median); `finish_setup`
runs once after them; `run_round` is one timed round of whole commands;
`verify` checks every round's outputs after the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

CLIPS = 8

# desk recipe of scripts/desk_pipeline.py; "vocab_size": 0 is spelled out
# because a decoder section without it is rejected
DESK_CONFIG = {
    "encoder": {"dropout": 0.0},
    "decoder": {"dropout": 0.0, "vocab_size": 0},
    "train": {
        "epochs": 200, "batch_size": 2, "base_lr": 1e-4, "warmup_epochs": 5,
        "decay_every": 1000, "label_smoothing": 0.0, "dropout": 0.0,
        "checkpoint_every": 100,
    },
    "word2vec": {"epochs": 10},
    "decode": {"beam_size": 5, "max_len": 22},
}
TRAIN_EPOCHS = 8            # epochs per timed `audiocap train`
# set-up training behind `caption`: the desk recipe, shorter and faster
CAPTION_CKPT_TRAIN = {"epochs": 40, "base_lr": 3e-4, "warmup_epochs": 1}
# `caption` and `gradcheck` always use the corpus and model seed of the desk
# pipeline, not --seed: how long beam hypotheses live depends on the clips
# and the trained model, and whether the finite-difference check passes
# depends on the model shape and the gradcheck seed (see README)
DESK_SEED = 7
GRADCHECK_SEED = 0
BEAM = 5

# small gradcheck model; the decoder vocabulary is the desk corpus's
GRADCHECK_CONFIG = {
    "frontend": {"mel_bins": 8, "frames_per_patch": 2},
    "encoder": {"d": 6, "heads": 2, "layers": 2, "ffn_dim": 12, "dropout": 0.0,
                "patch_dim": 16, "max_patches": 3},
    "decoder": {"d": 6, "heads": 2, "layers": 1, "ffn_dim": 12, "dropout": 0.0},
}
GRADCHECK_TAGS = 3  # tag classes `audiocap gradcheck` gives its model


def cli(args: list[str]) -> tuple[int, str]:
    """Run one `audiocap` command in this process; (exit code, stdout)."""
    from audiocap.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in args])
    return code, out.getvalue()


@dataclass
class Round:
    seconds: float   # time spent in the round's commands
    items: int
    attempted: int   # commands run
    failed: int      # commands that exited non-zero


class Workload:
    name = ""
    unit_call = ""   # traced call that defines the per-unit normalisation

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def make_corpus(self, d: Path, seed: int) -> Path:
        out = d / f"corpus{seed}"
        code, _ = cli(["synth-data", "--count", CLIPS, "--seed", seed, "--out", out])
        if code != 0:
            raise RuntimeError(f"synth-data exited with {code}")
        return out

    def write_config(self, d: Path, config: dict, seed: int) -> Path:
        path = d / "config.json"
        path.write_text(json.dumps(dict(config, seed=seed), indent=2))
        return path

    def setup(self, d: Path) -> None:
        raise NotImplementedError

    def finish_setup(self) -> None:
        pass

    def summary(self) -> dict:
        """A few outputs of the first round, for the run record."""
        return {}

    def _timed(self, args: list[str]) -> tuple[int, str, float]:
        start = time.perf_counter()
        code, out = cli(args)
        return code, out, time.perf_counter() - start


class Train(Workload):
    """`audiocap train` with the desk recipe for TRAIN_EPOCHS epochs."""

    name = "train"
    unit_call = "optim.adam"

    def setup(self, d: Path) -> None:
        self.corpus = self.make_corpus(d, self.seed)
        config = json.loads(json.dumps(DESK_CONFIG))
        config["train"]["epochs"] = TRAIN_EPOCHS
        self.config = self.write_config(d, config, self.seed)
        self.histories: list[list[float]] = []

    def run_round(self, k: int) -> Round:
        out = self.work / f"train{k}"
        code, _, seconds = self._timed([
            "train", "--config", self.config,
            "--manifest", self.corpus / "captions.jsonl", "--out", out])
        if code == 0:
            lines = (out / "metrics.jsonl").read_text().splitlines()
            self.histories.append([json.loads(ln)["loss"] for ln in lines])
        shutil.rmtree(out, ignore_errors=True)
        return Round(seconds, CLIPS * TRAIN_EPOCHS, 1, int(code != 0))

    def summary(self) -> dict:
        return {"epoch_losses": self.histories[:1]}

    def verify(self) -> list[str]:
        refs = checks.read_manifest(self.corpus / "captions.jsonl")
        vocab = checks.vocabulary_size(refs)
        errors = []
        for losses in self.histories:
            errors += checks.check_training(losses, TRAIN_EPOCHS, vocab)
        if any(h != self.histories[0] for h in self.histories):
            errors.append("training histories differ between identical rounds")
        return errors


class Caption(Workload):
    """`audiocap caption --beam 5` over the corpus, then `audiocap eval`."""

    name = "caption"
    unit_call = "decoding.beam"

    def setup(self, d: Path) -> None:
        self.corpus = self.make_corpus(d, DESK_SEED)
        config = json.loads(json.dumps(DESK_CONFIG))
        config["train"].update(CAPTION_CKPT_TRAIN)
        self.config = self.write_config(d, config, DESK_SEED)
        self.outputs: list[tuple[str, dict]] = []

    def finish_setup(self) -> None:
        """Train the checkpoint in a child process, so that this process's
        peak memory is the captioning's alone."""
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        out = self.work / "ckpt"
        proc = subprocess.run(
            [sys.executable, "-m", "audiocap.cli", "train", "--config", str(self.config),
             "--manifest", str(self.corpus / "captions.jsonl"), "--out", str(out)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"checkpoint training failed: {proc.stderr}")
        self.checkpoint = out / "model.bin"

    def run_round(self, k: int) -> Round:
        manifest = self.corpus / "captions.jsonl"
        caps = self.work / f"captions{k}.tsv"
        report = self.work / f"eval{k}"
        code, _, seconds = self._timed([
            "caption", "--checkpoint", self.checkpoint, "--input", manifest,
            "--beam", BEAM, "--out", caps])
        failed = int(code != 0)
        attempted = 1
        if code == 0:
            attempted += 1
            code, _, eval_seconds = self._timed([
                "eval", "--candidates", caps, "--references", manifest, "--out", report])
            seconds += eval_seconds
            failed += int(code != 0)
            if code == 0:
                self.outputs.append((caps.read_text(encoding="utf-8"),
                                     json.loads((report / "report.json").read_text())))
        return Round(seconds, CLIPS, attempted, failed)

    def reference_captions(self) -> dict[str, list[str]]:
        """Captions from the benchmark's own beam search over the model in
        the checkpoint, fed through `CaptionerModel.decode`."""
        import numpy as np
        from audiocap import autodiff
        from audiocap.audio import compute_log_mel, read_wav
        from audiocap.checkpoint import load_checkpoint, load_model_state
        from audiocap.config import run_config_from_dict
        from audiocap.model import CaptionerModel, DecoderConfig

        ckpt = load_checkpoint(self.checkpoint)
        cfg = run_config_from_dict(ckpt.config)
        dec = DecoderConfig(**dict(ckpt.config["decoder"], vocab_size=len(ckpt.vocab)))
        model = CaptionerModel(cfg.encoder, dec, num_tags=len(ckpt.tags or [0]))
        load_model_state(model, ckpt.tensors)
        fpp = cfg.frontend.frames_per_patch
        captions = {}
        for clip in checks.read_manifest(self.corpus / "captions.jsonl"):
            spec = compute_log_mel(read_wav(self.corpus / f"{clip}.wav"), cfg.frontend)
            n = spec.frames.shape[0] // fpp
            patches = spec.frames[: n * fpp].reshape(1, n, fpp * spec.mel_bins)
            with autodiff.no_grad():
                memory = model.encoder_memory(model.encode(model.embed_patches(patches)))

                def next_logits(prefix):
                    return model.decode(np.asarray([prefix]), memory).data[0, -1]

                ids = checks.reference_beam_search(next_logits, BEAM, cfg.decode.max_len)
            captions[clip] = [ckpt.vocab[i] for i in ids if i not in (checks.SOS, checks.EOS)]
        return captions

    def summary(self) -> dict:
        return {"captions": self.outputs[0][0].splitlines() if self.outputs else []}

    def verify(self) -> list[str]:
        refs = checks.read_manifest(self.corpus / "captions.jsonl")
        expected = self.reference_captions()
        errors = []
        for text, report in self.outputs:
            rows = checks.parse_captions(text)
            errors += checks.check_captions(rows, expected)
            errors += checks.check_report(report, rows, refs)
        return errors


class GradCheck(Workload):
    """`audiocap gradcheck --config` on a small model."""

    name = "gradcheck"
    unit_call = "model.encode"

    def setup(self, d: Path) -> None:
        self.corpus = self.make_corpus(d, DESK_SEED)
        refs = checks.read_manifest(self.corpus / "captions.jsonl")
        config = json.loads(json.dumps(GRADCHECK_CONFIG))
        config["decoder"]["vocab_size"] = checks.vocabulary_size(refs)
        self.config = self.write_config(d, config, GRADCHECK_SEED)
        self.tensors, self.scalars = checks.model_tensors(config, GRADCHECK_TAGS)
        self.outputs: list[tuple[int, str]] = []

    def run_round(self, k: int) -> Round:
        code, out, seconds = self._timed(
            ["gradcheck", "--config", self.config, "--seed", GRADCHECK_SEED])
        if code == 0:
            self.outputs.append((code, out))
        return Round(seconds, self.scalars, 1, int(code != 0))

    def summary(self) -> dict:
        return {"scalars": self.scalars,
                "gradcheck_output": self.outputs[0][1].splitlines() if self.outputs else []}

    def verify(self) -> list[str]:
        errors = []
        for code, out in self.outputs:
            errors += checks.check_gradcheck(code, out, self.tensors)
        return errors


WORKLOADS = {w.name: w for w in (Train, Caption, GradCheck)}
