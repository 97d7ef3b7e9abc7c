#!/usr/bin/env python3
"""Fingerprint of every output a short end-to-end run writes.

Runs in this process, in a temporary directory: synthesizes the seed-7
8-clip corpus, pretrains tagging for 3 epochs, trains the captioner for 12
epochs from the tagging encoder (dropout 0.1, label smoothing 0.1, a
checkpoint every 6 epochs), captions at beam 1, 3 and 5, scores each set of
captions, and runs `gradcheck` on its built-in model and, with `--config`,
on a small model whose encoder and decoder widths differ (so a bridge maps
one to the other) and whose config leaves the vocabulary unset; of each
gradcheck it hashes the stdout and the per-tensor error table (the `repr`
of every tensor's error, in `named_parameters` order). At each
beam it also captions every clip as its own `--input clip.wav` and exits
non-zero if a line differs from the manifest run's, whose clips are
searched in lockstep. Prints one `sha256  name` line per output, the
corpus's WAV files and manifests included, so that two checkouts produce
the same bytes exactly when `diff` of their fingerprints is empty:

    PYTHONPATH=src python3 scripts/fingerprint.py > after.txt
    PYTHONPATH=<other checkout>/src python3 scripts/fingerprint.py > before.txt
    diff before.txt after.txt

Logged losses are hashed without `wall_time`. Takes about 20 s on 2 cores.
"""

import os

# one BLAS thread, set before numpy loads: sums then run in a fixed order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from audiocap import gradcheck as gradcheck_module  # noqa: E402
from audiocap.cli import main as cli  # noqa: E402

SEED = 7
CONFIG = {
    "seed": SEED,
    "encoder": {"dropout": 0.1},
    "decoder": {"dropout": 0.1, "vocab_size": 0},
    "train": {"epochs": 12, "batch_size": 2, "base_lr": 3e-4, "warmup_epochs": 1,
              "decay_every": 1000, "label_smoothing": 0.1, "checkpoint_every": 6},
    "pretrain": {"epochs": 3, "batch_size": 2, "checkpoint_every": 0},
    "word2vec": {"epochs": 10},
}
BEAMS = (1, 3, 5)
GRADCHECK_CONFIG = {
    "frontend": {"mel_bins": 8, "frames_per_patch": 2},
    "encoder": {"d": 12, "heads": 2, "layers": 1, "ffn_dim": 24, "dropout": 0.1,
                "patch_dim": 16, "max_patches": 2},
    "decoder": {"d": 8, "heads": 2, "layers": 1, "ffn_dim": 16, "dropout": 0.1},
}


def run(*args) -> str:
    """One `audiocap` command; its stdout. A non-zero exit stops the script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli([str(a) for a in args])
    if code != 0:
        sys.exit(f"audiocap {' '.join(map(str, args))} exited with {code}")
    return out.getvalue()


def run_gradcheck(*args) -> tuple[str, str]:
    """One `audiocap gradcheck`: its stdout and its per-tensor error table,
    one `name repr(error)` line per tensor."""
    reports = []
    check = gradcheck_module.model_gradient_check

    def recording_check(*check_args):
        reports.append(check(*check_args))
        return reports[-1]

    gradcheck_module.model_gradient_check = recording_check
    try:
        out = run("gradcheck", *args)
    finally:
        gradcheck_module.model_gradient_check = check
    report, = reports
    return out, "".join(f"{name} {err!r}\n" for name, err in report.per_param.items())


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def losses(metrics: Path) -> bytes:
    rows = [json.loads(line) for line in metrics.read_text(encoding="utf-8").splitlines()]
    return json.dumps([{k: v for k, v in row.items() if k != "wall_time"} for row in rows],
                      sort_keys=True).encode("utf-8")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        config = work / "config.json"
        config.write_text(json.dumps(CONFIG), encoding="utf-8")
        corpus = work / "corpus"
        run("synth-data", "--count", 8, "--seed", SEED, "--out", corpus)
        run("train", "--config", config, "--pretrain-tagging",
            "--manifest", corpus / "tags.jsonl", "--out", work / "tagging")
        run("train", "--config", config, "--manifest", corpus / "captions.jsonl",
            "--out", work / "caption", "--init", work / "tagging" / "model.bin")
        for beam in BEAMS:
            tsv = work / f"captions_beam{beam}.tsv"
            run("caption", "--checkpoint", work / "caption" / "model.bin",
                "--input", corpus / "captions.jsonl", "--beam", beam, "--out", tsv)
            for line in tsv.read_text(encoding="utf-8").splitlines():
                clip = line.split("\t", 1)[0]
                alone = run("caption", "--checkpoint", work / "caption" / "model.bin",
                            "--input", corpus / f"{clip}.wav", "--beam", beam)
                if alone != line + "\n":
                    sys.exit(f"beam {beam}: {clip} alone gives {alone.strip()!r}, "
                             f"in the manifest {line!r}")
            run("eval", "--candidates", tsv, "--references", corpus / "captions.jsonl",
                "--out", work / f"eval_beam{beam}")
        gradcheck, errors = run_gradcheck("--seed", 0)
        gradcheck_config = work / "gradcheck.json"
        gradcheck_config.write_text(json.dumps(GRADCHECK_CONFIG), encoding="utf-8")
        bridged, bridged_errors = run_gradcheck("--config", gradcheck_config, "--seed", 0)

        outputs = {}
        for pattern in ("corpus/*.wav", "corpus/captions.jsonl", "corpus/tags.jsonl",
                        "*/model.bin", "*/ckpt_epoch_*.bin", "*/vocab.txt",
                        "captions_beam*.tsv", "eval_beam*/report.*"):
            for path in sorted(work.glob(pattern)):
                outputs[path.relative_to(work).as_posix()] = path.read_bytes()
        for run_dir in ("tagging", "caption"):
            outputs[f"{run_dir}/metrics.jsonl without wall_time"] = losses(
                work / run_dir / "metrics.jsonl")
        outputs["gradcheck stdout"] = gradcheck.encode("utf-8")
        outputs["gradcheck --config stdout"] = bridged.encode("utf-8")
        outputs["gradcheck per-tensor errors"] = errors.encode("utf-8")
        outputs["gradcheck --config per-tensor errors"] = bridged_errors.encode("utf-8")
    for name, data in outputs.items():
        print(f"{sha(data)}  {name}")


if __name__ == "__main__":
    main()
