#!/usr/bin/env python3
"""Shows that every correctness check of the benchmark passes on a right
output and fails on a deliberately wrong one.

Usage (from the repository root): python3 bench/selftest.py
Prints one line per case and exits non-zero if any case goes the wrong way.
"""

import itertools
import math
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from workloads import GRADCHECK_CONFIG, GRADCHECK_TAGS  # noqa: E402

FAILURES = []


def case(label: str, errors: list[str], should_fail: bool) -> None:
    ok = bool(errors) == should_fail
    verdict = "rejects" if errors else "accepts"
    print(f"{'ok  ' if ok else 'FAIL'} {verdict:7s} {label}")
    if not ok:
        FAILURES.append(label)


def train_cases() -> None:
    v = 28
    good = [math.log(v) - 0.02, 3.0, 2.9, 2.8, 2.75, 2.7, 2.68, 2.64]
    case("train: desk-like history", checks.check_training(good, 8, v), False)
    case("train: first epoch 1 nat above ln V",
         checks.check_training([good[0] + 1.0] + good[1:], 8, v), True)
    case("train: NaN epoch", checks.check_training(good[:3] + [math.nan] + good[4:], 8, v), True)
    case("train: loss does not fall", checks.check_training([good[0]] * 8, 8, v), True)
    case("train: an epoch missing", checks.check_training(good[:-1], 8, v), True)


def caption_cases() -> None:
    expected = {"clip0000": "a deep tone hums".split(),
                "clip0001": "a slow chirp sweeps upward".split(),
                "clip0002": "soft static noise hisses followed by a tone sounds".split()}
    rows = list(expected.items())
    case("caption: reference captions", checks.check_captions(rows, expected), False)
    swapped = [(rows[0][0], rows[1][1]), (rows[1][0], rows[0][1]), rows[2]]
    case("caption: two captions swapped", checks.check_captions(swapped, expected), True)
    changed = rows[:2] + [(rows[2][0], rows[2][1][:-1] + ["rings"])]
    case("caption: one token changed", checks.check_captions(changed, expected), True)
    case("caption: a clip missing", checks.check_captions(rows[:2], expected), True)
    case("caption: a clip twice", checks.check_captions(rows + rows[:1], expected), True)

    refs = {"clip0000": "a deep tone hums".split(),
            "clip0001": "a quick chirp whistles higher".split(),
            "clip0002": "a tone sounds".split()}
    # unigrams matched 4 + 2 + 3 of 4 + 5 + 9 candidate words; r = 12 < c = 18
    bleu = 9 / 18
    case("bleu_1: hand-computed value",
         [] if math.isclose(checks.bleu_1(dict(rows), refs), bleu) else ["mismatch"], False)
    short = {"clip0000": ["a", "deep"]}  # c = 2, r = 4: brevity penalty e^-1
    case("bleu_1: hand-computed brevity penalty",
         [] if math.isclose(checks.bleu_1(short, refs), math.exp(-1.0)) else ["mismatch"],
         False)
    report = {"corpus": {"bleu_1": bleu}, "metadata": {"corpus_size": 3},
              "per_clip": {"bleu_1": dict.fromkeys(refs, 0.0)}}
    case("eval: report agrees", checks.check_report(report, rows, refs), False)
    off = dict(report, corpus={"bleu_1": bleu + 1e-6})
    case("eval: bleu_1 off by 1e-6", checks.check_report(off, rows, refs), True)
    partial = dict(report, per_clip={"bleu_1": {"clip0000": 0.0}})
    case("eval: report covers one clip", checks.check_report(partial, rows, refs), True)


def beam_cases() -> None:
    """A fixed random table of next-token logits; a beam as wide as every
    sequence must find the exhaustive optimum, and beam 1 is greedy."""
    rng = np.random.default_rng(0)
    vocab, max_len = 6, 3
    table = {}

    def next_logits(prefix):
        key = tuple(prefix)
        if key not in table:
            table[key] = rng.normal(0.0, 2.0, vocab)
        return table[key]

    def log_probs(prefix):
        row = next_logits(prefix)
        return row - np.log(np.exp(row - row.max()).sum()) - row.max()

    allowed = [t for t in range(vocab) if t not in (checks.PAD, checks.UNK)]
    best, best_score = None, -math.inf
    for n in range(1, max_len + 1):
        for seq in itertools.product(allowed, repeat=n):
            if checks.EOS in seq[:-1] or (n < max_len and seq[-1] != checks.EOS):
                continue
            prefix, score = [checks.SOS], 0.0
            for tok in seq:
                score += log_probs(prefix)[tok]
                prefix.append(tok)
            if score > best_score + 1e-12:
                best, best_score = list(seq), score
    wide = checks.reference_beam_search(next_logits, 10 ** 4, max_len)
    want = [checks.SOS] + best + ([] if best[-1] == checks.EOS else [checks.EOS])
    case("beam: wide beam equals exhaustive search",
         [] if wide == want else [f"{wide} != {want}"], False)
    prefix = [checks.SOS]
    for _ in range(max_len):
        lp = log_probs(prefix)
        lp[[checks.PAD, checks.UNK]] = -np.inf
        prefix.append(int(np.argmax(lp)))
        if prefix[-1] == checks.EOS:
            break
    if prefix[-1] != checks.EOS:
        prefix.append(checks.EOS)
    greedy = checks.reference_beam_search(next_logits, 1, max_len)
    case("beam: beam 1 equals greedy", [] if greedy == prefix else [f"{greedy} != {prefix}"],
         False)
    case("beam: a changed token is caught",
         checks.check_captions([("c", [str(t) for t in wide[1:-1]] + ["9"])],
                               {"c": [str(t) for t in wide[1:-1]]}), True)


def gradcheck_cases() -> None:
    from audiocap.model import CaptionerModel, DecoderConfig, EncoderConfig

    config = dict(GRADCHECK_CONFIG, decoder=dict(GRADCHECK_CONFIG["decoder"], vocab_size=28))
    tensors, scalars = checks.model_tensors(config, GRADCHECK_TAGS)
    model = CaptionerModel(EncoderConfig(**config["encoder"]),
                           DecoderConfig(**config["decoder"]), num_tags=GRADCHECK_TAGS)
    built = (len(model.parameters()), model.param_count())
    case(f"gradcheck: counted {tensors} tensors / {scalars} scalars match the model",
         [] if built == (tensors, scalars) else [f"model has {built}"], False)
    bridged = dict(config, encoder=dict(config["encoder"], d=4, heads=2))
    counted = checks.model_tensors(bridged, GRADCHECK_TAGS)
    model = CaptionerModel(EncoderConfig(**bridged["encoder"]),
                           DecoderConfig(**bridged["decoder"]), num_tags=GRADCHECK_TAGS)
    built = (len(model.parameters()), model.param_count())
    case("gradcheck: counts with an encoder-decoder bridge match the model",
         [] if built == counted else [f"model has {built}, counted {counted}"], False)

    out = (f"checked {tensors} parameter tensors\n"
           "max relative error: 3.1e-07 (worst: dec.out_proj.w)\ntolerance: 1.0e-04 -> PASS\n")
    case("gradcheck: passing output", checks.check_gradcheck(0, out, tensors), False)
    case("gradcheck: one tensor short",
         checks.check_gradcheck(0, out.replace(f"checked {tensors}", f"checked {tensors - 1}"),
                                tensors), True)
    case("gradcheck: error above tolerance",
         checks.check_gradcheck(0, out.replace("3.1e-07", "2.0e-04"), tensors), True)
    case("gradcheck: non-zero exit", checks.check_gradcheck(1, out, tensors), True)


def main() -> int:
    train_cases()
    caption_cases()
    beam_cases()
    gradcheck_cases()
    print(f"{len(FAILURES)} case(s) went the wrong way")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
