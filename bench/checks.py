"""Correctness checks, each against a value the benchmark computes itself.

Every check returns a list of error strings (empty when the output is
right), so `selftest.py` can feed it deliberately wrong outputs.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

PAD, SOS, EOS, UNK = 0, 1, 2, 3  # reserved ids documented in the README
RESERVED_WORDS = 4
GRADCHECK_TOLERANCE = 1e-4        # documented tolerance of `audiocap gradcheck`
FIRST_EPOCH_MARGIN = 0.15         # nats between the first epoch's mean CE and ln V
MIN_CE_DROP = 0.25                # nats the last epoch must sit below the first


def words(caption: str) -> list[str]:
    """Lowercase words with punctuation removed (the corpus has none)."""
    return re.sub(r"[^\w\s]", "", caption.lower()).split()


def read_manifest(path: Path) -> dict[str, list[str]]:
    """clip id -> first reference caption, as words."""
    refs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            refs[rec["id"]] = words(rec["captions"][0])
    return refs


def vocabulary_size(captions: dict[str, list[str]]) -> int:
    return RESERVED_WORDS + len({w for ws in captions.values() for w in ws})


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def check_training(losses: list[float], epochs: int, vocab_size: int) -> list[str]:
    """Near-zero init gives near-zero logits, so epoch 1 sits near ln V;
    every epoch is finite; the last epoch is well below the first."""
    if len(losses) != epochs:
        return [f"{len(losses)} epochs logged, expected {epochs}"]
    errors = []
    if not all(math.isfinite(x) for x in losses):
        errors.append(f"non-finite epoch loss in {losses}")
        return errors
    ln_v = math.log(vocab_size)
    if abs(losses[0] - ln_v) > FIRST_EPOCH_MARGIN:
        errors.append(f"first epoch CE {losses[0]:.4f} is not within "
                      f"{FIRST_EPOCH_MARGIN} of ln V = {ln_v:.4f}")
    if losses[-1] > losses[0] - MIN_CE_DROP:
        errors.append(f"last epoch CE {losses[-1]:.4f} is not {MIN_CE_DROP} "
                      f"below the first {losses[0]:.4f}")
    return errors


# ---------------------------------------------------------------------------
# caption
# ---------------------------------------------------------------------------

def reference_beam_search(next_logits, beam: int, max_len: int,
                          banned=(PAD, UNK)) -> list[int]:
    """Beam search that rescores every full prefix: `next_logits(prefix)`
    gives the logits after `prefix` (which starts with <sos>). Candidates
    rank by higher cumulative log-prob, ties toward the smaller token list;
    hypotheses ending in <eos> retire to a pool; the best of the pool and
    the hypotheses still live at max_len wins. Returns <sos> ... <eos>."""
    live = [((), 0.0)]
    done = []
    for _ in range(max_len):
        candidates = []
        for tokens, score in live:
            row = np.asarray(next_logits([SOS, *tokens]), dtype=np.float64)
            shifted = row - row.max()
            log_probs = shifted - math.log(np.exp(shifted).sum())
            for tok, lp in enumerate(log_probs.tolist()):
                if tok not in banned:
                    candidates.append((tokens + (tok,), score + lp))
        candidates.sort(key=lambda c: (-c[1], c[0]))
        live = []
        for cand in candidates[:beam]:
            (done if cand[0][-1] == EOS else live).append(cand)
        if not live:
            break
    best = min(done + live, key=lambda c: (-c[1], c[0]))[0]
    return [SOS, *best] + ([] if best[-1:] == (EOS,) else [EOS])


def bleu_1(candidates: dict[str, list[str]], refs: dict[str, list[str]]) -> float:
    """Corpus BLEU_1 with one reference per clip: clipped unigram precision
    times the brevity penalty min(1, exp(1 - r/c))."""
    matched = cand_len = ref_len = 0
    for clip, cand in candidates.items():
        ref_counts = Counter(refs[clip])
        matched += sum(min(n, ref_counts[w]) for w, n in Counter(cand).items())
        cand_len += len(cand)
        ref_len += len(refs[clip])
    if cand_len == 0 or matched == 0:
        return 0.0
    return min(1.0, math.exp(1.0 - ref_len / cand_len)) * matched / cand_len


def parse_captions(text: str) -> list[tuple[str, list[str]]]:
    rows = []
    for line in text.splitlines():
        clip, _, caption = line.partition("\t")
        rows.append((clip, caption.split()))
    return rows


def check_captions(rows: list[tuple[str, list[str]]],
                   expected: dict[str, list[str]]) -> list[str]:
    """One caption per clip, each equal word for word to the reference."""
    errors = []
    ids = [clip for clip, _ in rows]
    if sorted(ids) != sorted(expected) or len(set(ids)) != len(ids):
        errors.append(f"captioned clips {ids} do not match {sorted(expected)}")
    for clip, caption in rows:
        if clip in expected and caption != expected[clip]:
            errors.append(f"{clip}: caption {' '.join(caption)!r} differs from "
                          f"the reference {' '.join(expected[clip])!r}")
    return errors


def check_report(report: dict, rows: list[tuple[str, list[str]]],
                 refs: dict[str, list[str]]) -> list[str]:
    """The report covers every clip and its bleu_1 is the benchmark's."""
    errors = []
    covered = sorted(report["per_clip"]["bleu_1"])
    if covered != sorted(refs) or report["metadata"]["corpus_size"] != len(refs):
        errors.append(f"report covers {covered}, expected {sorted(refs)}")
    expected = bleu_1(dict(rows), refs)
    got = report["corpus"]["bleu_1"]
    if not math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12):
        errors.append(f"report bleu_1 {got!r} != benchmark BLEU_1 {expected!r}")
    return errors


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def model_tensors(cfg: dict, num_tags: int) -> tuple[int, int]:
    """(parameter tensors, parameter scalars) of the captioner built from a
    config, counted from the architecture described in the README: patch
    projection, class token, positions, pre-norm encoder layers, optional
    bridge, word embeddings, decoder layers, output projection, tag head."""
    enc, dec = cfg["encoder"], cfg["decoder"]
    d, f, v = enc["d"], enc["ffn_dim"], dec["vocab_size"]
    e, df = dec["d"], dec["ffn_dim"]
    patches = max(enc["max_patches"], 3)
    shapes = [(enc["patch_dim"], d), (1, d), (patches + 1, d)]
    ln = lambda n: [(n,), (n,)]
    attn = lambda n: [(n, n)] * 4
    ffn = lambda n, h: [(n, h), (h,), (h, n), (n,)]
    for _ in range(enc["layers"]):
        shapes += ln(d) + attn(d) + ln(d) + ffn(d, f)
    shapes += ln(d)
    if d != e:
        shapes += [(d, e), (e,)]
    shapes += [(v, e)]
    for _ in range(dec["layers"]):
        shapes += ln(e) + attn(e) + ln(e) + attn(e) + ln(e) + ffn(e, df)
    shapes += ln(e) + [(e, v), (v,), (d, num_tags), (num_tags,)]
    return len(shapes), sum(math.prod(s) for s in shapes)


def check_gradcheck(exit_code: int, stdout: str, tensors: int) -> list[str]:
    errors = []
    if exit_code != 0:
        errors.append(f"gradcheck exited with {exit_code}")
    checked = re.search(r"checked (\d+) parameter tensors", stdout)
    if not checked or int(checked.group(1)) != tensors:
        errors.append(f"expected {tensors} tensors checked, output: {stdout!r}")
    worst = re.search(r"max relative error: (\S+)", stdout)
    if not worst or not float(worst.group(1)) < GRADCHECK_TOLERANCE:
        errors.append(f"max relative error not under {GRADCHECK_TOLERANCE}: {stdout!r}")
    return errors
