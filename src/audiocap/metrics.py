"""Caption evaluation metrics (BLEU_n, ROUGE_L, CIDEr, SPIDEr) and tagging mAP.

Conventions follow the standard captioning toolkit: corpus-level BLEU with
clipped counts and a closest-reference brevity penalty, ROUGE_L as an
F-measure with beta = 1.2 maximized over references, and CIDEr in its "D"
variant (clipped TF-IDF numerator and a Gaussian length penalty, scores
scaled by 10). SPICE and METEOR need external linguistic resources, so the
report carries them as unavailable unless a SPICE score is supplied.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

REPORT_FORMAT_VERSION = 1
UNAVAILABLE = "unavailable"
BLEU_ORDERS = 4   # the report carries BLEU_1 .. BLEU_4
CIDER_ORDERS = 4  # CIDEr averages n-gram orders 1 .. 4
CIDER_SIGMA = 6.0  # std of CIDEr's Gaussian length penalty


@dataclass
class EvalPair:
    candidate: list[str]
    references: list[list[str]]

    def __post_init__(self):
        if not self.references:
            raise ValueError("every clip needs at least one reference")


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def bleu(pairs: Sequence[EvalPair], n: int, smoothing: bool = False) -> float:
    """Corpus-level BLEU_n: geometric mean of orders 1..n with uniform
    weights; clipped n-gram counts pooled over the corpus; brevity penalty
    min(1, e^(1 - r/c)) with r summed over closest reference lengths
    (ties toward the shorter reference). `smoothing` applies add-one
    smoothing to orders above 1."""
    if not pairs:
        raise ValueError("empty candidate set")
    if n < 1:
        raise ValueError("n must be >= 1")
    matched = [0] * n
    attempted = [0] * n
    cand_total = 0
    ref_total = 0
    for pair in pairs:
        c = pair.candidate
        cand_total += len(c)
        ref_total += min((abs(len(r) - len(c)), len(r)) for r in pair.references)[1]
        for k in range(1, n + 1):
            counts = _ngram_counts(c, k)
            max_ref = Counter()
            for r in pair.references:
                for gram, cnt in _ngram_counts(r, k).items():
                    max_ref[gram] = max(max_ref[gram], cnt)
            matched[k - 1] += sum(min(cnt, max_ref[gram]) for gram, cnt in counts.items())
            attempted[k - 1] += max(0, len(c) - k + 1)
    if cand_total == 0:
        return 0.0
    log_sum = 0.0
    for k in range(n):
        num, den = matched[k], attempted[k]
        if smoothing and k > 0:
            num, den = num + 1, den + 1
        if num == 0 or den == 0:
            return 0.0
        log_sum += math.log(num / den)
    bp = min(1.0, math.exp(1.0 - ref_total / cand_total))
    return bp * math.exp(log_sum / n)


# ---------------------------------------------------------------------------
# ROUGE_L
# ---------------------------------------------------------------------------

def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(cur[j - 1], prev[j]))
        prev = cur
    return prev[-1]


ROUGE_BETA = 1.2


def rouge_l_clip(pair: EvalPair) -> float:
    """Per-clip ROUGE_L: max over references of the LCS F-measure."""
    if not pair.candidate:
        return 0.0
    best = 0.0
    for ref in pair.references:
        lcs = _lcs_length(pair.candidate, ref)
        if lcs == 0:
            continue
        p = lcs / len(pair.candidate)
        r = lcs / len(ref)
        f = (1 + ROUGE_BETA ** 2) * p * r / (r + ROUGE_BETA ** 2 * p)
        best = max(best, f)
    return best


def rouge_l(pairs: Sequence[EvalPair]) -> float:
    if not pairs:
        raise ValueError("empty candidate set")
    return float(np.mean([rouge_l_clip(p) for p in pairs]))


# ---------------------------------------------------------------------------
# CIDEr (D variant)
# ---------------------------------------------------------------------------

@dataclass
class CiderResult:
    corpus: float
    per_clip: list[float]
    degenerate_idf: bool  # single-clip corpus: every IDF is zero


def cider(pairs: Sequence[EvalPair]) -> CiderResult:
    """TF-IDF weighted n-gram similarity, averaged over references and
    orders 1..CIDER_ORDERS, with clipped candidate TF, a Gaussian penalty
    (std CIDER_SIGMA) on the length difference, and a factor of 10."""
    if not pairs:
        raise ValueError("empty candidate set")
    doc_freq: dict[tuple, int] = defaultdict(int)
    for pair in pairs:
        seen = set()
        for ref in pair.references:
            for k in range(1, CIDER_ORDERS + 1):
                seen.update(_ngram_counts(ref, k).keys())
        for gram in seen:
            doc_freq[gram] += 1
    log_num_clips = math.log(max(1.0, len(pairs)))

    def tfidf_vec(tokens: Sequence[str]):
        vecs = [defaultdict(float) for _ in range(CIDER_ORDERS)]
        norms = [0.0] * CIDER_ORDERS
        for k in range(1, CIDER_ORDERS + 1):
            for gram, cnt in _ngram_counts(tokens, k).items():
                idf = log_num_clips - math.log(max(1.0, doc_freq[gram]))
                vecs[k - 1][gram] = cnt * idf
                norms[k - 1] += (cnt * idf) ** 2
        return vecs, [math.sqrt(x) for x in norms], len(tokens)

    per_clip = []
    for pair in pairs:
        cand_vec, cand_norm, cand_len = tfidf_vec(pair.candidate)
        total = np.zeros(CIDER_ORDERS)
        for ref in pair.references:
            ref_vec, ref_norm, ref_len = tfidf_vec(ref)
            penalty = math.exp(-((cand_len - ref_len) ** 2) / (2 * CIDER_SIGMA ** 2))
            for k in range(CIDER_ORDERS):
                sim = sum(min(v, ref_vec[k][gram]) * ref_vec[k][gram]
                          for gram, v in cand_vec[k].items())
                if cand_norm[k] > 0 and ref_norm[k] > 0:
                    sim /= cand_norm[k] * ref_norm[k]
                total[k] += sim * penalty
        per_clip.append(10.0 * float(total.mean()) / len(pair.references))
    return CiderResult(corpus=float(np.mean(per_clip)), per_clip=per_clip,
                       degenerate_idf=len(pairs) == 1)


def spider(cider_score: float, spice_score: float | None) -> float | None:
    """Mean of CIDEr and an externally supplied SPICE score; None (never a
    silent zero) when SPICE is unavailable."""
    if spice_score is None:
        return None
    return (cider_score + spice_score) / 2.0


# ---------------------------------------------------------------------------
# tagging mAP
# ---------------------------------------------------------------------------

def mean_average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Unweighted mean over classes (those with >= 1 positive) of average
    precision of the clip ranking induced by the scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ValueError("scores and labels must both be (N, K)")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be binary")
    aps = []
    for k in range(scores.shape[1]):
        pos = labels[:, k] == 1
        if not pos.any():
            continue
        order = np.argsort(-scores[:, k], kind="stable")
        ranked = pos[order]
        hits = np.cumsum(ranked)
        precisions = hits[ranked] / (np.flatnonzero(ranked) + 1)
        aps.append(precisions.mean())
    if not aps:
        raise ValueError("no class has a positive example")
    return float(np.mean(aps))


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

@dataclass
class MetricReport:
    corpus_scores: dict[str, float]
    per_clip_scores: dict[str, dict[str, float]]
    metadata: dict[str, object]
    unavailable: list[str] = field(default_factory=list)

    def to_key_value_text(self) -> str:
        lines = [f"format_version={REPORT_FORMAT_VERSION}"]
        for key in sorted(self.corpus_scores):
            lines.append(f"{key}={self.corpus_scores[key]:.6f}")
        for key in self.unavailable:
            lines.append(f"{key}={UNAVAILABLE}")
        for key, value in sorted(self.metadata.items()):
            if isinstance(value, list):
                value = ",".join(value)
            lines.append(f"meta.{key}={value}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "format_version": REPORT_FORMAT_VERSION,
            "corpus": self.corpus_scores,
            "per_clip": self.per_clip_scores,
            "unavailable": self.unavailable,
            "metadata": self.metadata,
        }, indent=2, sort_keys=True) + "\n"


def evaluate_captions(candidates: dict[str, list[str]],
                      references: dict[str, list[list[str]]],
                      spice_score: float | None = None,
                      bleu_smoothing: bool = False) -> MetricReport:
    """Score candidates against references keyed by clip id. Reference
    clips without a candidate are not scored; they are listed, sorted, in
    metadata["uncovered_references"]. A SPICE score must lie in [0, 1]."""
    if spice_score is not None and not 0.0 <= spice_score <= 1.0:  # NaN fails too
        raise ValueError(f"spice_score must be in [0, 1], got {spice_score}")
    missing = sorted(set(candidates) - set(references))
    if missing:
        raise ValueError(f"candidate clip ids missing from references: {missing}")
    if not candidates:
        raise ValueError("no candidates to evaluate")
    ids = sorted(candidates)
    pairs = [EvalPair(candidate=candidates[i], references=references[i]) for i in ids]

    corpus: dict[str, float] = {}
    for k in range(1, BLEU_ORDERS + 1):
        corpus[f"bleu_{k}"] = bleu(pairs, k, smoothing=bleu_smoothing)
    corpus["rouge_l"] = rouge_l(pairs)
    cider_res = cider(pairs)
    corpus["cider"] = cider_res.corpus

    unavailable = ["meteor"]
    spider_score = spider(cider_res.corpus, spice_score)
    if spider_score is None:
        unavailable.append("spice")
        unavailable.append("spider")
    else:
        corpus["spice"] = spice_score
        corpus["spider"] = spider_score

    per_clip = {
        "rouge_l": {i: rouge_l_clip(p) for i, p in zip(ids, pairs)},
        "cider": {i: c for i, c in zip(ids, cider_res.per_clip)},
        "bleu_1": {i: bleu([p], 1) for i, p in zip(ids, pairs)},
    }
    metadata = {
        "corpus_size": len(ids),
        "bleu_orders": BLEU_ORDERS,
        "cider_sigma": CIDER_SIGMA,
        "cider_degenerate_idf": cider_res.degenerate_idf,
    }
    uncovered = sorted(set(references) - set(candidates))
    if uncovered:  # absent at full coverage, so such reports keep their bytes
        metadata["uncovered_references"] = uncovered
    return MetricReport(corpus_scores=corpus, per_clip_scores=per_clip,
                        metadata=metadata, unavailable=unavailable)
