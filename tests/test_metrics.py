"""Metric tests, each cross-checked against an independently written
brute-force evaluator kept deliberately naive (nested loops, no sharing
with the implementation under test)."""

import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from audiocap.metrics import (EvalPair, MetricReport, bleu, cider,
                              evaluate_captions, mean_average_precision,
                              rouge_l, rouge_l_clip, spider)


# ---------------------------------------------------------------------------
# naive reference evaluators
# ---------------------------------------------------------------------------

def naive_ngrams(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def naive_bleu(pairs, n):
    total_clipped = [0] * n
    total_guess = [0] * n
    c_len, r_len = 0, 0
    for cand, refs in pairs:
        c_len += len(cand)
        best = None
        for r in refs:
            key = (abs(len(r) - len(cand)), len(r))
            if best is None or key < best:
                best = key
        r_len += best[1]
        for k in range(1, n + 1):
            grams = naive_ngrams(cand, k)
            total_guess[k - 1] += len(grams)
            for gram in set(grams):
                have = grams.count(gram)
                allowed = max((naive_ngrams(r, k).count(gram) for r in refs),
                              default=0)
                total_clipped[k - 1] += min(have, allowed)
    if c_len == 0:
        return 0.0
    product = 1.0
    for k in range(n):
        if total_clipped[k] == 0 or total_guess[k] == 0:
            return 0.0
        product *= (total_clipped[k] / total_guess[k]) ** (1.0 / n)
    bp = min(1.0, math.exp(1 - r_len / c_len))
    return bp * product


def naive_lcs(a, b):
    best = 0
    # enumerate all subsequences of the shorter side (corpora stay tiny)
    short, other = (a, b) if len(a) <= len(b) else (b, a)
    for mask in range(1 << len(short)):
        sub = [short[i] for i in range(len(short)) if mask >> i & 1]
        # subsequence containment check
        j = 0
        ok = True
        for tok in sub:
            while j < len(other) and other[j] != tok:
                j += 1
            if j == len(other):
                ok = False
                break
            j += 1
        if ok:
            best = max(best, len(sub))
    return best


def naive_rouge(pairs, beta=1.2):
    scores = []
    for cand, refs in pairs:
        if not cand:
            scores.append(0.0)
            continue
        best = 0.0
        for r in refs:
            lcs = naive_lcs(cand, r)
            if lcs == 0:
                continue
            p, rec = lcs / len(cand), lcs / len(r)
            best = max(best, (1 + beta * beta) * p * rec / (rec + beta * beta * p))
        scores.append(best)
    return sum(scores) / len(scores)


def naive_cider(pairs, max_n=4, sigma=6.0):
    df = Counter()
    for _, refs in pairs:
        seen = set()
        for r in refs:
            for k in range(1, max_n + 1):
                seen.update(naive_ngrams(r, k))
        df.update(seen)
    log_n = math.log(max(1.0, len(pairs)))

    def weights(tokens):
        out = []
        for k in range(1, max_n + 1):
            grams = naive_ngrams(tokens, k)
            vec = {}
            for g in set(grams):
                vec[g] = grams.count(g) * (log_n - math.log(max(1.0, df[g])))
            out.append(vec)
        return out

    per_clip = []
    for cand, refs in pairs:
        cand_w = weights(cand)
        order_total = [0.0] * max_n
        for r in refs:
            ref_w = weights(r)
            gauss = math.exp(-((len(cand) - len(r)) ** 2) / (2 * sigma * sigma))
            for k in range(max_n):
                num = sum(min(v, ref_w[k].get(g, 0.0)) * ref_w[k].get(g, 0.0)
                          for g, v in cand_w[k].items())
                nc = math.sqrt(sum(v * v for v in cand_w[k].values()))
                nr = math.sqrt(sum(v * v for v in ref_w[k].values()))
                if nc > 0 and nr > 0:
                    order_total[k] += gauss * num / (nc * nr)
        per_clip.append(10.0 * sum(order_total) / max_n / len(refs))
    return sum(per_clip) / len(per_clip), per_clip


def naive_average_precision(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, total, ap = 0, sum(labels), 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i]:
            hits += 1
            ap += hits / rank
    return ap / total


def random_micro_corpus(seed, n_clips=5):
    rng = random.Random(seed)
    words = ["a", "dog", "cat", "runs", "barks", "loud", "quiet", "bird"]
    mk = lambda: [rng.choice(words) for _ in range(rng.randint(1, 7))]
    return [EvalPair(candidate=mk(),
                     references=[mk() for _ in range(rng.randint(1, 3))])
            for _ in range(n_clips)]


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def test_bleu_identity_is_one():
    pairs = [EvalPair(candidate=["a", "dog", "barks"],
                      references=[["a", "dog", "barks"]]),
             EvalPair(candidate=["a", "cat"], references=[["a", "cat"]])]
    for n in range(1, 5):
        if n <= 2:
            assert bleu(pairs, n) == pytest.approx(1.0)
    assert bleu(pairs, 1) == pytest.approx(1.0)


def test_bleu_zero_overlap():
    pairs = [EvalPair(candidate=["x", "y"], references=[["a", "b"]])]
    assert bleu(pairs, 1) == 0.0


def test_bleu_brevity_penalty_oracle():
    # candidate [a,cat,sits] vs reference [a,cat,sits,down]:
    # p1 = 1, BP = e^(1 - 4/3) = 0.7165313106 (high-precision eval)
    pairs = [EvalPair(candidate=["a", "cat", "sits"],
                      references=[["a", "cat", "sits", "down"]])]
    assert bleu(pairs, 1) == pytest.approx(0.7165313106, abs=1e-9)


def test_bleu_empty_corpus_rejected():
    with pytest.raises(ValueError):
        bleu([], 1)


def test_bleu_matches_naive_on_random_corpora():
    for seed in range(8):
        pairs = random_micro_corpus(seed)
        naive_pairs = [(p.candidate, p.references) for p in pairs]
        for n in (1, 2, 3, 4):
            assert bleu(pairs, n) == pytest.approx(naive_bleu(naive_pairs, n),
                                                   abs=1e-12)


def test_bleu_smoothing_rescues_higher_orders():
    pairs = [EvalPair(candidate=["a", "dog"], references=[["a", "cat"]])]
    assert bleu(pairs, 2) == 0.0
    assert bleu(pairs, 2, smoothing=True) > 0.0


# ---------------------------------------------------------------------------
# ROUGE_L
# ---------------------------------------------------------------------------

def test_rouge_identity_and_disjoint():
    same = [EvalPair(candidate=["a", "b", "c"], references=[["a", "b", "c"]])]
    assert rouge_l(same) == pytest.approx(1.0)
    other = [EvalPair(candidate=["x", "y"], references=[["a", "b"]])]
    assert rouge_l(other) == 0.0


def test_rouge_formula_oracle():
    # LCS=3, P=3/4, R=1, beta=1.2:
    # (1+1.44)*0.75*1 / (1 + 1.44*0.75) = 0.8798076923 (high-precision eval)
    pairs = [EvalPair(candidate=["a", "b", "c", "d"], references=[["a", "c", "d"]])]
    assert rouge_l(pairs) == pytest.approx(0.8798076923, abs=1e-9)


def test_rouge_empty_candidate_scores_zero_not_error():
    pairs = [EvalPair(candidate=[], references=[["a"]])]
    assert rouge_l(pairs) == 0.0


def test_rouge_max_over_references():
    pair = EvalPair(candidate=["a", "b"], references=[["x"], ["a", "b"]])
    assert rouge_l_clip(pair) == pytest.approx(1.0)


def test_rouge_matches_naive_on_random_corpora():
    for seed in range(8):
        pairs = random_micro_corpus(seed)
        naive_pairs = [(p.candidate, p.references) for p in pairs]
        assert rouge_l(pairs) == pytest.approx(naive_rouge(naive_pairs), abs=1e-12)


# ---------------------------------------------------------------------------
# CIDEr
# ---------------------------------------------------------------------------

def three_clip_distinct():
    # every caption has >= 4 tokens so all n-gram orders are populated
    return [
        EvalPair(candidate=["a", "dog", "barks", "loudly"],
                 references=[["a", "dog", "barks", "loudly"]]),
        EvalPair(candidate=["a", "cat", "sleeps", "quietly"],
                 references=[["a", "cat", "sleeps", "quietly"]]),
        EvalPair(candidate=["birds", "sing", "sweetly", "outside"],
                 references=[["birds", "sing", "sweetly", "outside"]]),
    ]


def test_cider_identity_scores_ten():
    result = cider(three_clip_distinct())
    for score in result.per_clip:
        assert score == pytest.approx(10.0, abs=1e-9)
    assert not result.degenerate_idf


def test_cider_zero_overlap():
    pairs = [EvalPair(candidate=["x", "y"], references=[["a", "b"]]),
             EvalPair(candidate=["p", "q"], references=[["c", "d"]])]
    result = cider(pairs)
    assert result.corpus == pytest.approx(0.0, abs=1e-12)


def test_cider_repetition_never_beats_identity():
    base = three_clip_distinct()
    ref = base[0].references[0]
    doubled = [EvalPair(candidate=ref + ref, references=[ref])] + base[1:]
    identity_score = cider(base).per_clip[0]
    doubled_score = cider(doubled).per_clip[0]
    assert doubled_score <= identity_score + 1e-12


def test_cider_single_clip_flagged_degenerate():
    result = cider([EvalPair(candidate=["a"], references=[["a"]])])
    assert result.degenerate_idf


def test_cider_matches_naive_on_random_corpora():
    for seed in range(8):
        pairs = random_micro_corpus(seed)
        naive_pairs = [(p.candidate, p.references) for p in pairs]
        expected_corpus, expected_clips = naive_cider(naive_pairs)
        result = cider(pairs)
        assert result.corpus == pytest.approx(expected_corpus, abs=1e-9)
        for got, want in zip(result.per_clip, expected_clips):
            assert got == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# SPIDEr
# ---------------------------------------------------------------------------

def test_spider_published_row():
    assert spider(0.679, 0.160) == pytest.approx(0.4195)


def test_spider_degenerate_forms():
    assert spider(0.5, 0.5) == 0.5
    assert spider(0.0, 0.0) == 0.0
    assert spider(1.0, None) is None  # unavailable, never a silent zero


# ---------------------------------------------------------------------------
# mAP
# ---------------------------------------------------------------------------

def test_map_perfect_ranking():
    scores = np.array([[0.9], [0.8], [0.2], [0.1]])
    labels = np.array([[1], [1], [0], [0]])
    assert mean_average_precision(scores, labels) == 1.0


def test_map_plus_minus_plus():
    scores = np.array([[3.0], [2.0], [1.0]])
    labels = np.array([[1], [0], [1]])
    assert mean_average_precision(scores, labels) == pytest.approx(
        (1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)


def test_map_reversed_single_positive():
    scores = np.array([[4.0], [3.0], [2.0], [1.0]])
    labels = np.array([[0], [0], [0], [1]])
    assert mean_average_precision(scores, labels) == pytest.approx(0.25)


def test_map_skips_empty_classes():
    scores = np.array([[0.9, 0.1], [0.1, 0.9]])
    labels = np.array([[1, 0], [0, 0]])
    assert mean_average_precision(scores, labels) == 1.0


def test_map_all_empty_rejected():
    with pytest.raises(ValueError):
        mean_average_precision(np.zeros((2, 2)), np.zeros((2, 2)))


def test_map_matches_naive():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(10, 4))
    labels = (rng.random((10, 4)) < 0.4).astype(int)
    labels[:, 0] = 0
    labels[0, 0] = 1  # ensure at least one positive everywhere
    expected = np.mean([naive_average_precision(scores[:, k].tolist(),
                                                labels[:, k].tolist())
                        for k in range(4)])
    assert mean_average_precision(scores, labels) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# corpus-order invariance and reports
# ---------------------------------------------------------------------------

def test_metrics_invariant_to_clip_order():
    pairs = random_micro_corpus(3)
    shuffled = list(reversed(pairs))
    assert bleu(pairs, 4) == pytest.approx(bleu(shuffled, 4))
    assert rouge_l(pairs) == pytest.approx(rouge_l(shuffled))
    assert cider(pairs).corpus == pytest.approx(cider(shuffled).corpus)


def test_evaluate_captions_report():
    refs = {"c1": [["a", "dog", "barks", "loudly"]],
            "c2": [["a", "cat", "sleeps", "quietly"]]}
    cands = {"c1": ["a", "dog", "barks", "loudly"],
             "c2": ["a", "cat", "sleeps", "quietly"]}
    report = evaluate_captions(cands, refs)
    assert report.corpus_scores["bleu_1"] == pytest.approx(1.0)
    assert report.corpus_scores["rouge_l"] == pytest.approx(1.0)
    assert "spice" in report.unavailable and "spider" in report.unavailable
    assert "meteor" in report.unavailable
    text = report.to_key_value_text()
    assert "spice=unavailable" in text
    payload = json.loads(report.to_json())
    assert payload["format_version"] == 1
    assert payload["corpus"]["bleu_4"] == pytest.approx(1.0)


def test_evaluate_captions_with_spice():
    refs = {"c1": [["a", "dog"]]}
    report = evaluate_captions({"c1": ["a", "dog"]}, refs, spice_score=0.2)
    assert "spider" in report.corpus_scores
    assert report.corpus_scores["spider"] == pytest.approx(
        (report.corpus_scores["cider"] + 0.2) / 2)


@pytest.mark.parametrize("spice", [float("nan"), float("inf"), -0.1, 1.5])
def test_evaluate_captions_rejects_spice_outside_unit_interval(spice):
    # a NaN or infinite score would reach to_json as a bare NaN or Infinity
    with pytest.raises(ValueError, match="spice_score must be in"):
        evaluate_captions({"c1": ["a", "dog"]}, {"c1": [["a", "dog"]]}, spice_score=spice)


def test_evaluate_captions_missing_id_named():
    with pytest.raises(ValueError, match="ghost"):
        evaluate_captions({"ghost": ["a"]}, {"real": [["a"]]})


def test_eval_pair_requires_reference():
    with pytest.raises(ValueError):
        EvalPair(candidate=["a"], references=[])
