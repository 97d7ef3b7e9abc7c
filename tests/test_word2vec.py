import numpy as np
import pytest

from audiocap.text import build_vocabulary
from audiocap.synth import CHIRP_PHRASES, NOISE_PHRASES, TONE_PHRASES
from audiocap.word2vec import skipgram_pairs, train_skipgram
from word2vec_reference import train_skipgram_reference


def test_pair_enumeration_window_two():
    pairs = skipgram_pairs(["a", "b", "c"], window=2)
    assert set(pairs) == {("a", "b"), ("a", "c"), ("b", "a"),
                          ("b", "c"), ("c", "a"), ("c", "b")}


def test_pair_enumeration_window_one():
    pairs = skipgram_pairs([0, 1, 2], window=1)
    assert set(pairs) == {(0, 1), (1, 0), (1, 2), (2, 1)}


def _paired_corpus():
    # w1 and w2 always co-occur; w3 lives in disjoint contexts
    corpus = []
    for _ in range(30):
        corpus.append(["w1", "w2"])
        corpus.append(["w3", "w4"])
    return corpus


def test_cooccurrence_shapes_cosine_similarity():
    corpus = _paired_corpus()
    vocab = build_vocabulary(corpus, min_count=1)
    result = train_skipgram(corpus, vocab, dim=16, window=2, negatives=3,
                            epochs=20, seed=0)
    emb = result.embeddings

    def cos(a, b):
        va, vb = emb[vocab.id_of(a)], emb[vocab.id_of(b)]
        return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))

    assert cos("w1", "w2") > cos("w1", "w3")


def test_loss_decreases_over_epochs():
    corpus = _paired_corpus()
    vocab = build_vocabulary(corpus, min_count=1)
    result = train_skipgram(corpus, vocab, dim=16, window=2, negatives=3,
                            epochs=6, seed=1)
    losses = result.epoch_losses
    assert len(losses) == 6
    assert losses[-1] < losses[0]
    assert losses[5] < losses[1] < losses[0]


def test_deterministic_per_seed():
    corpus = _paired_corpus()
    vocab = build_vocabulary(corpus, min_count=1)
    a = train_skipgram(corpus, vocab, dim=8, epochs=2, seed=3).embeddings
    b = train_skipgram(corpus, vocab, dim=8, epochs=2, seed=3).embeddings
    assert a.tobytes() == b.tobytes()


def test_embeddings_finite():
    corpus = _paired_corpus()
    vocab = build_vocabulary(corpus, min_count=1)
    emb = train_skipgram(corpus, vocab, dim=8, epochs=3, seed=2).embeddings
    assert emb.shape == (len(vocab), 8)
    assert np.all(np.isfinite(emb))


def test_degenerate_corpus_rejected():
    vocab = build_vocabulary([["solo"]], min_count=1)
    with pytest.raises(ValueError):
        train_skipgram([["solo"]], vocab, dim=4, window=2, epochs=1, seed=0)


def test_bad_hyperparameters_rejected():
    corpus = _paired_corpus()
    vocab = build_vocabulary(corpus, min_count=1)
    with pytest.raises(ValueError):
        train_skipgram(corpus, vocab, dim=4, window=0, epochs=1, seed=0)
    with pytest.raises(ValueError):
        train_skipgram(corpus, vocab, dim=4, negatives=0, epochs=1, seed=0)


def _caption_corpus():
    # caption-like sentences of 4 to 14 tokens over uneven word counts
    phrases = [*TONE_PHRASES.values(), *NOISE_PHRASES.values(), *CHIRP_PHRASES.values()]
    return [f"{phrases[i % 7]} then {phrases[(3 * i + 1) % 7]}".split() if i % 3
            else phrases[i % 7].split() for i in range(12)]


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("negatives", [1, 5])
@pytest.mark.parametrize("window", [1, 2])
def test_epoch_negative_draws_equal_per_pair_reference(seed, negatives, window):
    corpus = _caption_corpus()
    vocab = build_vocabulary(corpus, min_count=1)
    got = train_skipgram(corpus, vocab, dim=6, window=window, negatives=negatives,
                         epochs=3, seed=seed)
    emb, losses = train_skipgram_reference(corpus, vocab, dim=6, window=window,
                                           negatives=negatives, epochs=3, seed=seed)
    assert got.embeddings.tobytes() == emb.tobytes()
    assert got.epoch_losses == losses
