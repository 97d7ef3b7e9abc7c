import pytest
from hypothesis import given
from hypothesis import strategies as st

from audiocap import atomic
from audiocap.text import (EOS, PAD, RESERVED, SOS, UNK, Vocabulary,
                           build_vocabulary, decode, encode, save_vocabulary,
                           tokenize_caption)


# ---------------------------------------------------------------------------
# tokenize_caption
# ---------------------------------------------------------------------------

def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize_caption("A man speaks, loudly!") == ["a", "man", "speaks", "loudly"]


def test_tokenize_empty():
    assert tokenize_caption("") == []


def test_tokenize_collapses_whitespace():
    assert tokenize_caption("Dog   barks") == ["dog", "barks"]


def test_tokenize_unicode_punctuation():
    assert tokenize_caption("it’s — loud…") == ["its", "loud"]


@given(st.text(max_size=60))
def test_tokenize_idempotent(s):
    once = tokenize_caption(s)
    assert tokenize_caption(" ".join(once)) == once


# ---------------------------------------------------------------------------
# build_vocabulary
# ---------------------------------------------------------------------------

def test_vocabulary_frequency_order():
    vocab = build_vocabulary([["a", "dog"], ["a", "cat"]], min_count=1)
    assert len(vocab) == 7  # 4 reserved + a, cat, dog
    assert vocab.id_of("a") == 4  # highest frequency takes the first free id
    assert vocab.id_of("cat") == 5 and vocab.id_of("dog") == 6  # tie -> lexicographic


def test_vocabulary_min_count_filters():
    vocab = build_vocabulary([["a", "dog"], ["a", "cat"]], min_count=2)
    assert len(vocab) == 5
    assert vocab.id_of("a") == 4
    assert vocab.id_of("cat") == UNK and vocab.id_of("dog") == UNK


def test_reserved_ids_stable():
    vocab = build_vocabulary([["x"]], min_count=1)
    assert vocab.id_to_word[:4] == ["<pad>", "<sos>", "<eos>", "<unk>"]
    assert (PAD, SOS, EOS, UNK) == (0, 1, 2, 3)


def test_vocabulary_ids_dense():
    vocab = build_vocabulary([["w%d" % i for i in range(10)]], min_count=1)
    assert sorted(vocab.word_to_id.values()) == list(range(len(vocab)))


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_vocabulary([], min_count=1)


def test_bad_min_count_rejected():
    with pytest.raises(ValueError):
        build_vocabulary([["a"]], min_count=0)


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

@pytest.fixture
def vocab():
    return build_vocabulary([["dog", "barks"], ["dog", "sleeps"]], min_count=1)


def test_encode_wraps_with_specials(vocab):
    ids = encode(["dog", "barks"], vocab)
    assert ids == [SOS, vocab.id_of("dog"), vocab.id_of("barks"), EOS]


def test_encode_oov_maps_to_unk(vocab):
    assert encode(["zebra"], vocab) == [SOS, UNK, EOS]


def test_decode_strips_specials(vocab):
    ids = [SOS, vocab.id_of("dog"), PAD, vocab.id_of("sleeps"), EOS]
    assert decode(ids, vocab) == ["dog", "sleeps"]


def test_decode_out_of_range_rejected(vocab):
    with pytest.raises(ValueError):
        decode([SOS, len(vocab), EOS], vocab)


def test_round_trip_identity(vocab):
    words = ["dog", "sleeps", "barks"]
    assert decode(encode(words, vocab), vocab) == words


@given(st.lists(st.sampled_from(["dog", "barks", "sleeps"]), max_size=8))
def test_round_trip_property(words):
    vocab = build_vocabulary([["dog", "barks"], ["dog", "sleeps"]], min_count=1)
    assert decode(encode(words, vocab), vocab) == words


# ---------------------------------------------------------------------------
# vocabulary file format
# ---------------------------------------------------------------------------

def test_vocabulary_file_round_trip(tmp_path, vocab):
    path = tmp_path / "vocab.txt"
    save_vocabulary(vocab, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("#")  # documented header
    words = [ln for ln in text.splitlines() if not ln.startswith("#")]
    # line k holds the word with id k + 4, after the 4 reserved ids
    assert list(RESERVED) + words == vocab.id_to_word


def test_failed_vocabulary_write_keeps_previous_file(tmp_path, vocab, monkeypatch):
    path = tmp_path / "vocab.txt"
    save_vocabulary(vocab, path)
    before = path.read_bytes()

    class DiskFull:  # nothing written fits
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(atomic, "open", lambda *a: DiskFull(open(*a)), raising=False)
    with pytest.raises(OSError, match="No space"):
        save_vocabulary(build_vocabulary([["cat", "purrs"]]), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vocab.txt"]
