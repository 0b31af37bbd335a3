"""Unigram subword segmentation: search, sampling, training and model files."""

import math

import numpy as np
import pytest

from peereval import subword
from peereval.errors import DomainError

WORDS = ["lower", "lowest", "newer", "newest", "wider", "widest", "low",
         "new", "slow", "slower", "renew", "renewed", "owe", "wow"]


@pytest.fixture(scope="module")
def model():
    return subword.train_unigram(WORDS * 3, vocab_size=30, rounds=4)


def test_segmentations_join_back_to_the_word(model):
    rng = np.random.default_rng(0)
    for word in WORDS + ["lowerest", "slowest"]:
        assert "".join(subword.viterbi_segmentation(model, word).pieces) == word
        nbest = subword.nbest_segmentations(model, word, 5)
        assert [s.score for s in nbest] == \
            sorted((s.score for s in nbest), reverse=True)
        assert len({s.pieces for s in nbest}) == len(nbest)
        for seg in nbest:
            assert "".join(seg.pieces) == word
            assert seg.score == pytest.approx(
                sum(model.vocab[p] for p in seg.pieces), abs=1e-12)
        for _ in range(5):
            sampled = subword.sample_segmentation(model, word, n=5, alpha=0.0,
                                                  rng=rng)
            assert "".join(sampled.pieces) == word


def test_viterbi_is_the_best_of_the_nbest(model):
    for word in WORDS:
        best = subword.viterbi_segmentation(model, word)
        assert best == subword.nbest_segmentations(model, word, 4)[0]


def test_sampling_is_reproducible_from_the_rng_seed(model):
    def draws(seed):
        rng = np.random.default_rng(seed)
        return [subword.sample_segmentation(model, word, n=6, alpha=0.0,
                                            rng=rng).pieces
                for word in WORDS * 4]

    assert draws(11) == draws(11)
    assert draws(11) != draws(12)


def test_model_file_round_trip_is_exact(model, tmp_path):
    path = tmp_path / "model.tsv"
    subword.save_unigram_model(model, path)
    loaded = subword.load_unigram_model(path)
    assert loaded.vocab == model.vocab
    assert loaded.max_piece_len == model.max_piece_len


def test_piece_with_a_tab_cannot_be_saved(tmp_path):
    model = subword.UnigramSubwordModel({"a\tb": math.log(0.5),
                                         "a": math.log(0.25)})
    with pytest.raises(DomainError):
        subword.save_unigram_model(model, tmp_path / "model.tsv")


def test_equal_scores_prefer_the_smaller_piece_sequence():
    # log .25 + log .25 == log .0625 exactly: "a b" and "ab" tie
    model = subword.UnigramSubwordModel({"a": math.log(0.25),
                                         "b": math.log(0.25),
                                         "ab": math.log(0.0625)})
    assert subword.viterbi_segmentation(model, "ab").pieces == ("a", "b")
    assert [s.pieces for s in subword.nbest_segmentations(model, "ab", 2)] \
        == [("a", "b"), ("ab",)]
