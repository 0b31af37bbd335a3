"""Unigram subword segmentation: search, sampling, training and model files."""

import math
import pickle
import random

import numpy as np
import pytest

from peereval import subword
from peereval.errors import ConfigError, CoverageError, DomainError, ParseError

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


def test_memoized_draws_equal_draws_from_a_fresh_model(model):
    # every draw takes one rng.random(), memo hit or miss, so the random
    # stream is the one a model that never saw the word before would consume
    for alpha in (0.0, 0.5):
        memo_rng, fresh_rng = np.random.default_rng(5), np.random.default_rng(5)
        memoized = [subword.sample_segmentation(model, word, n=6, alpha=alpha,
                                                rng=memo_rng).pieces
                    for word in WORDS * 4]
        fresh = [subword.sample_segmentation(
                     subword.UnigramSubwordModel(model.vocab), word, n=6,
                     alpha=alpha, rng=fresh_rng).pieces
                 for word in WORDS * 4]
        assert memoized == fresh


def test_draws_equal_generator_choice_on_random_weights():
    # the memoized CDF draw is Generator.choice(len(c), p=probs): the same
    # index, and the generator left in the same state
    pick = random.Random(3)
    for case in range(200):
        # k letters, each a piece alone and doubled; "aa...kk" then has 2**k
        # segmentations, and "a" has one
        k = pick.randint(1, 6)
        vocab = {chr(97 + i): math.log(0.5 / k) for i in range(k)}
        vocab.update({chr(97 + i) * 2: math.log(pick.uniform(1e-4, 0.5) / k)
                      for i in range(k)})
        model = subword.UnigramSubwordModel(vocab)
        text = "a" if case % 4 == 0 else "".join(p for p in vocab if len(p) == 2)
        alpha = pick.choice([0.0, 0.3, 1.0, 50.0, 1e3])
        candidates = subword.nbest_segmentations(model, text, 8)
        scores = alpha * np.array([c.score for c in candidates])
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        ours, theirs = (np.random.default_rng(case) for _ in range(2))
        for _ in range(3):
            drawn = subword.sample_segmentation(model, text, n=8, alpha=alpha,
                                                rng=ours)
            assert drawn == candidates[theirs.choice(len(candidates), p=probs)]
        assert ours.random() == theirs.random()


def test_memo_never_exceeds_its_cap(model, monkeypatch):
    monkeypatch.setattr(subword, "MEMO_ENTRIES", 5)
    capped = subword.UnigramSubwordModel(model.vocab)
    capped_rng, fresh_rng = np.random.default_rng(9), np.random.default_rng(9)
    for word in WORDS * 3:
        drawn = subword.sample_segmentation(capped, word, n=6, rng=capped_rng)
        assert len(capped._memo) <= 5
        # a word evicted earlier is sampled again as a fresh model would
        fresh = subword.sample_segmentation(
            subword.UnigramSubwordModel(model.vocab), word, n=6, rng=fresh_rng)
        assert drawn == fresh
        assert subword.nbest_segmentations(capped, word, 3) == \
            subword.nbest_segmentations(model, word, 3)
        assert len(capped._memo) <= 5
    # the oldest entries went first: the last word's entries are kept
    assert (WORDS[-1], 6, 1.0) in capped._memo


def test_a_memo_hit_evicts_nothing(model, monkeypatch):
    monkeypatch.setattr(subword, "MEMO_ENTRIES", 2)
    capped = subword.UnigramSubwordModel(model.vocab)
    rng = np.random.default_rng(0)
    subword.sample_segmentation(capped, "lower", rng=rng)
    before = list(capped._memo)
    for _ in range(3):
        subword.sample_segmentation(capped, "lower", rng=rng)
        subword.nbest_segmentations(capped, "lower", 10)
    assert list(capped._memo) == before


def test_mutating_a_returned_nbest_list_leaves_the_memo_intact(model):
    first = subword.nbest_segmentations(model, "slower", 4)
    expected = list(first)
    first.clear()
    assert subword.nbest_segmentations(model, "slower", 4) == expected
    assert subword.viterbi_segmentation(model, "slower") == expected[0]


def test_errors_are_raised_on_every_call(model):
    rng = np.random.default_rng(0)
    for _ in range(2):
        with pytest.raises(CoverageError):
            subword.nbest_segmentations(model, "lowz", 3)
        with pytest.raises(CoverageError):
            subword.sample_segmentation(model, "lowz", rng=rng)
        with pytest.raises(ConfigError):
            subword.nbest_segmentations(model, "low", 0)


def test_training_does_not_depend_on_corpus_order(model):
    shuffled = WORDS * 3
    random.Random(7).shuffle(shuffled)
    assert shuffled != WORDS * 3
    trained = subword.train_unigram(shuffled, vocab_size=30, rounds=4)
    assert trained.vocab == model.vocab


def test_vocabulary_is_read_only(model):
    with pytest.raises(TypeError):
        model.vocab["lowe"] = -1.0
    assert "lowe" not in model.vocab


def test_model_pickles_without_its_memo(model):
    subword.viterbi_segmentation(model, "lower")
    copy = pickle.loads(pickle.dumps(model))
    assert copy == model and copy._memo == {}


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, -0.5])
def test_bad_alpha_is_a_config_error_naming_it(model, alpha):
    rng = np.random.default_rng(0)
    for _ in range(2):
        with pytest.raises(ConfigError, match=f"got {alpha}"):
            subword.sample_segmentation(model, "lower", alpha=alpha, rng=rng)


def test_alpha_that_leaves_no_finite_weight_is_a_domain_error(model):
    # 1e308 * score is -inf for every candidate, so no weight is finite
    rng = np.random.default_rng(0)
    for _ in range(2):
        with pytest.raises(DomainError, match="no sampling distribution"):
            subword.sample_segmentation(model, "lower", alpha=1e308, rng=rng)


@pytest.mark.parametrize("lines, lineno, message", [
    (["a\t-1.0", "b\t-2.0", "a\t-3.0"], 3, "duplicate piece 'a'"),
    (["a\t-1.0", "b\tnan"], 2, "log-prob nan is not finite"),
    (["a\tinf"], 1, "log-prob inf is not finite"),
    (["a\t-1.0", "", "b\t-inf"], 3, "log-prob -inf is not finite"),
    (["a\t-1.0", "b\t0.5"], 2, "log-prob 0.5 > 0"),
    (["a\t-1.0", "\t-2.0"], 2, "empty piece"),
])
def test_bad_model_file_line_is_a_parse_error_naming_it(tmp_path, lines,
                                                        lineno, message):
    path = tmp_path / "model.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=message) as info:
        subword.load_unigram_model(path)
    assert (info.value.path, info.value.line) == (path, lineno)
    assert str(info.value).startswith(f"{path}:{lineno}: ")


@pytest.mark.parametrize("text, message", [
    ("", "empty subword vocabulary"),
    ("a\t-0.1\nb\t-0.1\n", "sum to"),
])
def test_bad_model_file_is_a_parse_error_naming_it(tmp_path, text, message):
    path = tmp_path / "model.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=message) as info:
        subword.load_unigram_model(path)
    assert info.value.path == path


@pytest.mark.parametrize("max_piece_len", [0, -1])
def test_train_rejects_max_piece_len_below_1(max_piece_len):
    with pytest.raises(ConfigError, match=f"got {max_piece_len}$"):
        subword.train_unigram(WORDS, vocab_size=30,
                              max_piece_len=max_piece_len)
