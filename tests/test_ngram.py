"""Corpus BLEU and chrF against the frozen brute-force oracle table, the
tokenizers against their frozen characterization table, and cross-BLEU
against BLEU."""

import unicodedata

import pytest

from peereval import ngram
from peereval.errors import AlignmentError, ConfigError, DomainError


def test_bleu_oracle_table(ngram_oracle):
    assert len(ngram_oracle) == 12
    for case in ngram_oracle:
        assert ngram.bleu(case["hyps"], case["refs"]) == \
            pytest.approx(case["bleu"], abs=1e-9)


def test_chrf_oracle_table(ngram_oracle):
    for case in ngram_oracle:
        assert ngram.chrf(case["hyps"], case["refs"]) == \
            pytest.approx(case["chrf"], abs=1e-9)


def test_tokenizers_match_characterization_table(tokenize_oracle):
    # The symbol and punctuation classes come from the interpreter's Unicode
    # database; a different version changes the table, not the code.
    assert tokenize_oracle["unidata_version"] == unicodedata.unidata_version, (
        "Unicode database differs from the one the table was made with; "
        "regenerate it with scripts/gen_tokenize_oracle.py")
    cases = tokenize_oracle["cases"]
    assert len(cases) == 276
    for case in cases:
        assert sorted(case["tokens"]) == sorted(ngram.TOKENIZERS)
        for key, expected in case["tokens"].items():
            assert ngram.TOKENIZERS[key](case["line"]) == expected, \
                (key, case["line"])


# Four systems over mixed ASCII, Unicode punctuation and CJK lines, with
# overlaps of every size, so that clipping, the brevity penalty and empty
# higher orders all occur.
OUTPUTS = {
    "a": ["the cat sat on the mat today.", "中文，测试。我们今天去公园。",
          "3.14 is pi, and e is 2.718!", "hello there, my old friend"],
    "b": ["the cat sat on a mat today .", "中文测试。我们明天去公园。",
          "pi is 3.14, and e is 2.718", "hello there my friend"],
    "c": ["a dog sat on the mat today", "中，文。我们今天去学校",
          "«pi» is 3,14 and e is 2.718!", "hello hello, my old friend"],
    "d": ["the the the cat", "测试中文，", "3.14", "world"],
}


@pytest.mark.parametrize("tokenizer", ["intl", "char-for-zh"])
@pytest.mark.parametrize("settings", [
    {}, {"smoothing": "exp-floor"}, {"max_order": 2},
])
def test_cross_bleu_matrix_cells_equal_bleu(tokenizer, settings):
    cfg = ngram.BleuConfig(tokenizer=tokenizer, **settings)
    names, matrix, averages = ngram.cross_bleu_matrix(OUTPUTS, cfg)
    assert names == sorted(OUTPUTS)
    size = len(names)
    for i, a in enumerate(names):
        assert matrix[i][i] == 100.0
        for j, b in enumerate(names):
            if i != j:
                assert matrix[i][j] == ngram.bleu(OUTPUTS[a], OUTPUTS[b], cfg)
        others = [matrix[i][j] for j in range(size) if j != i]
        assert averages[i] == sum(others) / (size - 1)
    # the fixture is not trivial: some cells differ from 0 and from each other
    cells = {matrix[i][j] for i in range(size) for j in range(size) if i != j}
    assert len(cells) > size and any(0.0 < v < 100.0 for v in cells)


def test_cross_bleu_matrix_rejects_unequal_lengths():
    with pytest.raises(AlignmentError):
        ngram.cross_bleu_matrix({"a": ["x", "y"], "b": ["x"]})


@pytest.mark.parametrize("outputs", [
    {"a": [], "b": []},
    {"a": ["x y"]},
    {},
])
def test_cross_bleu_matrix_rejects_degenerate_input(outputs):
    with pytest.raises(DomainError):
        ngram.cross_bleu_matrix(outputs)


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), 0.0, -1.0])
def test_chrf_config_rejects_beta_that_is_not_finite_and_positive(beta):
    with pytest.raises(ConfigError, match=f"got {beta}$"):
        ngram.ChrfConfig(beta=beta)
