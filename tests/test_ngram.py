"""Corpus BLEU and chrF against the frozen brute-force oracle table."""

import pytest

from peereval import ngram


def test_bleu_oracle_table(ngram_oracle):
    assert len(ngram_oracle) == 12
    for case in ngram_oracle:
        assert ngram.bleu(case["hyps"], case["refs"]) == \
            pytest.approx(case["bleu"], abs=1e-9)


def test_chrf_oracle_table(ngram_oracle):
    for case in ngram_oracle:
        assert ngram.chrf(case["hyps"], case["refs"]) == \
            pytest.approx(case["chrf"], abs=1e-9)
