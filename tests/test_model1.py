"""The Model-1 toy scorer: EM training, the lexical-table file, and the
scorer ranking the synthetic noise benchmark end to end."""

import logging
import math

import numpy as np
import pytest

from peereval import metaeval, model1, scoring, synthetic
from peereval.data import TokenScoredSegment
from peereval.errors import DomainError


@pytest.fixture(scope="module")
def small_bench():
    return synthetic.make_noise_benchmark(n_segments=200, seed=3)


def test_loglik_never_decreases(small_bench):
    pairs = list(zip(small_bench.sources, small_bench.references))
    _, logliks = model1.train_model1(pairs, iterations=8, return_loglik=True)
    assert len(logliks) == 8
    assert all(b >= a for a, b in zip(logliks, logliks[1:]))
    assert logliks[-1] > logliks[0]


def test_lexical_table_round_trip(small_bench, tmp_path):
    table = model1.train_model1(
        list(zip(small_bench.sources, small_bench.references)))
    path = tmp_path / "table.tsv"
    model1.save_lexical_table(table, path)
    loaded = model1.load_lexical_table(path)
    noisy = small_bench.system_outputs["sys-noise50"]
    for src, tgt in zip(small_bench.sources, noisy):
        before = model1.score_tokens(table, src, tgt).logprobs
        after = model1.score_tokens(loaded, src, tgt).logprobs
        np.testing.assert_allclose(after, before, rtol=0, atol=1e-4)


def test_empty_pairs_skipped(caplog):
    pair = (("s1", "s2"), ("t1", "t2"))
    with caplog.at_level(logging.WARNING, logger=model1.__name__):
        padded = model1.train_model1([((), ("t1",)), pair, (("s1",), ())])
    assert "skipped 2 empty sentence pair(s)" in caplog.text
    alone = model1.train_model1([pair])
    assert padded.source_index == alone.source_index
    assert padded.target_index == alone.target_index
    np.testing.assert_array_equal(padded.probs, alone.probs)
    with pytest.raises(DomainError):
        model1.train_model1([((), ("t1",)), (("s1",), ())])


def test_noise_benchmark_ranked_by_noise(noise_benchmark):
    """Model 1 -> mean aggregation -> metric_report orders the systems by
    their noise rate."""
    bench = noise_benchmark
    lp = str(bench.lang_pair)
    table = model1.train_model1(list(zip(bench.sources, bench.references)))
    metric = {}
    for name, outputs in bench.system_outputs.items():
        scored = model1.score_corpus(table, list(zip(bench.sources, outputs)))
        segment_scores = scoring.aggregate_segments(scored, "mean")
        metric[(lp, name)] = scoring.system_score(segment_scores, name, lp,
                                                  "mean").value
    human = {name: -rate for name, rate in bench.noise_rates.items()}
    report = metaeval.metric_report({lp: human}, metric)
    by_metric = sorted(human, key=lambda name: -metric[(lp, name)])
    assert by_metric == sorted(human, key=bench.noise_rates.get)
    (pair,) = report.per_pair
    assert pair.outliers == () and pair.n_systems == len(human)
    assert report.weighted_average > 0.999


def score_corpus_loop(table, pairs):
    """Scalar reference: one table lookup and one sum per target token."""
    out = []
    for seg_id, (source_tokens, target_tokens) in enumerate(pairs):
        sources = [model1.NULL_TOKEN, *source_tokens]
        s_ids = [table.source_index[s] for s in sources
                 if s in table.source_index]
        denom = len(source_tokens) + 1
        logps = []
        for tok in target_tokens:
            ti = table.target_index.get(tok)
            if ti is None or not s_ids:
                mass = 0.0
            else:
                mass = float(table.probs[ti, s_ids].sum()) / denom
            logps.append(math.log(max(mass, model1.UNSEEN_PROB_FLOOR)))
        out.append(TokenScoredSegment(seg_id, tuple(target_tokens),
                                      tuple(logps)))
    return out


def test_score_corpus_equals_per_token_reference():
    rng = np.random.default_rng(19)
    src_vocab = [f"s{i}" for i in range(40)]
    tgt_vocab = [f"t{i}" for i in range(30)]
    train = [(rng.choice(src_vocab, size=rng.integers(1, 12)).tolist(),
              rng.choice(tgt_vocab, size=rng.integers(1, 12)).tolist())
             for _ in range(60)]
    table = model1.train_model1(train, iterations=3)
    pairs = []
    # source lengths at the edges of numpy's pairwise-summation blocks
    for length in (1, 8, 9, 129, 150):
        pairs.append((rng.choice(src_vocab, size=length).tolist(),
                      rng.choice(tgt_vocab, size=12).tolist()))
    # unseen target tokens hit the floor; repeated target tokens
    pairs.append((["s1", "s2"], ["unseen", "t1", "t1", "unseen", "t2"]))
    pairs.append((["s3"], ["unseen"]))
    # source tokens missing from the table
    pairs.append((["missing", "s4", "missing"], ["t3", "t4", "t3"]))
    pairs.append((["missing"], ["t5", "unseen"]))
    scored = model1.score_corpus(table, pairs)
    assert scored == score_corpus_loop(table, pairs)
    floor = math.log(model1.UNSEEN_PROB_FLOOR)
    assert scored[5].logprobs[0] == scored[6].logprobs[0] == floor
