"""The Model-1 toy scorer: EM training, the lexical-table file, and the
scorer ranking the synthetic noise benchmark end to end."""

import logging
import math
import re

import numpy as np
import pytest

from peereval import kernels, metaeval, model1, scoring, synthetic
from peereval.data import TokenScoredSegment
from peereval.errors import DomainError, ParseError


@pytest.fixture(scope="module")
def small_bench():
    return synthetic.make_noise_benchmark(n_segments=200, seed=3)


def corpus_loglik(table, pairs):
    """The Model-1 log-likelihood of ``pairs`` under ``table``: each target
    token aligned uniformly to its pair's source tokens and NULL."""
    total = 0.0
    for src, tgt in pairs:
        s_ids = [table.source_index[t] for t in (model1.NULL_TOKEN, *src)]
        t_ids = [table.target_index[t] for t in tgt]
        mass = table.probs[np.ix_(t_ids, s_ids)].sum(axis=1)
        total += float(np.log(mass).sum()) - len(t_ids) * math.log(len(s_ids))
    return total


def test_loglik_never_decreases(small_bench):
    pairs = list(zip(small_bench.sources, small_bench.references))
    logliks = [corpus_loglik(model1.train_model1(pairs, iterations=k), pairs)
               for k in range(1, 9)]
    assert all(b >= a for a, b in zip(logliks, logliks[1:])), logliks
    assert logliks[-1] > logliks[0]


def test_training_lays_out_its_links_once(small_bench, monkeypatch):
    calls = {"model1_links": 0, "model1_em_step": 0}
    for name in calls:
        def counted(*args, _fn=getattr(kernels, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(kernels, name, counted)
    model1.train_model1(list(zip(small_bench.sources,
                                 small_bench.references)), iterations=10)
    assert calls == {"model1_links": 1, "model1_em_step": 10}


def test_score_corpus_falls_back_to_the_record_check(monkeypatch):
    # a log-prob array that fails the array check gets the constructor's
    # error, word for word
    rng = np.random.default_rng(47)
    table, src_vocab, tgt_vocab = random_table(rng)
    pairs = [(["s1"], tgt_vocab[:2]), (["s2"], tgt_vocab[:1])]
    monkeypatch.setattr(model1, "score_csr", lambda *_: (
        np.array([-1.0, -2.0, 0.5]), np.array([0, 2, 3])))
    with pytest.raises(DomainError, match="^segment 8: positive log-prob 0.5$"):
        model1.score_corpus(table, pairs, [4, 8])


def test_lexical_table_round_trip(small_bench, tmp_path):
    table = model1.train_model1(
        list(zip(small_bench.sources, small_bench.references)))
    path = tmp_path / "table.tsv"
    model1.save_lexical_table(table, path)
    loaded = model1.load_lexical_table(path)
    pairs = list(zip(small_bench.sources,
                     small_bench.system_outputs["sys-noise50"]))
    for before, after in zip(model1.score_corpus(table, pairs),
                             model1.score_corpus(loaded, pairs), strict=True):
        np.testing.assert_allclose(after.logprobs, before.logprobs, rtol=0,
                                   atol=1e-4)


@pytest.mark.parametrize("token", ["a\tb", "a\nb"])
@pytest.mark.parametrize("side", ["source", "target"])
def test_save_rejects_token_that_tsv_cannot_hold(tmp_path, token, side):
    # the file would save but not load back
    pair = ((token,), ("x",)) if side == "source" else (("a",), (token,))
    table = model1.train_model1([pair, (("a",), ("x",))])
    path = tmp_path / "table.tsv"
    with pytest.raises(DomainError,
                       match=f"^token {re.escape(repr(token))} not "
                       "representable in TSV$"):
        model1.save_lexical_table(table, path)
    assert not path.exists()


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


def random_table(rng, n_src=40, n_tgt=30):
    src_vocab = [f"s{i}" for i in range(n_src)]
    tgt_vocab = [f"t{i}" for i in range(n_tgt)]
    train = [(rng.choice(src_vocab, size=rng.integers(1, 12)).tolist(),
              rng.choice(tgt_vocab, size=rng.integers(1, 12)).tolist())
             for _ in range(60)]
    return model1.train_model1(train, iterations=3), src_vocab, tgt_vocab


def test_score_corpus_bit_identical_over_many_source_lengths():
    rng = np.random.default_rng(31)
    table, src_vocab, tgt_vocab = random_table(rng)
    pairs = []
    # 40 distinct source lengths, in shuffled order, with source tokens
    # missing from the table and target tokens it has never seen
    for length in rng.permutation(np.arange(1, 41)).tolist():
        source = rng.choice(src_vocab + ["missing"], size=length).tolist()
        target = rng.choice(tgt_vocab + ["unseen"],
                            size=rng.integers(1, 20)).tolist()
        pairs.append((source, target))
    scored = model1.score_corpus(table, pairs)
    assert scored == score_corpus_loop(table, pairs)
    floor = math.log(model1.UNSEEN_PROB_FLOOR)
    assert any(v == floor for seg in scored for v in seg.logprobs)


def test_scoring_looks_up_the_null_column():
    rng = np.random.default_rng(37)
    table, src_vocab, tgt_vocab = random_table(rng)
    # the same table with <NULL> moved from the first column to the last
    names = sorted(table.source_index, key=table.source_index.get)
    names = names[1:] + names[:1]
    moved = model1.LexicalTable(
        {name: i for i, name in enumerate(names)}, table.target_index,
        table.probs[:, [table.source_index[n] for n in names]])
    assert moved.source_index[model1.NULL_TOKEN] == len(names) - 1
    pairs = [(rng.choice(src_vocab, size=5).tolist(),
              rng.choice(tgt_vocab, size=6).tolist()) for _ in range(20)]
    assert model1.score_corpus(moved, pairs) == score_corpus_loop(moved, pairs)


def test_score_csr_layout_and_one_pair_scoring():
    rng = np.random.default_rng(41)
    table, src_vocab, tgt_vocab = random_table(rng)
    pairs = [(rng.choice(src_vocab, size=3).tolist(),
              rng.choice(tgt_vocab, size=n).tolist()) for n in (2, 5, 1)]
    values, offsets = model1.score_csr(table, pairs, [7, 3, 9])
    assert offsets.tolist() == [0, 2, 7, 8]
    for (src, tgt), lo, hi, seg_id in zip(pairs, offsets[:-1], offsets[1:],
                                          [7, 3, 9]):
        # a pair scored alone gets the log-probs it gets in the batch
        (seg,) = model1.score_corpus(table, [(src, tgt)], [seg_id])
        assert seg.seg_id == seg_id
        assert seg.tokens == tuple(tgt)
        assert seg.logprobs == tuple(values[lo:hi].tolist())


def test_empty_target_names_its_seg_id():
    rng = np.random.default_rng(43)
    table, _, _ = random_table(rng)
    pairs = [(["s1"], ["t1"]), (["s2"], [])]
    with pytest.raises(DomainError, match="^segment 12: empty target$"):
        model1.score_csr(table, pairs, [11, 12])
    with pytest.raises(DomainError, match="^segment 1: empty target$"):
        model1.score_corpus(table, pairs)
    with pytest.raises(DomainError, match="^segment 5: empty target$"):
        model1.score_corpus(table, [(["s1"], [])], [5])


@pytest.mark.parametrize("prob", ["nan", "inf", "-inf", "-0.5", "1.5"])
def test_load_rejects_probability_outside_unit_interval(tmp_path, prob):
    path = tmp_path / "table.tsv"
    path.write_text(f"x\t<NULL>\t1.0\ny\ta\t{prob}\nz\ta\t0.5\n")
    with pytest.raises(ParseError) as err:
        model1.load_lexical_table(path)
    assert str(err.value).startswith(f"{path}:2: ")


def test_load_rejects_table_without_null_rows(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("y\ta\t0.5\nz\ta\t0.5\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: .*<NULL>"):
        model1.load_lexical_table(path)


def test_lexical_table_rejects_non_finite_probabilities():
    probs = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(DomainError, match="non-finite"):
        model1.LexicalTable({model1.NULL_TOKEN: 0, "a": 1}, {"x": 0, "y": 1},
                            probs)
