"""The numpy kernels against plain per-segment and per-pair loops."""

import numpy as np
import pytest

from peereval import kernels, scoring
from peereval.data import TokenScoredSegment


def random_csr(rng, n_segments=200, max_len=30):
    lengths = rng.integers(1, max_len + 1, size=n_segments)
    offsets = np.zeros(n_segments + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(lengths)
    values = -rng.exponential(1.5, size=offsets[-1])
    return values, offsets


def segment_stats_loop(values, offsets):
    """Scalar loop over each segment: the definition the kernel vectorizes."""
    n = offsets.shape[0] - 1
    sums, means, medians, mins, stds = (np.empty(n) for _ in range(5))
    for i in range(n):
        lo, hi = offsets[i], offsets[i + 1]
        t = hi - lo
        s = 0.0
        mn = values[lo]
        for j in range(lo, hi):
            s += values[j]
            mn = min(mn, values[j])
        m = s / t
        ss = 0.0
        for j in range(lo, hi):
            ss += (values[j] - m) ** 2
        srt = np.sort(values[lo:hi])
        if t % 2 == 1:
            med = srt[t // 2]
        else:
            med = 0.5 * (srt[t // 2 - 1] + srt[t // 2])
        sums[i], means[i], medians[i], mins[i] = s, m, med, mn
        stds[i] = np.sqrt(ss / t)
    return sums, means, medians, mins, stds


STATS = ("sum", "mean", "median", "min", "negstd")


def segment_kernels(values, offsets):
    """The five statistics, one kernel call each, in the loop's order; the
    std is the negated "negstd"."""
    sums, means, medians, mins, negstds = (
        kernels.segment_stats(values, offsets, stat) for stat in STATS)
    return sums, means, medians, mins, -negstds


def test_segment_stats_against_loop_reference():
    rng = np.random.default_rng(7)
    values, offsets = random_csr(rng)
    expected = segment_stats_loop(values, offsets)
    for a, b in zip(segment_kernels(values, offsets), expected):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_segment_stats_against_numpy_reference():
    rng = np.random.default_rng(11)
    values, offsets = random_csr(rng, n_segments=50)
    sums, means, medians, mins, stds = segment_kernels(values, offsets)
    for i in range(len(offsets) - 1):
        seg = values[offsets[i]:offsets[i + 1]]
        assert sums[i] == pytest.approx(seg.sum(), rel=1e-12)
        assert means[i] == pytest.approx(seg.mean(), rel=1e-12)
        assert medians[i] == pytest.approx(np.median(seg), rel=1e-12)
        assert mins[i] == seg.min()
        assert stds[i] == pytest.approx(seg.std(), rel=1e-12, abs=1e-15)


def test_segment_median_bit_identical_to_per_segment_median():
    rng = np.random.default_rng(13)
    # unsorted lengths, many segments per length, odd and even lengths,
    # length-1 segments, and ties from values on a coarse grid
    lengths = rng.permutation(np.repeat([1, 2, 3, 4, 7, 8, 15, 16], 25))
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(lengths)
    values = -np.round(rng.exponential(1.5, size=offsets[-1]), 1)
    medians = kernels.segment_stats(values, offsets, "median")
    expected = [np.median(values[lo:hi])
                for lo, hi in zip(offsets[:-1], offsets[1:])]
    assert np.array_equal(medians, expected)


@pytest.fixture
def median_calls(monkeypatch):
    """A list that gets one entry per ``np.median`` call."""
    calls = []
    median = np.median

    def counting_median(*args, **kwargs):
        calls.append(1)
        return median(*args, **kwargs)

    monkeypatch.setattr(np, "median", counting_median)
    return calls


def test_segment_median_one_call_per_distinct_length(median_calls):
    rng = np.random.default_rng(17)
    values, offsets = random_csr(rng, n_segments=300, max_len=10)
    kernels.segment_stats(values, offsets, "median")
    assert len(median_calls) == len(np.unique(np.diff(offsets)))


@pytest.mark.parametrize("method", ["sum", "mean", "min", "negstd"])
def test_only_the_median_aggregation_takes_medians(median_calls, method):
    rng = np.random.default_rng(19)
    values, offsets = random_csr(rng, n_segments=40, max_len=10)
    segments = [TokenScoredSegment(i, ["t"] * (hi - lo), values[lo:hi].tolist())
                for i, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:]))]
    scoring.aggregate_segments(segments, method)
    scoring.mean_token_logprobs(segments)
    assert median_calls == []
    scoring.aggregate_segments(segments, "median")
    assert len(median_calls) == len(np.unique(np.diff(offsets)))


def test_segment_stats_rejects_empty_segment():
    values = np.array([-1.0])
    offsets = np.array([0, 1, 1], dtype=np.int64)
    for stat in STATS:
        with pytest.raises(ValueError, match="empty segment"):
            kernels.segment_stats(values, offsets, stat)


def test_segment_stats_rejects_an_unknown_statistic():
    with pytest.raises(ValueError, match="unknown segment statistic 'max'"):
        kernels.segment_stats(np.array([-1.0]), np.array([0, 1]), "max")


def random_corpus(rng, n_pairs=40, n_tgt=25, n_src=20, max_len=12):
    tgt_sents = [rng.integers(0, n_tgt, size=rng.integers(1, max_len + 1))
                 for _ in range(n_pairs)]
    src_sents = [np.concatenate([[0], rng.integers(1, n_src,
                                                   size=rng.integers(1, max_len))])
                 for _ in range(n_pairs)]
    def flatten(sents):
        offsets = np.zeros(len(sents) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([len(s) for s in sents])
        return np.concatenate(sents).astype(np.int64), offsets
    tgt_flat, tgt_off = flatten(tgt_sents)
    src_flat, src_off = flatten(src_sents)
    table = np.full((n_tgt, n_src), 1.0 / n_tgt)
    return tgt_flat, src_flat, tgt_off, src_off, table


def em_step(tgt_flat, src_flat, tgt_off, src_off, table):
    """``kernels.model1_em_step`` on a layout built for this one step."""
    links = kernels.model1_links(tgt_flat, src_flat, tgt_off, src_off,
                                 table.shape[1])
    return kernels.model1_em_step(links, table)


def model1_em_step_loop(tgt_flat, src_flat, tgt_off, src_off, table):
    """Scalar loop over each (target token, source token) link of each pair."""
    counts = np.zeros_like(table)
    for p in range(tgt_off.shape[0] - 1):
        s_lo, s_hi = src_off[p], src_off[p + 1]
        for i in range(tgt_off[p], tgt_off[p + 1]):
            y = tgt_flat[i]
            denom = 0.0
            for j in range(s_lo, s_hi):
                denom += table[y, src_flat[j]]
            for j in range(s_lo, s_hi):
                s = src_flat[j]
                counts[y, s] += table[y, s] / denom
    new_table = table.copy()
    for s in range(table.shape[1]):
        total = counts[:, s].sum()
        if total > 0.0:
            new_table[:, s] = counts[:, s] / total
    return new_table


def test_model1_em_against_loop_reference():
    rng = np.random.default_rng(3)
    args = random_corpus(rng)
    # repeated ids within a sentence must each add their own count
    assert any(len(set(args[0][lo:hi])) < hi - lo
               for lo, hi in zip(args[2][:-1], args[2][1:]))
    np.testing.assert_allclose(em_step(*args), model1_em_step_loop(*args),
                               rtol=1e-10, atol=1e-14)


def test_model1_em_columns_normalized():
    rng = np.random.default_rng(5)
    args = random_corpus(rng)
    sums = em_step(*args).sum(axis=0)
    np.testing.assert_allclose(sums, 1.0, rtol=1e-9)


def model1_em_step_per_pair(tgt_flat, src_flat, tgt_off, src_off, table):
    """The EM step as one numpy round per sentence pair: the definition the
    blocked kernel must reproduce bit for bit."""
    counts = np.zeros_like(table)
    for p in range(len(tgt_off) - 1):
        t_ids = tgt_flat[tgt_off[p]:tgt_off[p + 1]]
        s_ids = src_flat[src_off[p]:src_off[p + 1]]
        sub = table[np.ix_(t_ids, s_ids)]
        denom = sub.sum(axis=1)
        np.add.at(counts, (t_ids[:, None], s_ids[None, :]), sub / denom[:, None])
    totals = counts.sum(axis=0)
    return np.where(totals > 0.0, counts / np.where(totals > 0.0, totals, 1.0), table)


EDGE_LENGTHS = (1, 7, 8, 9, 128, 129, 150)


def edge_corpus(rng, n_tgt=40, n_src=30, unused_src=3):
    """Pairs with every edge length on either side, ids repeated within a
    sentence, and the last ``unused_src`` source ids in no sentence."""
    lengths = [(t, s) for t in EDGE_LENGTHS for s in EDGE_LENGTHS]
    lengths += [(int(t), int(s)) for t, s in rng.integers(1, 12, size=(60, 2))]
    order = rng.permutation(len(lengths))
    tgt_sents = [rng.integers(0, n_tgt, size=lengths[i][0]) for i in order]
    # NULL (id 0) first, as in train_model1
    src_sents = [np.concatenate([[0], rng.integers(1, n_src - unused_src,
                                                   size=lengths[i][1] - 1)])
                 for i in order]
    tgt_flat, tgt_off = kernels.to_csr(tgt_sents, np.int64)
    src_flat, src_off = kernels.to_csr(src_sents, np.int64)
    # columns that do not sum alike, so a replaced column would show
    table = rng.random((n_tgt, n_src))
    table /= table.sum(axis=0)
    return tgt_flat, src_flat, tgt_off, src_off, table


def assert_em_bit_identical(tgt_flat, src_flat, tgt_off, src_off, table,
                            iterations=10):
    links = kernels.model1_links(tgt_flat, src_flat, tgt_off, src_off,
                                 table.shape[1])
    expected = table
    for _ in range(iterations):
        table = kernels.model1_em_step(links, table)
        expected = model1_em_step_per_pair(tgt_flat, src_flat, tgt_off,
                                           src_off, expected)
        assert np.array_equal(table, expected)
    return table


def test_model1_em_bit_identical_to_per_pair_step():
    rng = np.random.default_rng(23)
    args = edge_corpus(rng)
    tgt_flat, _, tgt_off, _, table = args
    assert any(len(set(tgt_flat[lo:hi].tolist())) < hi - lo
               for lo, hi in zip(tgt_off[:-1], tgt_off[1:]))
    final = assert_em_bit_identical(*args)
    # source ids in no sentence have zero counts and keep their column
    assert np.array_equal(final[:, -3:], table[:, -3:])


def test_model1_em_bit_identical_across_blocks(monkeypatch):
    rng = np.random.default_rng(29)
    args = edge_corpus(rng)
    tgt_off, src_off = args[2], args[3]
    n_links = int((np.diff(tgt_off) * np.diff(src_off)).sum())
    monkeypatch.setattr(kernels, "BLOCK_LINKS", 1000)
    assert n_links > 50 * kernels.BLOCK_LINKS
    assert_em_bit_identical(*args, iterations=3)
    # a block boundary inside every pair's run of links
    monkeypatch.setattr(kernels, "BLOCK_LINKS", 5)
    assert_em_bit_identical(*args, iterations=2)


def test_model1_em_step_rejects_a_table_of_other_width():
    tgt_flat, src_flat, tgt_off, src_off, table = random_corpus(
        np.random.default_rng(31))
    links = kernels.model1_links(tgt_flat, src_flat, tgt_off, src_off,
                                 table.shape[1])
    with pytest.raises(ValueError, match="laid out for 20"):
        kernels.model1_em_step(links, table[:, :-1])
