"""The numpy kernels against plain per-segment and per-pair loops."""

import numpy as np
import pytest

from peereval import kernels


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


def test_segment_stats_against_loop_reference():
    rng = np.random.default_rng(7)
    values, offsets = random_csr(rng)
    expected = segment_stats_loop(values, offsets)
    for a, b in zip(kernels.segment_stats(values, offsets), expected):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_segment_stats_against_numpy_reference():
    rng = np.random.default_rng(11)
    values, offsets = random_csr(rng, n_segments=50)
    sums, means, medians, mins, stds = kernels.segment_stats(values, offsets)
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
    medians = kernels.segment_stats(values, offsets)[2]
    expected = [np.median(values[lo:hi])
                for lo, hi in zip(offsets[:-1], offsets[1:])]
    assert np.array_equal(medians, expected)


def test_segment_median_one_call_per_distinct_length(monkeypatch):
    calls = []
    median = np.median

    def counting_median(*args, **kwargs):
        calls.append(1)
        return median(*args, **kwargs)

    monkeypatch.setattr(np, "median", counting_median)
    rng = np.random.default_rng(17)
    values, offsets = random_csr(rng, n_segments=300, max_len=10)
    kernels.segment_stats(values, offsets)
    assert len(calls) == len(np.unique(np.diff(offsets)))


def test_segment_stats_rejects_empty_segment():
    values = np.array([-1.0])
    offsets = np.array([0, 1, 1], dtype=np.int64)
    with pytest.raises(ValueError):
        kernels.segment_stats(values, offsets)


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


def model1_em_step_loop(tgt_flat, src_flat, tgt_off, src_off, table):
    """Scalar loop over each (target token, source token) link of each pair."""
    counts = np.zeros_like(table)
    loglik = 0.0
    for p in range(tgt_off.shape[0] - 1):
        s_lo, s_hi = src_off[p], src_off[p + 1]
        for i in range(tgt_off[p], tgt_off[p + 1]):
            y = tgt_flat[i]
            denom = 0.0
            for j in range(s_lo, s_hi):
                denom += table[y, src_flat[j]]
            loglik += np.log(denom) - np.log(float(s_hi - s_lo))
            for j in range(s_lo, s_hi):
                s = src_flat[j]
                counts[y, s] += table[y, s] / denom
    new_table = table.copy()
    for s in range(table.shape[1]):
        total = counts[:, s].sum()
        if total > 0.0:
            new_table[:, s] = counts[:, s] / total
    return new_table, loglik


def test_model1_em_against_loop_reference():
    rng = np.random.default_rng(3)
    args = random_corpus(rng)
    # repeated ids within a sentence must each add their own count
    assert any(len(set(args[0][lo:hi])) < hi - lo
               for lo, hi in zip(args[2][:-1], args[2][1:]))
    table, ll = kernels.model1_em_step(*args)
    table_ref, ll_ref = model1_em_step_loop(*args)
    np.testing.assert_allclose(table, table_ref, rtol=1e-10, atol=1e-14)
    assert ll == pytest.approx(ll_ref, rel=1e-12)


def test_model1_em_columns_normalized():
    rng = np.random.default_rng(5)
    args = random_corpus(rng)
    table, _ = kernels.model1_em_step(*args)
    sums = table.sum(axis=0)
    np.testing.assert_allclose(sums, 1.0, rtol=1e-9)
