"""Hot numeric kernels, in numpy.

Two loop families dominate runtime at corpus scale: per-segment statistics
over flattened log-probability arrays (CSR layout: one values array plus an
offsets array of length n_segments + 1) and the expectation step of the
lexical-table EM trainer. Each has one numpy implementation.

``segment_stats`` has no per-segment loop: sum, mean, min and std are
``reduceat`` passes, and the median is taken per distinct segment length
over a (segments, length) block, one ``np.median`` call per length.
``model1_em_step`` is still a loop over sentence pairs: a blocked
``bincount`` version is bit-identical but saves about 0.1 s per benchmark
pass for about 25 lines of index arithmetic and more peak memory.

Layout conventions:
  values  : float64[n_tokens], concatenated per-segment log-probs
  offsets : int64[n_segments + 1], segment i spans values[offsets[i]:offsets[i+1]]
Segments must be nonempty (offsets strictly increasing).
"""

import itertools

import numpy as np


def to_csr(sequences, dtype):
    """Flatten a list of sequences into ``(values, offsets)`` in CSR layout."""
    offsets = np.zeros(len(sequences) + 1, dtype=np.int64)
    np.cumsum([len(seq) for seq in sequences], out=offsets[1:])
    values = np.fromiter(itertools.chain.from_iterable(sequences), dtype=dtype,
                         count=offsets[-1])
    return values, offsets


def segment_stats(values, offsets):
    """Per-segment (sum, mean, median, min, population std) over a CSR layout.

    Returns five float64 arrays of length n_segments. Standard deviation uses
    divisor T (population convention).
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.shape[0] < 2:
        raise ValueError("offsets must have length n_segments + 1")
    counts = np.diff(offsets)
    if np.any(counts < 1):
        raise ValueError("empty segment in offsets")
    starts = offsets[:-1]
    sums = np.add.reduceat(values, starts)
    means = sums / counts
    mins = np.minimum.reduceat(values, starts)
    centered = values - np.repeat(means, counts)
    stds = np.sqrt(np.add.reduceat(centered * centered, starts) / counts)
    # one (k, L) block per distinct length L; row medians equal the 1-D ones
    medians = np.empty(len(counts))
    order = np.argsort(counts, kind="stable")
    bounds = np.flatnonzero(np.diff(counts[order])) + 1
    for group in np.split(order, bounds):
        block = values[starts[group][:, None] + np.arange(counts[group[0]])]
        medians[group] = np.median(block, axis=1)
    return sums, means, medians, mins, stds


def model1_em_step(tgt_flat, src_flat, tgt_off, src_off, table):
    """One EM sweep over an integer-encoded parallel corpus.

    ``table[y, s]`` holds the current translation probability of target id y
    given source id s; source sentences must already include the NULL id.
    Returns ``(new_table, loglik)`` where loglik is the corpus log-likelihood
    under the *input* table (uniform alignment over the listed source ids).
    """
    tgt_flat = np.ascontiguousarray(tgt_flat, dtype=np.int64)
    src_flat = np.ascontiguousarray(src_flat, dtype=np.int64)
    tgt_off = np.ascontiguousarray(tgt_off, dtype=np.int64)
    src_off = np.ascontiguousarray(src_off, dtype=np.int64)
    table = np.ascontiguousarray(table, dtype=np.float64)
    counts = np.zeros_like(table)
    loglik = 0.0
    for p in range(len(tgt_off) - 1):
        t_ids = tgt_flat[tgt_off[p]:tgt_off[p + 1]]
        s_ids = src_flat[src_off[p]:src_off[p + 1]]
        sub = table[np.ix_(t_ids, s_ids)]
        denom = sub.sum(axis=1)
        loglik += float(np.log(denom).sum()) - len(t_ids) * np.log(len(s_ids))
        # np.add.at accumulates correctly for repeated token ids
        np.add.at(counts, (t_ids[:, None], s_ids[None, :]), sub / denom[:, None])
    totals = counts.sum(axis=0)
    new_table = np.where(totals > 0.0, counts / np.where(totals > 0.0, totals, 1.0), table)
    return new_table, loglik
