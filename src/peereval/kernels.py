"""Hot numeric kernels, in numpy.

Two loop families dominate runtime at corpus scale: per-segment statistics
over flattened log-probability arrays (CSR layout: one values array plus an
offsets array of length n_segments + 1) and the lexical-table lookups of
Model 1, in EM training and in scoring. Each has one numpy implementation,
and none has a Python loop per segment or per sentence pair.

Several results must equal a per-segment 1-D ``.sum()`` bit for bit: the
Model-1 row masses (``table[y, source ids].sum()``), the per-pair EM
log-likelihood terms, and through them every trained table and log-prob.
numpy sums a contiguous run of n values with eight partial sums and
pairwise halving; a row of a C-contiguous ``(k, n)`` block is such a run
and sums the same way. So these sums are taken over gathered ``(k, n)``
blocks, one per distinct length n (``groups_by_length``): one per source
length S for the masses, one per target length T for the log-likelihood
terms. ``np.add.reduceat`` is not used for them: it adds in sequence, which
often differs from the pairwise sum in the last bit once n >= 8.
``segment_stats`` uses ``reduceat`` for its sums, which are compared at a
tolerance. The median, about 95 % of the cost of all five statistics, is a
kernel of its own, ``segment_medians``, so only a caller that reads the
median pays for it; it is taken per distinct length over a ``(k, L)`` block.

The EM counts are added with ``np.add.at``, which adds in index order: the
links (target token, source token) of the corpus are laid out pair-major
and row-major and processed in runs of about ``BLOCK_LINKS``, so each cell
gets the same float additions in the same order as a loop over the pairs.
``model1_links`` builds that layout once per training: each block's table
cells, and per distinct length the rows and starts of its tokens (of its
pairs, for the log-likelihood). Each ``model1_em_step`` then only gathers,
sums, divides and adds, in the same blocks and the same link order; it
rebuilds the ``(k, L)`` index blocks, which would cost more memory to keep
than time to rebuild.

Layout conventions:
  values  : float64[n_tokens], concatenated per-segment log-probs
  offsets : int64[n_segments + 1], segment i spans values[offsets[i]:offsets[i+1]]
Segments must be nonempty (offsets strictly increasing).
"""

import itertools
from collections import namedtuple

import numpy as np


def to_csr(sequences, dtype):
    """Flatten a list of sequences into ``(values, offsets)`` in CSR layout."""
    offsets = np.zeros(len(sequences) + 1, dtype=np.int64)
    np.cumsum([len(seq) for seq in sequences], out=offsets[1:])
    values = np.fromiter(itertools.chain.from_iterable(sequences), dtype=dtype,
                         count=offsets[-1])
    return values, offsets


def _segments(values, offsets):
    """``(values, starts, counts)`` of a checked CSR layout."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.shape[0] < 2:
        raise ValueError("offsets must have length n_segments + 1")
    counts = np.diff(offsets)
    if np.any(counts < 1):
        raise ValueError("empty segment in offsets")
    return values, offsets[:-1], counts


def segment_stats(values, offsets):
    """Per-segment (sum, mean, min, population std) over a CSR layout.

    Returns four float64 arrays of length n_segments. Standard deviation uses
    divisor T (population convention). The median is ``segment_medians``.
    """
    values, starts, counts = _segments(values, offsets)
    sums = np.add.reduceat(values, starts)
    means = sums / counts
    mins = np.minimum.reduceat(values, starts)
    centered = values - np.repeat(means, counts)
    stds = np.sqrt(np.add.reduceat(centered * centered, starts) / counts)
    return sums, means, mins, stds


def segment_medians(values, offsets):
    """Per-segment median over a CSR layout, equal bit for bit to
    ``np.median`` of each segment: one ``(k, L)`` block per distinct length
    L, whose row medians equal the 1-D ones."""
    values, starts, counts = _segments(values, offsets)
    medians = np.empty(len(counts))
    for group in groups_by_length(counts):
        block = values[starts[group][:, None] + np.arange(counts[group[0]])]
        medians[group] = np.median(block, axis=1)
    return medians


# (target token, source token) links per EM block: enough to amortize the
# numpy calls per block, few enough that the link arrays (128 KB each) stay
# in cache and add little to peak RSS. On the peer-corpus benchmark, 2**15
# raised peak RSS by 2.4 MB and 2**14 by 0.5 MB at the same speed; 2**13
# saved another 0.2 MB but made each EM step about 20 % slower.
BLOCK_LINKS = 1 << 14


class Model1Links(namedtuple("Model1Links",
                               "n_src span_len blocks tgt_groups pair_logs")):
    """The (target token, source token) links of a parallel corpus, laid
    out once for every EM step (``model1_links``).

    ``blocks`` holds one ``(lo, hi, cells, groups)`` per run of target
    tokens lo..hi-1: ``cells`` are the flat table cells of its links in
    pair-major, row-major order, and ``groups`` one ``(rows, starts,
    length)`` per distinct source length: the tokens' indices, the offsets
    of their links in ``cells``, and the length. ``tgt_groups`` holds one
    ``(pairs, starts, length)`` per distinct target length, and
    ``pair_logs`` each pair's T * log(S).
    """

    __slots__ = ()


def model1_links(tgt_flat, src_flat, tgt_off, src_off, n_src):
    """Lay out the links of an integer-encoded parallel corpus for a table
    of ``n_src`` columns; source sentences must already include the NULL
    id."""
    tgt_flat = np.ascontiguousarray(tgt_flat, dtype=np.int64)
    src_flat = np.ascontiguousarray(src_flat, dtype=np.int64)
    tgt_off = np.ascontiguousarray(tgt_off, dtype=np.int64)
    src_off = np.ascontiguousarray(src_off, dtype=np.int64)
    tgt_len, src_len = np.diff(tgt_off), np.diff(src_off)
    # per target token: the source span of its pair
    span_start = np.repeat(src_off[:-1], tgt_len)
    span_len = np.repeat(src_len, tgt_len)
    # runs of target tokens of about BLOCK_LINKS links each, in corpus order
    link_start = np.cumsum(span_len) - span_len
    cuts = (np.flatnonzero(np.diff(link_start // BLOCK_LINKS)) + 1).tolist()
    blocks = []
    for lo, hi in zip([0, *cuts], [*cuts, len(span_len)]):
        # the links of tokens lo..hi-1 in pair-major, row-major order; each
        # link array is built in place
        lens = span_len[lo:hi]
        starts = np.cumsum(lens) - lens
        cells = np.repeat(span_start[lo:hi] - starts, lens)
        cells += np.arange(len(cells))
        cells = src_flat[cells]
        cells += np.repeat(tgt_flat[lo:hi] * n_src, lens)
        groups = [(lo + group, starts[group], int(lens[group[0]]))
                  for group in groups_by_length(lens)]
        blocks.append((lo, hi, cells, groups))
    tgt_groups = [(group, tgt_off[group], int(tgt_len[group[0]]))
                  for group in groups_by_length(tgt_len)]
    return Model1Links(n_src, span_len, blocks, tgt_groups,
                       tgt_len * np.log(src_len))


def model1_em_step(links, table):
    """One EM sweep over the corpus laid out in ``links``.

    ``table[y, s]`` holds the current translation probability of target id y
    given source id s. Returns ``(new_table, loglik)`` where loglik is the
    corpus log-likelihood under the *input* table (uniform alignment over
    the listed source ids).
    """
    table = np.ascontiguousarray(table, dtype=np.float64)
    if table.shape[1] != links.n_src:
        raise ValueError(f"table has {table.shape[1]} columns, links were "
                         f"laid out for {links.n_src}")
    span_len = links.span_len
    flat = table.reshape(-1)
    counts = np.zeros_like(table)
    denom = np.empty(len(span_len))
    for lo, hi, cells, groups in links.blocks:
        probs = flat[cells]
        for rows, starts, n in groups:
            block = probs[starts[:, None] + np.arange(n)]
            denom[rows] = block.sum(axis=1)
        probs /= np.repeat(denom[lo:hi], span_len[lo:hi])
        # np.add.at adds in link order, repeated cells included
        np.add.at(counts.reshape(-1), cells, probs)
        del probs
    # per-pair sum of log denominators, one (pairs, T) block per length T
    log_denom = np.log(denom)
    pair_sums = np.empty(len(links.pair_logs))
    for pairs, starts, n in links.tgt_groups:
        block = log_denom[starts[:, None] + np.arange(n)]
        pair_sums[pairs] = block.sum(axis=1)
    # added in pair order, as a loop over the pairs would
    loglik = 0.0
    for term in (pair_sums - links.pair_logs).tolist():
        loglik += term
    totals = counts.sum(axis=0)
    new_table = np.where(totals > 0.0, counts / np.where(totals > 0.0, totals, 1.0), table)
    return new_table, loglik


def model1_mass(table, t_ids, src_flat, span_start, span_len):
    """Per target token i, the sum of ``table[t_ids[i], s]`` over the source
    ids ``src_flat[span_start[i]:span_start[i] + span_len[i]]``."""
    mass = np.empty(len(t_ids))
    for group in groups_by_length(span_len):
        span = np.arange(span_len[group[0]])
        cells = (t_ids[group][:, None] * table.shape[1]
                 + src_flat[span_start[group][:, None] + span])
        mass[group] = table.reshape(-1)[cells].sum(axis=1)
    return mass


def groups_by_length(lengths):
    """Indices into ``lengths`` grouped by equal value, each group ascending."""
    if not len(lengths):
        return []
    order = np.argsort(lengths, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1)
