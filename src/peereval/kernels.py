"""Hot numeric kernels, in numpy.

Two loop families dominate runtime at corpus scale: per-segment statistics
over flattened log-probability arrays (CSR layout: one values array plus an
offsets array of length n_segments + 1) and the lexical-table lookups of
Model 1, in EM training and in scoring. Each has one numpy implementation,
and none has a Python loop per segment or per sentence pair.

Several results must equal a per-segment 1-D ``.sum()`` bit for bit: the
Model-1 row masses (``table[y, source ids].sum()``), the EM denominators,
and through them every trained table and log-prob. numpy sums a contiguous
run of n values with eight partial sums and pairwise halving; a row of a
C-contiguous ``(k, n)`` block is such a run and sums the same way. So these
sums are taken over gathered ``(k, n)`` blocks, one per distinct source
length n (``groups_by_length``). ``np.add.reduceat`` is not used for them:
it adds in sequence, which often differs from the pairwise sum in the last
bit once n >= 8. ``segment_stats`` uses ``reduceat`` for its sums, which
are compared at a tolerance. It computes only the statistic its caller
asks for: the median, about 95 % of the cost of all five, is taken per
distinct length over a ``(k, L)`` block, and only the std squares the
centred values.

The EM counts are added with ``np.add.at``, which adds in index order: the
links (target token, source token) of the corpus are laid out pair-major
and row-major and processed in runs of about ``BLOCK_LINKS``, so each cell
gets the same float additions in the same order as a loop over the pairs.
``model1_links`` builds that layout once per training: each block's table
cells, and per distinct source length the rows and starts of its tokens.
Each ``model1_em_step`` then only gathers, sums, divides and adds, in the
same blocks and the same link order; it rebuilds the ``(k, L)`` index
blocks, which would cost more memory to keep than time to rebuild.

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


def segment_stats(values, offsets, stat):
    """Per-segment ``stat`` over a CSR layout, a float64 array of length
    n_segments: "sum", "mean", "min", "median" (equal bit for bit to
    ``np.median`` of each segment) or "negstd" (the negated population
    std, divisor T)."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.shape[0] < 2:
        raise ValueError("offsets must have length n_segments + 1")
    counts = np.diff(offsets)
    if np.any(counts < 1):
        raise ValueError("empty segment in offsets")
    starts = offsets[:-1]
    if stat == "min":
        return np.minimum.reduceat(values, starts)
    if stat == "median":
        medians = np.empty(len(counts))
        for group in groups_by_length(counts):
            block = values[starts[group][:, None] + np.arange(counts[group[0]])]
            medians[group] = np.median(block, axis=1)
        return medians
    sums = np.add.reduceat(values, starts)
    if stat == "sum":
        return sums
    means = sums / counts
    if stat == "mean":
        return means
    if stat == "negstd":
        centered = values - np.repeat(means, counts)
        # a square past the float range is inf, for the caller to report
        with np.errstate(over="ignore"):
            return -np.sqrt(np.add.reduceat(centered * centered, starts)
                            / counts)
    raise ValueError(f"unknown segment statistic {stat!r}")


# (target token, source token) links per EM block: enough to amortize the
# numpy calls per block, few enough that the link arrays (128 KB each) stay
# in cache and add little to peak RSS. On the peer-corpus benchmark, 2**15
# raised peak RSS by 2.4 MB and 2**14 by 0.5 MB at the same speed; 2**13
# saved another 0.2 MB but made each EM step about 20 % slower.
BLOCK_LINKS = 1 << 14


class Model1Links(namedtuple("Model1Links", "n_src blocks")):
    """The (target token, source token) links of a parallel corpus, laid
    out once for every EM step (``model1_links``).

    ``blocks`` holds one ``(lens, cells, groups)`` per run of target
    tokens: ``lens`` are the tokens' source lengths, ``cells`` the flat
    table cells of their links in pair-major, row-major order, and
    ``groups`` one ``(rows, starts, length)`` per distinct source length:
    the tokens' indices in the run, the offsets of their links in
    ``cells``, and the length.
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
    tgt_len = np.diff(tgt_off)
    # per target token: the source span of its pair
    span_start = np.repeat(src_off[:-1], tgt_len)
    span_len = np.repeat(np.diff(src_off), tgt_len)
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
        groups = [(group, starts[group], int(lens[group[0]]))
                  for group in groups_by_length(lens)]
        blocks.append((lens, cells, groups))
    return Model1Links(n_src, blocks)


def model1_em_step(links, table):
    """One EM sweep over the corpus laid out in ``links``.

    ``table[y, s]`` holds the current translation probability of target id y
    given source id s (uniform alignment over the listed source ids).
    Returns the new table; a source id without counts keeps its column.
    """
    table = np.ascontiguousarray(table, dtype=np.float64)
    if table.shape[1] != links.n_src:
        raise ValueError(f"table has {table.shape[1]} columns, links were "
                         f"laid out for {links.n_src}")
    flat = table.reshape(-1)
    counts = np.zeros_like(table)
    for lens, cells, groups in links.blocks:
        probs = flat[cells]
        denom = np.empty(len(lens))
        for rows, starts, n in groups:
            block = probs[starts[:, None] + np.arange(n)]
            denom[rows] = block.sum(axis=1)
        probs /= np.repeat(denom, lens)
        # np.add.at adds in link order, repeated cells included
        np.add.at(counts.reshape(-1), cells, probs)
        del probs
    totals = counts.sum(axis=0)
    return np.where(totals > 0.0, counts / np.where(totals > 0.0, totals, 1.0), table)


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
