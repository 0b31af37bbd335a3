"""IBM Model 1 lexical scorer.

A self-contained statistical scorer producing genuine token-level
log-probabilities p(y_t|x) so the scoring and meta-evaluation pipeline can
run end to end without a neural model. Training is classic Model 1 EM with
a NULL source token. EM never lowers the corpus log-likelihood: the tests
check that property, and training does not compute the log-likelihood.
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .data import (
    TokenScoredSegment,
    build_records,
    logprob_array_ok,
    read_lines,
    tsv_line,
    write_lines,
)
from .errors import DomainError, ParseError

logger = logging.getLogger(__name__)

NULL_TOKEN = "<NULL>"

# Probability floor for target tokens the table has never seen; keeps the
# min/mean statistics finite on noisy hypotheses.
UNSEEN_PROB_FLOOR = 1e-12

# Probabilities below this are left out of a saved table, which keeps model
# files small; the loader renormalizes each source's remaining mass.
SAVE_MIN_PROB = 1e-9


class LexicalTable(namedtuple("LexicalTable",
                              "source_index target_index probs")):
    """Dense translation table t(target | source), NULL source included;
    ``probs`` has shape (n_targets, n_sources), and its columns sum to 1."""

    __slots__ = ()

    def __new__(cls, source_index: dict, target_index: dict,
                probs: np.ndarray):
        if NULL_TOKEN not in source_index:
            raise DomainError(f"source vocabulary lacks {NULL_TOKEN}")
        if probs.shape != (len(target_index), len(source_index)):
            raise DomainError("probability table shape mismatch")
        if not np.all(np.isfinite(probs)):
            raise DomainError("non-finite translation probabilities")
        if np.any(probs < 0) or np.any(probs > 1):
            raise DomainError("translation probabilities outside [0, 1]")
        sums = probs.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise DomainError("per-source probabilities do not sum to 1")
        return super().__new__(cls, source_index, target_index, probs)


def _encode_corpus(parallel):
    source_index = {NULL_TOKEN: 0}
    target_index = {}
    src_sents, tgt_sents = [], []
    skipped = 0
    for src_tokens, tgt_tokens in parallel:
        if not src_tokens or not tgt_tokens:
            skipped += 1
            continue
        s_ids = [0]  # NULL participates in every alignment
        for tok in src_tokens:
            s_ids.append(source_index.setdefault(tok, len(source_index)))
        t_ids = [target_index.setdefault(tok, len(target_index))
                 for tok in tgt_tokens]
        src_sents.append(s_ids)
        tgt_sents.append(t_ids)
    if skipped:
        logger.warning("skipped %d empty sentence pair(s)", skipped)
    if not src_sents:
        raise DomainError("no usable sentence pairs in corpus")
    return source_index, target_index, src_sents, tgt_sents


def train_model1(parallel: Sequence, iterations: int = 10) -> LexicalTable:
    """EM-train a lexical table on (source tokens, target tokens) pairs,
    starting from a uniform table."""
    if iterations < 1:
        raise DomainError(f"iterations must be >= 1, got {iterations}")
    source_index, target_index, src_sents, tgt_sents = _encode_corpus(parallel)
    src_flat, src_off = kernels.to_csr(src_sents, np.int64)
    tgt_flat, tgt_off = kernels.to_csr(tgt_sents, np.int64)
    n_tgt, n_src = len(target_index), len(source_index)
    links = kernels.model1_links(tgt_flat, src_flat, tgt_off, src_off, n_src)
    table = np.full((n_tgt, n_src), 1.0 / n_tgt)
    for _ in range(iterations):
        table = kernels.model1_em_step(links, table)
    return LexicalTable(source_index, target_index, table)


def score_csr(table: LexicalTable, pairs: Sequence, seg_ids: Sequence):
    """Token log-probs of (source tokens, target tokens) pairs, in CSR layout.

    Returns ``(values, offsets)``: the log-probs of pair i are
    ``values[offsets[i]:offsets[i + 1]]``. ``seg_ids`` name the pairs in
    errors: an empty target is a DomainError.

    logp_t = log( (1/(L+1)) * sum over s in source+NULL of t(y_t | s) ),
    floored at log(UNSEEN_PROB_FLOOR), where L counts every source token
    and the sum runs over those in the table. Target tokens the table has
    never seen get zero mass. The table rows of all known target tokens are
    gathered by ``kernels.model1_mass``, one block per source length, so
    each mass is the same pairwise sum as a per-token 1-D slice's.
    """
    src_index, tgt_get = table.source_index, table.target_index.get
    null = [src_index[NULL_TOKEN]]
    src_sents, tgt_sents, denoms = [], [], []
    for seg_id, (source_tokens, target_tokens) in zip(seg_ids, pairs,
                                                      strict=True):
        if not target_tokens:
            raise DomainError(f"segment {seg_id}: empty target")
        src_sents.append(null + [src_index[s] for s in source_tokens
                                 if s in src_index])
        tgt_sents.append([tgt_get(tok, -1) for tok in target_tokens])
        denoms.append(len(source_tokens) + 1)
    src_flat, src_off = kernels.to_csr(src_sents, np.int64)
    t_ids, offsets = kernels.to_csr(tgt_sents, np.int64)
    tgt_len = np.diff(offsets)
    known = t_ids >= 0
    mass = np.zeros(len(t_ids))
    mass[known] = kernels.model1_mass(
        table.probs, t_ids[known], src_flat,
        np.repeat(src_off[:-1], tgt_len)[known],
        np.repeat(np.diff(src_off), tgt_len)[known])
    probs = np.maximum(mass / np.repeat(denoms, tgt_len), UNSEEN_PROB_FLOOR)
    # math.log, not np.log: the two differ in the last bit on some values
    values = np.fromiter(map(math.log, probs.tolist()), dtype=np.float64,
                         count=len(probs))
    return values, offsets


def score_corpus(table: LexicalTable, pairs: Sequence,
                 seg_ids: Optional[Sequence] = None) -> list:
    """``score_csr`` as one TokenScoredSegment per pair, named by
    ``seg_ids`` (default: positions)."""
    if seg_ids is None:
        seg_ids = range(len(pairs))
    values, offsets = score_csr(table, pairs, seg_ids)
    logps, bounds = tuple(values.tolist()), offsets.tolist()
    # score_csr gives each pair as many log-probs as target tokens, >= 1
    return build_records(
        TokenScoredSegment,
        [(seg_id, tuple(tgt), logps[lo:hi]) for seg_id, (_, tgt), lo, hi
         in zip(seg_ids, pairs, bounds[:-1], bounds[1:])],
        logprob_array_ok(values))


# ---------------------------------------------------------------------------
# Model files: TSV target<TAB>source<TAB>prob
# ---------------------------------------------------------------------------

def save_lexical_table(table: LexicalTable, path) -> None:
    """Write the entries of at least SAVE_MIN_PROB. A written token that
    holds a tab or a line break is a DomainError, and no file is written."""
    inv_src = {i: s for s, i in table.source_index.items()}
    inv_tgt = {i: t for t, i in table.target_index.items()}
    rows, cols = np.nonzero(table.probs >= SAVE_MIN_PROB)
    entries = sorted(
        (inv_tgt[r], inv_src[c], table.probs[r, c])
        for r, c in zip(rows.tolist(), cols.tolist())
    )
    write_lines(path, (tsv_line((tgt, src, repr(float(prob))), "token")
                       for tgt, src, prob in entries))


def load_lexical_table(path) -> LexicalTable:
    entries = []
    for lineno, raw in read_lines(path):
        if not raw:
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            raise ParseError("expected target<TAB>source<TAB>prob", path,
                             lineno)
        try:
            prob = float(fields[2])
        except ValueError as exc:
            raise ParseError(f"bad probability {fields[2]!r}", path,
                             lineno) from exc
        # also false for nan
        if not 0.0 <= prob <= 1.0:
            raise ParseError(f"probability {fields[2]!r} outside [0, 1]",
                             path, lineno)
        entries.append((fields[0], fields[1], prob))
    if not entries:
        raise ParseError("empty lexical table", path)
    source_index, target_index = {NULL_TOKEN: 0}, {}
    for tgt, src, _ in entries:
        source_index.setdefault(src, len(source_index))
        target_index.setdefault(tgt, len(target_index))
    probs = np.zeros((len(target_index), len(source_index)))
    for tgt, src, prob in entries:
        probs[target_index[tgt], source_index[src]] = prob
    # renormalize: dropped sub-threshold mass must not break column sums
    sums = probs.sum(axis=0)
    for src, col in source_index.items():
        if sums[col] == 0.0:
            raise ParseError(f"no probability mass for source {src!r}", path)
    probs /= sums
    return LexicalTable(source_index, target_index, probs)
