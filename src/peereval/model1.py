"""IBM Model 1 lexical scorer.

A self-contained statistical scorer producing genuine token-level
log-probabilities p(y_t|x) so the scoring and meta-evaluation pipeline can
run end to end without a neural model. Training is classic Model 1 EM with
a NULL source token; the corpus log-likelihood is nondecreasing across
iterations.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .data import TokenScoredSegment
from .errors import DomainError, ParseError

logger = logging.getLogger(__name__)

NULL_TOKEN = "<NULL>"

# Probability floor for target tokens the table has never seen; keeps the
# min/mean statistics finite on noisy hypotheses.
UNSEEN_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LexicalTable:
    """Dense translation table t(target | source), NULL source included."""

    source_index: dict
    target_index: dict
    probs: np.ndarray  # shape (n_targets, n_sources), columns sum to 1

    def __post_init__(self):
        if NULL_TOKEN not in self.source_index:
            raise DomainError(f"source vocabulary lacks {NULL_TOKEN}")
        if self.probs.shape != (len(self.target_index), len(self.source_index)):
            raise DomainError("probability table shape mismatch")
        if np.any(self.probs < 0) or np.any(self.probs > 1):
            raise DomainError("translation probabilities outside [0, 1]")
        sums = self.probs.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise DomainError("per-source probabilities do not sum to 1")


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


def train_model1(parallel: Sequence, iterations: int = 10,
                 return_loglik: bool = False):
    """EM-train a lexical table on (source tokens, target tokens) pairs.

    Starts from a uniform table. With ``return_loglik`` also returns the
    per-iteration corpus log-likelihoods (each under the table entering
    that iteration).
    """
    if iterations < 1:
        raise DomainError(f"iterations must be >= 1, got {iterations}")
    source_index, target_index, src_sents, tgt_sents = _encode_corpus(parallel)
    src_flat, src_off = kernels.to_csr(src_sents, np.int64)
    tgt_flat, tgt_off = kernels.to_csr(tgt_sents, np.int64)
    n_tgt, n_src = len(target_index), len(source_index)
    table = np.full((n_tgt, n_src), 1.0 / n_tgt)
    logliks = []
    for _ in range(iterations):
        table, ll = kernels.model1_em_step(tgt_flat, src_flat, tgt_off,
                                           src_off, table)
        logliks.append(ll)
    result = LexicalTable(source_index, target_index, table)
    if return_loglik:
        return result, logliks
    return result


def score_tokens(table: LexicalTable, source_tokens: Sequence[str],
                 target_tokens: Sequence[str],
                 seg_id: int = 0) -> TokenScoredSegment:
    """Token log-probs of a target hypothesis given the source.

    logp_t = log( (1/(L+1)) * sum over s in source+NULL of t(y_t | s) ),
    floored at log(UNSEEN_PROB_FLOOR). One gather of the (known target,
    source) block of the table per segment; target tokens the table has
    never seen get zero mass.
    """
    if not target_tokens:
        raise DomainError(f"segment {seg_id}: empty target")
    sources = [NULL_TOKEN, *source_tokens]
    s_ids = [table.source_index[s] for s in sources
             if s in table.source_index]
    t_ids = np.array([table.target_index.get(tok, -1)
                      for tok in target_tokens], dtype=np.int64)
    known = t_ids >= 0
    mass = np.zeros(len(t_ids))
    # each row of the C-contiguous block gets the pairwise sum of a 1-D
    # per-token slice, so the log-probs do not depend on the gather
    mass[known] = table.probs[np.ix_(t_ids[known], s_ids)].sum(axis=1)
    denom = len(source_tokens) + 1
    logps = tuple(math.log(max(m / denom, UNSEEN_PROB_FLOOR))
                  for m in mass.tolist())
    return TokenScoredSegment(seg_id, tuple(target_tokens), logps)


def score_corpus(table: LexicalTable, pairs: Sequence) -> list:
    """Score (source tokens, target tokens) pairs; seg_ids are positions."""
    return [score_tokens(table, src, tgt, seg_id=i)
            for i, (src, tgt) in enumerate(pairs)]


# ---------------------------------------------------------------------------
# Model files: TSV target<TAB>source<TAB>prob
# ---------------------------------------------------------------------------

def save_lexical_table(table: LexicalTable, path,
                       min_prob: float = 1e-9) -> None:
    """Write nonzero entries; probabilities below min_prob are dropped."""
    inv_src = {i: s for s, i in table.source_index.items()}
    inv_tgt = {i: t for t, i in table.target_index.items()}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        rows, cols = np.nonzero(table.probs >= min_prob)
        entries = sorted(
            (inv_tgt[r], inv_src[c], table.probs[r, c])
            for r, c in zip(rows.tolist(), cols.tolist())
        )
        for tgt, src, prob in entries:
            fh.write(f"{tgt}\t{src}\t{float(prob)!r}\n")


def load_lexical_table(path) -> LexicalTable:
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.rstrip("\n")
            if not raw:
                continue
            fields = raw.split("\t")
            if len(fields) != 3:
                raise ParseError("expected target<TAB>source<TAB>prob", path,
                                 lineno)
            try:
                entries.append((fields[0], fields[1], float(fields[2])))
            except ValueError as exc:
                raise ParseError(f"bad probability {fields[2]!r}", path,
                                 lineno) from exc
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
    sums[sums == 0.0] = 1.0
    probs /= sums
    return LexicalTable(source_index, target_index, probs)
