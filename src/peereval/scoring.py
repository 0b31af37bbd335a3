"""Segment and system scores from token log-probabilities.

Five aggregation statistics over a segment's token log-probs (sum, mean,
median, min, negated population std-dev), K-sample regularized averaging,
confidence-threshold scoring into {-1, 0, +1}, and the grid search that
tunes the threshold band on development data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .data import TokenScoredSegment, scores_by_pair
from .errors import ConfigError, DomainError, StructureError


class Aggregation(str, Enum):
    SUM = "sum"
    MEAN = "mean"
    MEDIAN = "median"
    MIN = "min"
    NEG_STD = "negstd"


@dataclass(frozen=True)
class SegmentScore:
    seg_id: int
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"segment {self.seg_id}: non-finite score")


@dataclass(frozen=True)
class SystemScore:
    system_name: str
    lang_pair: str
    value: float
    method: str
    n_segments: int

    def __post_init__(self):
        if self.n_segments < 1:
            raise DomainError("system score over zero segments")
        if not math.isfinite(self.value):
            raise DomainError(f"{self.system_name}: non-finite system score")


def _csr(segments: Sequence[TokenScoredSegment]):
    return kernels.to_csr([seg.logprobs for seg in segments], np.float64)


def aggregate_segments(segments: Sequence[TokenScoredSegment],
                       method: Aggregation) -> list:
    """Batch aggregation of many segments (single kernel pass); only the
    median runs ``kernels.segment_medians``."""
    if not segments:
        return []
    method = Aggregation(method)
    if method is Aggregation.MEDIAN:
        chosen = kernels.segment_medians(*_csr(segments))
    else:
        sums, means, mins, stds = kernels.segment_stats(*_csr(segments))
        chosen = {
            Aggregation.SUM: sums,
            Aggregation.MEAN: means,
            Aggregation.MIN: mins,
            Aggregation.NEG_STD: -stds,
        }[method]
    return [SegmentScore(seg.seg_id, float(v))
            for seg, v in zip(segments, chosen)]


def mean_token_logprobs(segments: Sequence[TokenScoredSegment]) -> np.ndarray:
    """Per-segment mean token log-prob, ordered like ``segments``."""
    if not segments:
        return np.empty(0)
    return kernels.segment_stats(*_csr(segments))[1]


def threshold_value(mean_logprob, low: float, high: float):
    """Map mean token log-probs to {-1, 0, +1}; boundary values map to 0.

    ``mean_logprob`` is a scalar or an array; the result is an integer of
    the same shape. Raises ConfigError unless ``low < high``.
    """
    if not low < high:
        raise ConfigError(f"thresholds need low < high, got ({low}, {high})")
    m = np.asarray(mean_logprob)
    return (m > high).astype(np.int64) - (m < low)


def regularize(samples: Sequence[TokenScoredSegment], mode: str,
               length_normalize: bool = False):
    """Average K scored samples of the same segment.

    ``mode="token"`` requires identical tokenizations across samples and
    returns a smoothed TokenScoredSegment of per-token means. ``mode="segment"``
    permits differing tokenizations and returns a SegmentScore whose value is
    the mean of the samples' segment log-probs; with ``length_normalize`` the
    value is divided by the mean sample length.
    """
    if not samples:
        raise DomainError("no samples to regularize")
    seg_id = samples[0].seg_id
    if any(s.seg_id != seg_id for s in samples):
        raise StructureError("samples mix different seg_ids")
    if mode == "token":
        tokens = samples[0].tokens
        if any(s.tokens != tokens for s in samples):
            raise StructureError(
                f"segment {seg_id}: tokenizations differ across samples; "
                "use segment mode"
            )
        stacked = np.array([s.logprobs for s in samples])
        return TokenScoredSegment(seg_id, tokens, stacked.mean(axis=0).tolist())
    if mode == "segment":
        sums = np.array([sum(s.logprobs) for s in samples])
        value = float(sums.mean())
        if length_normalize:
            value /= float(np.mean([len(s) for s in samples]))
        return SegmentScore(seg_id, value)
    raise ConfigError(f"unknown regularization mode {mode!r}")


def system_score(segment_scores: Sequence[SegmentScore], system_name: str,
                 lang_pair: str, method: str) -> SystemScore:
    """System score = arithmetic mean over segment scores."""
    if not segment_scores:
        raise DomainError(f"{system_name}: no segment scores")
    value = float(np.mean([s.value for s in segment_scores]))
    return SystemScore(system_name, lang_pair, value, method,
                       len(segment_scores))


DEFAULT_THRESHOLD_GRID = tuple(np.linspace(-3.0, 0.0, 16))


def tune_thresholds(datasets, grid: Optional[Sequence[float]] = None):
    """Grid-search the threshold band maximizing dev-set correlation.

    Every (low, high) pair with low < high from the grid, which must be
    strictly ascending, scores each dataset's systems by the mean of their
    thresholded segment means. ``metaeval.correlate_pair`` correlates those
    with the human scores, and ``metaeval.average_correlations`` averages
    the pairs: the number ``meta-eval`` reports. So a dataset that is
    degenerate on a candidate or has fewer than 4 kept systems does not
    count. Ties prefer smaller high, then larger low. Returns (low, high).
    """
    from .metaeval import average_correlations, correlate_pair

    if grid is None:
        grid = DEFAULT_THRESHOLD_GRID
    grid = [float(g) for g in grid]
    if len(grid) < 2:
        raise ConfigError("grid needs at least 2 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("grid must be strictly ascending")

    # mean token log-probs never change across candidates
    dev_sets = []
    for ds in datasets:
        lp = str(ds.lang_pair)
        means = {}
        for out in ds.systems:
            if out.token_scores is None:
                raise ConfigError(f"{out.system_name}: no token scores loaded")
            means[out.system_name] = mean_token_logprobs(out.token_scores)
        human = scores_by_pair(ds.human.system_scores).get(lp, {})
        dev_sets.append((lp, human, means))

    best = None
    for j, high in enumerate(grid):
        for low in grid[:j]:
            results = [correlate_pair(
                human, {s: threshold_value(m, low, high).mean()
                        for s, m in means.items()}, lp)
                       for lp, human, means in dev_sets]
            score = average_correlations(results)
            if score is None:
                continue
            # maximize score; tie-break: smaller high, then larger low
            key = (score, -high, low)
            if best is None or key > best[0]:
                best = (key, (low, high))
    if best is None:
        raise ConfigError("no valid (low, high) pair on the grid: every dev "
                          "set is degenerate or has fewer than 4 systems")
    return best[1]
