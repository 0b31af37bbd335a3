"""Segment and system scores from token log-probabilities.

Five aggregation statistics over a segment's token log-probs (sum, mean,
median, min, negated population std-dev), K-sample regularized averaging,
confidence-threshold scoring into {-1, 0, +1}, and the grid search that
tunes the threshold band on development data.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .data import TokenScoredSegment, build_records, scores_by_pair
from .errors import ConfigError, DomainError, StructureError


class Aggregation(str, Enum):
    SUM = "sum"
    MEAN = "mean"
    MEDIAN = "median"
    MIN = "min"
    NEG_STD = "negstd"


class SegmentScore(namedtuple("SegmentScore", "seg_id value")):
    __slots__ = ()

    def __new__(cls, seg_id: int, value: float):
        if not math.isfinite(value):
            raise DomainError(f"segment {seg_id}: non-finite score")
        return super().__new__(cls, seg_id, value)


class SystemScore(namedtuple("SystemScore",
                             "system_name lang_pair value method n_segments")):
    __slots__ = ()

    def __new__(cls, system_name: str, lang_pair: str, value: float,
                method: str, n_segments: int):
        if n_segments < 1:
            raise DomainError("system score over zero segments")
        if not math.isfinite(value):
            raise DomainError(f"{system_name}: non-finite system score")
        return super().__new__(cls, system_name, lang_pair, value, method,
                               n_segments)


def _csr(segments: Sequence[TokenScoredSegment]):
    return kernels.to_csr([seg.logprobs for seg in segments], np.float64)


def aggregate_segments(segments: Sequence[TokenScoredSegment],
                       method: Aggregation) -> list:
    """One SegmentScore per segment: ``method`` over its log-probs, from a
    single ``kernels.segment_stats`` pass that computes only that
    statistic. A non-finite score (the std of log-probs past the float
    range) is a DomainError naming its segment."""
    if not segments:
        return []
    chosen = kernels.segment_stats(*_csr(segments), Aggregation(method))
    return build_records(
        SegmentScore,
        [(seg.seg_id, v) for seg, v in zip(segments, chosen.tolist())],
        bool(np.isfinite(chosen).all()))


def mean_token_logprobs(segments: Sequence[TokenScoredSegment]) -> np.ndarray:
    """Per-segment mean token log-prob, ordered like ``segments``."""
    if not segments:
        return np.empty(0)
    return kernels.segment_stats(*_csr(segments), Aggregation.MEAN)


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
        with np.errstate(over="ignore"):   # an inf mean is the record's error
            means = stacked.mean(axis=0)
        return TokenScoredSegment(seg_id, tokens, means.tolist())
    if mode == "segment":
        sums = np.array([sum(s.logprobs) for s in samples])
        with np.errstate(over="ignore"):   # an inf mean is the record's error
            value = float(sums.mean())
        if length_normalize:
            value /= float(np.mean([len(s.tokens) for s in samples]))
        return SegmentScore(seg_id, value)
    raise ConfigError(f"unknown regularization mode {mode!r}")


def system_score(segment_scores: Sequence[SegmentScore], system_name: str,
                 lang_pair: str, method: str) -> SystemScore:
    """System score = arithmetic mean over segment scores."""
    if not segment_scores:
        raise DomainError(f"{system_name}: no segment scores")
    with np.errstate(over="ignore"):   # an inf mean is the record's error
        value = float(np.mean([s.value for s in segment_scores]))
    return SystemScore(system_name, lang_pair, value, method,
                       len(segment_scores))


DEFAULT_THRESHOLD_GRID = tuple(np.linspace(-3.0, 0.0, 16))


def check_grid(grid: Sequence[float]) -> list:
    """``grid`` as floats: >= 2 finite points, ascending in finite steps."""
    grid = [float(g) for g in grid]
    if len(grid) < 2:
        raise ConfigError("grid needs at least 2 points")
    for g in grid:   # NaN would pass the ascending check
        if not math.isfinite(g):
            raise ConfigError(f"grid point {g} is not finite")
    if not all(0.0 < b - a < math.inf for a, b in zip(grid, grid[1:])):
        raise ConfigError("grid must be strictly ascending in finite steps")
    return grid


def _thresholded_shares(means: Sequence[np.ndarray]):
    """A function of (low, high) giving, for each array of segment means,
    the mean of its ``threshold_value``s: NaN for an empty array.

    The means are laid out once, as one flat array, so a band is one
    ``threshold_value`` call and one ``np.add.reduceat``. The thresholded
    values are -1, 0 and +1, so each sum is exact and each share is
    bit-identical to the mean of its own thresholded array.
    """
    counts = np.array([len(m) for m in means])
    flat = np.concatenate(means)
    # reduceat sums from each start to the next one; the start of an empty
    # array would take the element found there, so only the others get one
    nonempty = counts > 0
    starts = (np.cumsum(counts) - counts)[nonempty]

    def shares(low: float, high: float) -> list:
        sums = np.zeros(len(counts), dtype=np.int64)
        sums[nonempty] = np.add.reduceat(threshold_value(flat, low, high),
                                         starts)
        with np.errstate(invalid="ignore"):   # 0 / 0 is NaN
            return (sums / counts).tolist()
    return shares


def tune_thresholds(datasets, grid: Optional[Sequence[float]] = None):
    """Grid-search the threshold band maximizing dev-set correlation.

    Every (low, high) pair with low < high from the ``check_grid`` grid
    scores each dataset's systems by the mean of their thresholded segment
    means (``_thresholded_shares``). ``metaeval.correlate_pair`` correlates
    those with the human scores over ``metaeval.scored_systems``, and
    ``average_correlations`` averages the pairs: the number ``meta-eval``
    reports. So a dataset that is degenerate on a candidate or has fewer
    than 4 kept systems does not count, and a counted system without
    segments is the error ``correlate_pair`` gives for its NaN score. Ties
    prefer smaller high, then larger low. Returns (low, high).
    """
    from .metaeval import average_correlations, correlate_pair

    grid = check_grid(DEFAULT_THRESHOLD_GRID if grid is None else grid)

    # mean token log-probs never change across candidates
    dev_sets = []
    for ds in datasets:
        lp = str(ds.lang_pair)
        means = []
        for out in ds.systems:
            if out.token_scores is None:
                raise ConfigError(f"{out.system_name}: no token scores loaded")
            means.append(mean_token_logprobs(out.token_scores))
        human = scores_by_pair(ds.human.system_scores).get(lp, {})
        dev_sets.append((lp, human, [out.system_name for out in ds.systems],
                         _thresholded_shares(means)))

    best = None
    for j, high in enumerate(grid):
        for low in grid[:j]:
            results = [correlate_pair(
                human, dict(zip(names, shares(low, high))), lp)
                       for lp, human, names, shares in dev_sets]
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
