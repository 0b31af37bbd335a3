"""Meta-evaluation of metric scores against human judgments.

Median-absolute-deviation outlier filtering, Pearson correlation, Fisher
Z-transformed weighted averaging across language pairs, the Williams/Steiger
test for the difference of two correlations sharing the human variable,
pairwise system comparisons (rank-sum on human, paired t on metric), and
test-set-size subsampling curves.

The system-level half (the MAD filter, Pearson, the Fisher average and the
Williams test) runs on the standard library alone, so importing this module
loads no numpy. Only the segment-level functions import numpy, where they
run: the rank-sum and paired t tests behind ``pairwise_compare`` and the
draws of ``subsample_correlations``. The Student-t tail is the regularized
incomplete beta, evaluated as a modified-Lentz continued fraction
(``t_sf``); the normal tail is ``erfc`` (``norm_sf``); ranks are midranks
(``midranks``); and the exact rank-sum null is a subset-count DP over rank
sums (``ranksum_exact_p``).
"""

from __future__ import annotations

import itertools
import math
import operator
import statistics
import warnings
from collections import Counter, namedtuple
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .data import LanguagePair, scores_by_pair
from .errors import ConfigError, DomainError, InsufficientDataError

MAD_SCALE = 1.483  # normal-consistency constant for the MAD
MAD_CUTOFF = 2.5
GROUPS = ("all", "en-xx", "xx-en", "xx-yy")

# Correlations are clamped this close to +/-1 before the Fisher transform.
FISHER_CLAMP = 1.0 - 1e-15

# Minimum post-filter systems for a pair to enter weighted averages and for
# the correlation-difference test (which needs n - 3 > 0).
MIN_RELIABLE_SYSTEMS = 4

# The Williams test treats a correlation matrix whose determinant is at most
# this as singular: a few roundings of r near +/-1 leave a singular matrix
# (one metric an affine copy of the other) a determinant of about 2e-16.
SINGULAR_DET = 8 * 2.0 ** -52


def mad_outliers(human_scores: Mapping[str, float]) -> Tuple[set, set]:
    """Split systems into (kept, outliers) by scaled MAD distance from the
    median.

    A system is an outlier iff |h - median| / (1.483 * MAD) > 2.5. When the
    MAD is zero, any nonzero deviation counts as an outlier.
    """
    if not human_scores:
        raise DomainError("no human scores")
    med = statistics.median(map(float, human_scores.values()))
    deviations = {n: abs(float(h) - med) for n, h in human_scores.items()}
    scale = MAD_SCALE * statistics.median(deviations.values())
    outliers = {n for n, d in deviations.items()
                if (d / scale > MAD_CUTOFF if scale else d > 0.0)}
    return set(human_scores) - outliers, outliers


def _prefix(lang_pair: Optional[str]) -> str:
    return f"{lang_pair}: " if lang_pair else ""


def scored_systems(lang_pair: Optional[str], systems,
                   metric_scores: Mapping[str, object]) -> list:
    """The one rule for which systems count: ``systems``, taken from the
    human scores, sorted; as in WMT, a system with only metric scores is
    left out. No system, or one without a metric score, is an
    InsufficientDataError naming ``lang_pair``."""
    if not systems:
        raise InsufficientDataError(f"{_prefix(lang_pair)}no human scores")
    systems = sorted(systems)
    missing = [s for s in systems if s not in metric_scores]
    if missing:
        raise InsufficientDataError(
            f"{_prefix(lang_pair)}no metric score for " + ", ".join(missing))
    return systems


def kept_systems(lang_pair: Optional[str], human_scores: Mapping[str, float],
                 metric_scores: Mapping[str, object]) -> Tuple[list, set]:
    """The ``scored_systems`` among those the MAD filter keeps (one at
    least, unless there are no human scores), and the outliers it drops."""
    kept, outliers = mad_outliers(human_scores) if human_scores else ((), ())
    return scored_systems(lang_pair, kept, metric_scores), outliers


def _floats(v) -> list:
    """``v`` as a list of floats; a DomainError unless it is a vector."""
    try:
        if getattr(v, "ndim", 1) == 1:
            return [float(e) for e in v]
    except TypeError:   # a scalar, or a vector of vectors
        pass
    raise DomainError("pearson needs two equal-length vectors")


def _integers(values: list) -> list:
    """Finite floats as integers, all scaled by one power of two: each float
    is a / 2**k, so scaling by the largest 2**k is exact. inf raises
    OverflowError and NaN ValueError."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max([d for _, d in ratios])
    return [a * (scale // d) for a, d in ratios]


def _over_sqrt(num: int, den: int) -> float:
    """num / sqrt(den), for integers with den > 0 and num**2 <= den,
    correctly rounded."""
    if not num:
        return 0.0
    square = num * num
    # t = floor(|num| / sqrt(den) * 2**p), exact in integers, has at least
    # 64 bits, ...
    p = 64 + max(0, (den.bit_length() - square.bit_length()) // 2 + 1)
    q, rem = divmod(square << 2 * p, den)
    t = math.isqrt(q)
    if rem or t * t != q:
        # ... and when the root is inexact a sticky bit below t's last bit
        # makes the one rounding of t / 2**p round as the root would
        t, p = 2 * t + 1, p + 1
    r = t / (1 << p)
    return r if num > 0 else -r


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation; raises on non-finite input and on zero
    variance.

    Standard library only, and exact: each input becomes integers by one
    power-of-two scaling (``_integers``, so r does not depend on the scale
    of the input, and values near the float64 range limits neither overflow
    nor underflow); n**2 times the centred sums of squares and of products
    are integer sums, and r is their ratio, rounded once (``_over_sqrt``).
    So r is the correctly rounded correlation of the input, the same on
    every machine and for a list, a tuple or a numpy array.
    """
    x, y = _floats(x), _floats(y)
    if len(x) != len(y):
        raise DomainError("pearson needs two equal-length vectors")
    n = len(x)
    if n < 2:
        raise DomainError(f"pearson needs n >= 2, got {n}")
    try:
        x, y = _integers(x), _integers(y)
    except (OverflowError, ValueError):   # inf, NaN
        raise DomainError("pearson needs finite input") from None
    sum_x, sum_y = sum(x), sum(y)
    sxx = n * sum(map(operator.mul, x, x)) - sum_x * sum_x
    syy = n * sum(map(operator.mul, y, y)) - sum_y * sum_y
    if not sxx or not syy:
        raise DomainError("undefined correlation: zero variance input")
    sxy = n * sum(map(operator.mul, x, y)) - sum_x * sum_y
    return _over_sqrt(sxy, sxx * syy)


def fisher_weighted_average(results: Sequence[Tuple[float, float]]) -> float:
    """tanh of the weighted mean of atanh-transformed correlations.

    ``results`` holds (r, weight) pairs with positive weights; |r| = 1 is
    clamped just inside the open interval with a warning.
    """
    if not results:
        raise DomainError("no correlations to average")
    num = 0.0
    den = 0.0
    for r, w in results:
        if w <= 0:
            raise DomainError(f"non-positive weight {w}")
        if abs(r) > 1.0:
            raise DomainError(f"correlation {r} outside [-1, 1]")
        if abs(r) >= FISHER_CLAMP:
            warnings.warn(f"correlation {r} clamped before Fisher transform")
            r = math.copysign(FISHER_CLAMP, r)
        num += w * math.atanh(r)
        den += w
    return math.tanh(num / den)


def average_correlations(results: Sequence[CorrelationResult]
                         ) -> Optional[float]:
    """Fisher average, weighted by system count, of per-pair results.

    This is the one rule for which language pairs enter an average: a pair
    is left out when its r is None (degenerate: constant scores) or when it
    is not ``reliable``. Returns None when no pair is left.
    """
    usable = [(res.r, res.n_systems) for res in results
              if res.r is not None and res.reliable]
    return fisher_weighted_average(usable) if usable else None


def group_members(lang_pairs: Sequence[str]) -> Dict[str, list]:
    """{group: its language pairs} for every group in GROUPS, in input
    order; "all" holds every pair and a group may be empty."""
    members = {group: [] for group in GROUPS}
    for lp in lang_pairs:
        members["all"].append(lp)
        members[LanguagePair.parse(lp).group].append(lp)
    return members


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

# The continued fraction stops when a step changes it by less than this
# relative amount; it needs about sqrt(max(a, b)) steps to get there.
_BETACF_EPS = 1e-15
_BETACF_MAX_STEPS = 100_000
# Lentz's guard against a zero denominator.
_BETACF_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function B_x(a, b),
    evaluated by the modified Lentz method (Numerical Recipes ``betacf``).
    It converges fast for x < (a + 1) / (a + b + 2)."""
    def guard(v):
        return v if abs(v) >= _BETACF_TINY else _BETACF_TINY

    c = 1.0
    d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _BETACF_MAX_STEPS + 1):
        m2 = 2 * m
        # even step, then odd step of the fraction
        aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2))
        d = 1.0 / guard(1.0 + aa * d)
        c = guard(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))
        d = 1.0 / guard(1.0 + aa * d)
        c = guard(1.0 + aa / c)
        step = d * c
        h *= step
        if abs(step - 1.0) < _BETACF_EPS:
            return h
    raise DomainError(f"incomplete beta did not converge at a={a}, b={b}, "
                      f"x={x}")


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), given x and y = 1 - x each
    computed without cancellation, from the continued fraction on whichever
    side converges fast."""
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _betacf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _betacf(b, a, y) / b


def t_sf(t: float, df: float) -> float:
    """One-sided Student-t survival function P(T > t) with ``df`` degrees
    of freedom.

    For t >= 0 it is I_x(df/2, 1/2) / 2 with x = df / (df + t^2), the
    regularized incomplete beta from the Lentz continued fraction
    (``_betacf``) and ``math.lgamma``; t < 0 uses 1 - P(T > |t|). +inf
    gives 0, -inf gives 1, NaN gives NaN. Against 50-digit mpmath it is
    within about 3e-12 relative up to df 500; the lgamma differences lose
    more digits as df grows (about 2e-10 at df 1e5).
    """
    if math.isnan(t):
        return math.nan
    t2 = t * t
    if math.isinf(t2):
        tail = 0.0
    else:
        tail = 0.5 * _betainc(0.5 * df, 0.5, df / (df + t2), t2 / (df + t2))
    return tail if t >= 0 else 1.0 - tail


def norm_sf(z: float) -> float:
    """Standard normal survival function P(Z > z) = erfc(z / sqrt 2) / 2;
    ``math.erfc`` keeps full relative precision far into the upper tail."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def midranks(values):
    """Of a float array: the 1-based ranks, ties sharing the mean of their
    ranks, and the size of each run of equal values (in sorted order).

    A stable argsort orders the values; runs start where a sorted value
    differs from its predecessor, and the run over sorted positions
    [i, j) gets the rank (i + j + 1) / 2.
    """
    import numpy as np

    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    run_lengths = np.diff(np.r_[starts, len(values)])
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat((2 * starts + run_lengths + 1) / 2.0,
                             run_lengths)
    return ranks, run_lengths


def _ranksum_null_cdf(k: int, n: int):
    """cdf[s]: how many k-subsets of the ranks 1..n sum to at most s, for s
    up to the mean k (n + 1) / 2 (the null is symmetric about it).

    A subset-count DP: count[j, s] is the number of j-subsets of the ranks
    added so far that sum to s. Adding rank r adds count[j - 1, s - r] to
    count[j, s], for all j and s at once in int64 (C(50, 25) is about
    1.3e14, far inside).
    """
    import numpy as np

    top = k * (n + 1) // 2
    count = np.zeros((k + 1, top + 1), dtype=np.int64)
    count[0, 0] = 1
    for rank in range(1, min(n, top) + 1):
        # numpy copies the overlapping right-hand side first, so every
        # count on the right is from before this rank was added
        count[1:, rank:] += count[:-1, :top + 1 - rank]
    return np.cumsum(count[k])


def ranksum_exact_p(w: int, n1: int, n2: int) -> float:
    """Two-sided exact p of the rank sum ``w`` of an untied first sample of
    size ``n1`` against ``n2`` others.

    Under the null every n1-subset of the ranks 1..n is equally likely; the
    counts come from the subset-count DP in ``_ranksum_null_cdf``, run on
    the smaller sample, whose rank sum lies as far from its mean as w does
    from n1 (n + 1) / 2. The null is symmetric, so p is twice the share of
    sums at or below mean - |deviation|; it is 1 when w is the mean.
    """
    n = n1 + n2
    k = min(n1, n2)
    # doubled deviation from the mean, in integers
    dev2 = abs(2 * w - n1 * (n + 1))
    if dev2 == 0:
        return 1.0
    low = (k * (n + 1) - dev2) // 2
    return 2 * int(_ranksum_null_cdf(k, n)[low]) / math.comb(n, k)


def williams_test(r1h: float, r2h: float, r12: float,
                  n: int) -> Tuple[float, float]:
    """Significance of the difference between two correlations with a shared
    variable (the human scores).

    Returns (t, p) with n - 3 degrees of freedom; positive t favors the
    first correlation, and p is one-tailed, as in WMT: the chance of a t at
    least this large when the two correlations are equal.

    Raises InsufficientDataError when n < 4, or when the 3x3 correlation
    matrix of (metric 1, metric 2, human) is singular or not positive
    definite (det <= ``SINGULAR_DET``, so the last bit of the three r does
    not decide). The symmetric null r1h == r2h is exempt and gives t = 0.
    """
    if n < MIN_RELIABLE_SYSTEMS:
        raise InsufficientDataError(f"need n >= 4 systems, got {n}")
    for r in (r1h, r2h, r12):
        if abs(r) > 1.0:
            raise DomainError(f"correlation {r} outside [-1, 1]")
    if r1h == r2h:
        # symmetric null; defined even when the matrix degenerates (r12 = 1)
        return 0.0, 0.5
    det = 1.0 - r12 ** 2 - r1h ** 2 - r2h ** 2 + 2.0 * r12 * r1h * r2h
    if det <= SINGULAR_DET:
        raise InsufficientDataError(
            f"degenerate correlation matrix (determinant {det:.3g})"
        )
    rbar = 0.5 * (r1h + r2h)
    denom = math.sqrt(2.0 * det * (n - 1) / (n - 3)
                      + rbar ** 2 * (1.0 - r12) ** 3)
    t = (r1h - r2h) * math.sqrt((n - 1) * (1.0 + r12)) / denom
    return t, t_sf(t, n - 3)


# ---------------------------------------------------------------------------
# Two-sample tests for pairwise system comparison
# ---------------------------------------------------------------------------

# Largest per-sample size for which the rank-sum test uses the exact null
# distribution (only without ties; midranks have no exact distribution).
EXACT_RANKSUM_MAX_N = 25


def wilcoxon_ranksum(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float]:
    """Two-sided Wilcoxon rank-sum test.

    Returns (W, p) where W is the rank sum of ``x`` with midranks. Small
    untied samples (both n <= 25) get the exact null distribution
    (``ranksum_exact_p``); otherwise the tie-corrected normal approximation
    without continuity correction (``norm_sf``). Any NaN gives (nan, nan).
    """
    import numpy as np

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) == 0 or len(y) == 0:
        raise DomainError("rank-sum test needs nonempty samples")
    n1, n2 = len(x), len(y)
    combined = np.concatenate([x, y])
    if np.isnan(combined).any():
        return math.nan, math.nan
    ranks, tie_counts = midranks(combined)
    w = float(ranks[:n1].sum())

    n = n1 + n2
    has_ties = len(tie_counts) != n
    if not has_ties and n1 <= EXACT_RANKSUM_MAX_N and n2 <= EXACT_RANKSUM_MAX_N:
        return w, ranksum_exact_p(int(w), n1, n2)

    mean_w = n1 * (n + 1) / 2.0
    tie_term = float(((tie_counts ** 3 - tie_counts).sum()) / (n * (n - 1)))
    var_w = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var_w <= 0.0:
        return w, 1.0  # all observations identical
    z = (w - mean_w) / math.sqrt(var_w)
    return w, 2.0 * norm_sf(abs(z))


def paired_ttest(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float]:
    """Two-sided paired t-test on per-segment differences.

    Degenerate cases: identical vectors give (0, 1); a constant nonzero
    difference gives (+/-inf, 0).
    """
    import numpy as np

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or len(x) < 2:
        raise DomainError("paired t-test needs equal-length samples, n >= 2")
    d = x - y
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    t = mean / (sd / math.sqrt(len(d)))
    return t, 2.0 * t_sf(abs(t), len(d) - 1)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class CorrelationResult(namedtuple("CorrelationResult",
                                   "lang_pair r kept outliers")):
    """Outlier-filtered correlation for one pair over its sorted ``kept``
    systems; ``r`` is None when the pair is degenerate (constant scores, or
    fewer than 2 kept systems)."""

    __slots__ = ()

    @property
    def n_systems(self) -> int:
        return len(self.kept)

    @property
    def reliable(self) -> bool:
        return self.n_systems >= MIN_RELIABLE_SYSTEMS


class MetricReport(namedtuple("MetricReport",
                              "per_pair weighted_average group_averages")):
    __slots__ = ()

    def result_for(self, lang_pair: str) -> Optional[CorrelationResult]:
        for res in self.per_pair:
            if res.lang_pair == lang_pair:
                return res
        return None


def scored_pairs(*tables_by_pair: Mapping[str, object]) -> list:
    """The one walk of a multi-pair report: every language pair of the
    ``{lang_pair: ...}`` tables, sorted. The per-pair rule names a pair that
    some table lacks; no pair at all is an InsufficientDataError."""
    pairs = sorted(set().union(*tables_by_pair))
    if not pairs:
        raise InsufficientDataError("no language pairs")
    return pairs


def _require_finite(lang_pair: Optional[str], kind: str,
                    scores: Mapping[str, float], systems) -> None:
    for system in sorted(systems):
        if not math.isfinite(scores[system]):
            raise DomainError(f"{_prefix(lang_pair)}{kind} score of {system} "
                              f"is not finite: {scores[system]}")


def correlate_pair(human_scores: Mapping[str, float],
                   metric_scores: Mapping[str, float],
                   lang_pair: str) -> CorrelationResult:
    """Outlier-filtered Pearson correlation for one language pair, the one
    rule behind ``metric_report``, ``tune_thresholds`` and
    ``subsample_correlations``; ``r`` is None when undefined. A score that
    is not finite is a DomainError naming the pair and the system."""
    # the MAD filter reads every human score, Pearson the kept metric scores
    _require_finite(lang_pair, "human", human_scores, human_scores)
    kept, outliers = kept_systems(lang_pair, human_scores, metric_scores)
    _require_finite(lang_pair, "metric", metric_scores, kept)
    h = [human_scores[s] for s in kept]
    m = [metric_scores[s] for s in kept]
    try:
        r = pearson(m, h)
    except DomainError:
        r = None
    return CorrelationResult(lang_pair, r, tuple(kept),
                             tuple(sorted(outliers)))


def metric_report(human_scores_by_pair: Mapping[str, Mapping[str, float]],
                  metric_scores: Mapping[Tuple[str, str], float]) -> MetricReport:
    """Per-pair outlier-filtered correlations plus group averages.

    ``human_scores_by_pair`` maps lang_pair -> {system: human score};
    ``metric_scores`` maps (lang_pair, system) -> metric score. It walks
    ``scored_pairs`` of both, so a pair either lacks is an error naming it.
    Each group's average is ``average_correlations`` over its pairs.
    """
    metric_by_pair = scores_by_pair(metric_scores)
    per_pair = {
        lp: correlate_pair(human_scores_by_pair.get(lp, {}),
                           metric_by_pair.get(lp, {}), lp)
        for lp in scored_pairs(human_scores_by_pair, metric_by_pair)
    }
    group_averages = {
        group: average_correlations([per_pair[lp] for lp in members])
        for group, members in group_members(list(per_pair)).items()
    }
    return MetricReport(tuple(per_pair.values()), group_averages["all"],
                        group_averages)


WilliamsComparison = namedtuple(
    "WilliamsComparison",
    "lang_pair r_first r_second r_between n_systems t p")


def compare_metrics(human_scores_by_pair: Mapping[str, Mapping[str, float]],
                    first_scores: Mapping[Tuple[str, str], float],
                    second_scores: Mapping[Tuple[str, str], float]) -> list:
    """Williams-test comparison of two metrics on every language pair.

    The p is one-tailed, as in WMT: a small p says the first metric
    correlates with the human scores better than the second.

    It walks ``scored_pairs`` of the three, so a pair one of them lacks is
    an error naming it. Both metric-human r come from ``correlate_pair``. A
    pair is skipped when it is not ``reliable``, when either r is None, or
    when its Williams correlation matrix is singular (say, one metric an
    affine copy of the other).
    """
    a_by_pair = scores_by_pair(first_scores)
    b_by_pair = scores_by_pair(second_scores)
    comparisons = []
    for lp in scored_pairs(human_scores_by_pair, a_by_pair, b_by_pair):
        human = human_scores_by_pair.get(lp, {})
        a_scores = a_by_pair.get(lp, {})
        b_scores = b_by_pair.get(lp, {})
        first = correlate_pair(human, a_scores, lp)
        second = correlate_pair(human, b_scores, lp)
        if not first.reliable or first.r is None or second.r is None:
            continue
        r12 = pearson([a_scores[s] for s in first.kept],
                      [b_scores[s] for s in first.kept])
        try:
            t, p = williams_test(first.r, second.r, r12, first.n_systems)
        except InsufficientDataError:
            continue
        comparisons.append(WilliamsComparison(
            lp, first.r, second.r, r12, first.n_systems, t, p))
    return comparisons


# ---------------------------------------------------------------------------
# Pairwise system comparison
# ---------------------------------------------------------------------------

class PairwiseTally(namedtuple(
        "PairwiseTally", "sig_correct sig_incorrect sig_metric_ns "
        "ns_correct ns_incorrect ns_metric_ns", defaults=(0,) * 6)):
    """Six-way tally of pairwise ranking decisions (Human-S/NS x C/IC/NS)."""

    __slots__ = ()

    def __add__(self, other: "PairwiseTally") -> "PairwiseTally":
        return PairwiseTally(
            self.sig_correct + other.sig_correct,
            self.sig_incorrect + other.sig_incorrect,
            self.sig_metric_ns + other.sig_metric_ns,
            self.ns_correct + other.ns_correct,
            self.ns_incorrect + other.ns_incorrect,
            self.ns_metric_ns + other.ns_metric_ns,
        )


def pairwise_compare(metric_segment_scores: Mapping[str, Sequence[float]],
                     human_segment_scores: Mapping[str, Sequence[float]],
                     alpha: float = 0.05,
                     lang_pair: Optional[str] = None) -> PairwiseTally:
    """Six-way tally of ranking decisions over all unordered system pairs.

    Human significance comes from the two-sided rank-sum test on the two
    systems' human segment scores, metric significance from the two-sided
    paired t-test on per-segment metric differences, each at ``p < alpha``.
    A metric-significant decision is correct when the signs of the metric
    and human mean differences agree. The systems are the ``scored_systems``
    of all human-scored ones, with no MAD filter; their scores must cover
    the same segments, at least 2. One system has no pair to compare and
    gives an all-zero tally. A segment score that is not finite is a
    DomainError naming the system. Errors name ``lang_pair``.
    """
    import numpy as np

    if not 0 < alpha < 1:   # also false for nan
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    systems = scored_systems(lang_pair, human_segment_scores,
                             metric_segment_scores)
    lengths = {len(metric_segment_scores[s]) for s in systems}
    lengths |= {len(human_segment_scores[s]) for s in systems}
    if len(lengths) != 1:
        raise InsufficientDataError(
            f"{_prefix(lang_pair)}segment score vectors differ in length")
    if len(systems) < 2:
        return PairwiseTally()
    n_segments, = lengths
    if n_segments < 2:
        raise InsufficientDataError(
            f"{_prefix(lang_pair)}pairwise comparison needs >= 2 segments, "
            f"got {n_segments}")
    metric = np.stack([np.asarray(metric_segment_scores[s], dtype=np.float64)
                       for s in systems])
    human = np.stack([np.asarray(human_segment_scores[s], dtype=np.float64)
                      for s in systems])
    for kind, scores in (("human", human), ("metric", metric)):
        for system, row in zip(systems, scores):
            bad = row[~np.isfinite(row)]
            if len(bad):
                raise DomainError(f"{_prefix(lang_pair)}{kind} segment score "
                                  f"of {system} is not finite: {bad[0]}")

    cells = Counter()
    for a, b in itertools.combinations(range(len(systems)), 2):
        _, human_p = wilcoxon_ranksum(human[a], human[b])
        _, metric_p = paired_ttest(metric[a], metric[b])
        if not metric_p < alpha:
            verdict = "metric_ns"
        elif (np.sign(human[a].mean() - human[b].mean())
              == np.sign(metric[a].mean() - metric[b].mean())):
            verdict = "correct"
        else:
            verdict = "incorrect"
        cells[("sig_" if human_p < alpha else "ns_") + verdict] += 1
    return PairwiseTally(**cells)


# ---------------------------------------------------------------------------
# Test-set-size analysis
# ---------------------------------------------------------------------------

def subsample_correlations(human_scores: Mapping[str, float],
                           metric_segment_scores: Mapping[str, Sequence[float]],
                           sizes: Sequence[int], draws: int = 10,
                           seed: int = 0, lang_pair: Optional[str] = None
                           ) -> Dict[int, CorrelationResult]:
    """Mean outlier-filtered correlation at each subsampled test-set size.

    For every size, ``draws`` segment subsets are drawn without replacement
    (seed derived per (seed, size, draw), so draws are order-independent),
    and each kept system's score is its subset mean. Each draw is scored by
    ``correlate_pair``, and the size maps to that ``CorrelationResult`` with
    r the mean over its draws, or None when some draw has no correlation
    (constant scores, or fewer than 2 kept systems). The kept systems'
    segment scores must be as long as each other. A size given twice is a
    ConfigError; the other errors name ``lang_pair``.
    """
    import numpy as np

    kept, _ = kept_systems(lang_pair, human_scores, metric_segment_scores)
    if draws < 1:
        raise DomainError(f"draws must be >= 1, got {draws}")
    if len({len(metric_segment_scores[s]) for s in kept}) > 1:
        raise InsufficientDataError(
            f"{_prefix(lang_pair)}segment score vectors differ in length")
    matrix = np.stack([np.asarray(metric_segment_scores[s], dtype=np.float64)
                       for s in kept])
    n_segments = matrix.shape[1]
    result = {}
    for size in sizes:
        size = int(size)
        if size in result:
            raise ConfigError(f"size {size} given twice")
        if not 1 <= size <= n_segments:
            raise DomainError(f"{_prefix(lang_pair)}subset size {size} "
                              f"outside [1, {n_segments}]")
        results = []
        for draw in range(draws):
            idx = np.random.default_rng([seed, size, draw]).choice(
                n_segments, size=size, replace=False)
            results.append(correlate_pair(
                human_scores, dict(zip(kept, matrix[:, idx].mean(axis=1))),
                lang_pair))
        rs = [res.r for res in results]
        result[size] = results[0]._replace(
            r=None if None in rs else float(np.mean(rs)))
    return result
