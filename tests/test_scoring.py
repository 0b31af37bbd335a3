import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peereval.data import (
    HumanJudgments,
    LanguagePair,
    SegmentPair,
    SystemOutput,
    TokenScoredSegment,
    assemble_dataset,
    scores_by_pair,
)
from peereval.errors import ConfigError, DomainError, StructureError
from peereval.metaeval import metric_report, pearson
from peereval.scoring import (
    DEFAULT_THRESHOLD_GRID,
    Aggregation,
    aggregate_segments,
    mean_token_logprobs,
    regularize,
    system_score,
    threshold_value,
    tune_thresholds,
)

logprob_lists = st.lists(
    st.floats(min_value=-50.0, max_value=0.0, allow_nan=False), min_size=1,
    max_size=30,
)


def seg(logps, seg_id=0):
    return TokenScoredSegment(seg_id, [f"t{i}" for i in range(len(logps))],
                              logps)


def aggregate_segment(segment, method):
    return aggregate_segments([segment], method)[0]


class TestAggregate:
    def test_mean(self):
        assert aggregate_segment(seg([-1, -2, -3]), Aggregation.MEAN).value == -2.0

    def test_sum(self):
        assert aggregate_segment(seg([-1, -2, -3]), Aggregation.SUM).value == -6.0

    def test_median_and_min(self):
        s = seg([-1, -5, -2])
        assert aggregate_segment(s, Aggregation.MEDIAN).value == -2.0
        assert aggregate_segment(s, Aggregation.MIN).value == -5.0

    def test_median_even_length(self):
        assert aggregate_segment(seg([-1, -2, -3, -10]),
                                 Aggregation.MEDIAN).value == -2.5

    def test_negstd_population(self):
        value = aggregate_segment(seg([-1, -2, -3]), Aggregation.NEG_STD).value
        assert value == pytest.approx(-0.816496580927726, abs=1e-15)

    def test_string_method_accepted(self):
        assert aggregate_segment(seg([-4]), "mean").value == -4.0

    @given(logprob_lists, st.floats(min_value=-5, max_value=0))
    @settings(max_examples=60, deadline=None)
    def test_shift_covariance(self, logps, shift):
        base = seg(logps)
        shifted = seg([v + shift for v in logps])
        t = len(logps)
        assert aggregate_segment(shifted, "sum").value == pytest.approx(
            aggregate_segment(base, "sum").value + shift * t, abs=1e-9)
        for method in ("mean", "median", "min"):
            assert aggregate_segment(shifted, method).value == pytest.approx(
                aggregate_segment(base, method).value + shift, abs=1e-9)
        assert aggregate_segment(shifted, "negstd").value == pytest.approx(
            aggregate_segment(base, "negstd").value, abs=1e-9)

    @given(logprob_lists, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, logps, rnd):
        shuffled = list(logps)
        rnd.shuffle(shuffled)
        for method in Aggregation:
            assert aggregate_segment(seg(shuffled), method).value == \
                pytest.approx(aggregate_segment(seg(logps), method).value,
                              abs=1e-12)

    @given(logprob_lists)
    @settings(max_examples=60, deadline=None)
    def test_sum_equals_mean_times_t(self, logps):
        s = aggregate_segment(seg(logps), "sum").value
        m = aggregate_segment(seg(logps), "mean").value
        assert s == pytest.approx(m * len(logps), rel=1e-14, abs=1e-12)

    @given(logprob_lists, st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_single_token(self, logps, data):
        idx = data.draw(st.integers(min_value=0, max_value=len(logps) - 1))
        raise_to = data.draw(st.floats(min_value=logps[idx], max_value=0.0,
                                       allow_nan=False))
        raised = list(logps)
        raised[idx] = raise_to
        bump = raise_to - logps[idx]
        for method in ("sum", "mean", "min"):
            assert aggregate_segment(seg(raised), method).value >= \
                aggregate_segment(seg(logps), method).value - 1e-12
        med_before = aggregate_segment(seg(logps), "median").value
        med_after = aggregate_segment(seg(raised), "median").value
        assert med_before - 1e-12 <= med_after <= med_before + bump + 1e-12

    def test_batch_matches_single(self):
        segs = [seg([-1, -2], 0), seg([-3], 1), seg([-0.5, -4, -2.5], 2)]
        for method in Aggregation:
            batch = aggregate_segments(segs, method)
            singles = [aggregate_segment(s, method) for s in segs]
            assert batch == singles


class TestThreshold:
    def test_paper_thresholds(self):
        assert threshold_value(-2.0, -1.0, -0.6) == -1
        assert threshold_value(-0.5, -1.0, -0.6) == 1
        assert threshold_value(-0.8, -1.0, -0.6) == 0
        values = threshold_value(np.array([-2.0, -0.5, -0.8]), -1.0, -0.6)
        assert values.dtype.kind == "i"
        assert values.tolist() == [-1, 1, 0]

    def test_boundaries_map_to_zero(self):
        assert threshold_value(-1.0, -1.0, -0.6) == 0
        assert threshold_value(-0.6, -1.0, -0.6) == 0

    def test_segment_uses_mean(self):
        means = mean_token_logprobs([seg([-1.5, -2.5]), seg([-0.5, -0.7])])
        assert threshold_value(means, -1.0, -0.6).tolist() == [-1, 0]

    def test_requires_low_below_high(self):
        with pytest.raises(ConfigError):
            threshold_value(-1.0, -0.6, -1.0)
        with pytest.raises(ConfigError):
            threshold_value(np.array([-1.0]), -0.6, -0.6)

    @given(st.floats(min_value=-10, max_value=0),
           st.floats(min_value=-10, max_value=0))
    @settings(max_examples=100, deadline=None)
    def test_output_range_and_monotonicity(self, m1, m2):
        low, high = -1.0, -0.6
        v1, v2 = threshold_value(m1, low, high), threshold_value(m2, low, high)
        assert v1 in (-1, 0, 1) and v2 in (-1, 0, 1)
        if m1 <= m2:
            assert v1 <= v2


class TestRegularize:
    def test_token_level_elementwise_mean(self):
        a = TokenScoredSegment(0, ["x", "y"], [-1.0, -2.0])
        b = TokenScoredSegment(0, ["x", "y"], [-3.0, -4.0])
        merged = regularize([a, b], "token")
        assert merged.logprobs == (-2.0, -3.0)

    def test_single_sample_identity(self):
        a = TokenScoredSegment(0, ["x"], [-1.25])
        assert regularize([a], "token") == a

    def test_identical_samples_identity(self):
        a = TokenScoredSegment(0, ["x", "y"], [-1.0, -2.0])
        merged = regularize([a, a, a], "token")
        assert merged == a

    def test_segment_level_mean_of_sums(self):
        a = TokenScoredSegment(0, ["x", "y"], [-1.0, -3.0])   # sum -4
        b = TokenScoredSegment(0, ["xy"], [-6.0])             # sum -6
        score = regularize([a, b], "segment")
        assert score.value == -5.0

    def test_segment_level_length_normalized(self):
        a = TokenScoredSegment(0, ["x", "y"], [-1.0, -3.0])
        b = TokenScoredSegment(0, ["xy"], [-6.0])
        score = regularize([a, b], "segment", length_normalize=True)
        assert score.value == pytest.approx(-5.0 / 1.5)

    def test_token_level_mismatch_rejected(self):
        a = TokenScoredSegment(0, ["x", "y"], [-1.0, -2.0])
        b = TokenScoredSegment(0, ["xy"], [-3.0])
        with pytest.raises(StructureError):
            regularize([a, b], "token")

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            regularize([], "token")

    def test_mixed_seg_ids_rejected(self):
        a = TokenScoredSegment(0, ["x"], [-1.0])
        b = TokenScoredSegment(1, ["x"], [-1.0])
        with pytest.raises(StructureError):
            regularize([a, b], "token")


class TestSystemScore:
    def test_mean(self):
        scores = aggregate_segments([seg([-2.0], 0), seg([-4.0], 1)], "sum")
        out = system_score(scores, "sys", "de-en", "sum")
        assert out.value == -3.0
        assert out.n_segments == 2

    def test_threshold_scores(self):
        from peereval.scoring import SegmentScore

        scores = [SegmentScore(i, v) for i, v in enumerate([1, 1, -1, 0])]
        assert system_score(scores, "s", "de-en", "threshold").value == 0.25

    def test_single_identity(self):
        from peereval.scoring import SegmentScore

        assert system_score([SegmentScore(0, -7.5)], "s", "de-en",
                            "mean").value == -7.5

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            system_score([], "s", "de-en", "mean")

    def test_permutation_invariant(self):
        from peereval.scoring import SegmentScore

        scores = [SegmentScore(i, -float(i)) for i in range(7)]
        forward = system_score(scores, "s", "de-en", "mean").value
        backward = system_score(scores[::-1], "s", "de-en", "mean").value
        assert forward == backward


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                   np.float64("nan")])
def test_non_finite_scores_rejected(value):
    from peereval.scoring import SegmentScore, SystemScore

    with pytest.raises(DomainError):
        SegmentScore(0, value)
    with pytest.raises(DomainError):
        SystemScore("s", "de-en", value, "mean", 3)


def test_aggregate_falls_back_to_the_record_check():
    # every log-prob is finite, but the squares of the centred values
    # overflow, so the -std of segment 1 is -inf; the record check names it
    segs = [seg([-1.0, -2.0], 0), seg([-1e200, 0.0], 1)]
    with pytest.raises(DomainError, match="^segment 1: non-finite score$"):
        aggregate_segments(segs, "negstd")
    sums = aggregate_segments(segs, "sum")
    assert [s.value for s in sums] == [-3.0, -1e200]


@pytest.mark.parametrize("method", ["sum", "mean", "min", "median"])
def test_aggregate_without_the_std_squares_nothing(method):
    # the squares of segment 1's centred values overflow; no statistic but
    # the std takes them, so no overflow warning (an error here) is raised
    segs = [seg([-1.0, -2.0], 0), seg([-1e200, 0.0], 1)]
    values = [s.value for s in aggregate_segments(segs, method)]
    assert values == {"sum": [-3.0, -1e200], "mean": [-1.5, -5e199],
                      "min": [-2.0, -1e200], "median": [-1.5, -5e199]}[method]


def test_sum_vs_mean_ranking_identical_with_equal_lengths():
    # fixed token count per segment makes sum and mean affinely related,
    # so rankings and the correlation between the two score vectors agree
    rng = np.random.default_rng(42)
    t = 7
    sum_scores, mean_scores = [], []
    for _ in range(8):
        segs = [seg(list(-rng.exponential(1.0, t)), i) for i in range(40)]
        sum_scores.append(
            system_score(aggregate_segments(segs, "sum"), "s", "xa-xb",
                         "sum").value)
        mean_scores.append(
            system_score(aggregate_segments(segs, "mean"), "s", "xa-xb",
                         "mean").value)
    assert np.argsort(sum_scores).tolist() == np.argsort(mean_scores).tolist()
    assert pearson(sum_scores, mean_scores) == pytest.approx(1.0, abs=1e-12)


def make_threshold_dataset(mix_by_system, lang="xa-xb", human_scores=None):
    """Systems emitting token scores whose per-segment means sit at fixed
    levels; human score = frac(above -0.6) - frac(below -1) unless
    ``human_scores`` gives it per system."""
    lp = LanguagePair.parse(lang)
    outputs = []
    human = {}
    for name, mix in mix_by_system.items():
        means = []
        for level, count in mix.items():
            means.extend([level] * count)
        token_scores = tuple(
            TokenScoredSegment(i, ["w"], [m]) for i, m in enumerate(means)
        )
        segments = tuple(SegmentPair(i, "", "") for i in range(len(means)))
        outputs.append(SystemOutput(name, lp, segments, token_scores))
        n = len(means)
        human[(lang, name)] = (human_scores[name] if human_scores else
                               (mix.get(-0.5, 0) - mix.get(-2.0, 0)) / n)
    return assemble_dataset(outputs, HumanJudgments(human))


SEPARATING_MIXES = {
    "A": {-2.0: 1, -0.8: 5, -0.5: 4},
    "B": {-2.0: 6, -0.8: 1, -0.5: 3},
    "C": {-2.0: 3, -0.8: 3, -0.5: 4},
    "D": {-2.0: 2, -0.8: 6, -0.5: 2},
    "E": {-2.0: 4, -0.8: 2, -0.5: 4},
}


def random_dev_sets(seed):
    """Dev sets over 2 or 3 pairs, sorted by pair, the first with 3
    systems. Each system's segment log-probs scatter around a level of its
    own; human scores follow the level with noise, and now and then one
    system is far off, for the MAD filter to drop."""
    rng = np.random.default_rng([seed, 15])
    datasets = []
    for k in range(int(rng.integers(2, 4))):
        lang = f"x{'abc'[k]}-yy"
        n_systems = 3 if k == 0 else int(rng.integers(4, 8))
        n_segments = int(rng.integers(5, 30))
        levels = rng.uniform(-2.5, -0.5, n_systems)
        human = levels + rng.normal(0.0, 0.3, n_systems)
        if rng.random() < 0.5:
            human[int(rng.integers(n_systems))] -= 5.0
        outputs, scores = [], {}
        for i, (level, h) in enumerate(zip(levels, human)):
            name = f"S{i}"
            token_scores = tuple(
                TokenScoredSegment(
                    j, ["w"] * n_tokens,
                    np.minimum(rng.normal(level, 0.8, n_tokens), 0.0))
                for j, n_tokens in enumerate(
                    rng.integers(1, 6, n_segments).tolist()))
            segments = tuple(SegmentPair(j, "", "") for j in range(n_segments))
            outputs.append(SystemOutput(name, LanguagePair.parse(lang),
                                        segments, token_scores))
            scores[(lang, name)] = float(h)
        datasets.append(assemble_dataset(outputs, HumanJudgments(scores)))
    return datasets


def brute_force_band(datasets, grid):
    """Argmax over the grid of meta-eval's weighted average of the
    thresholded system means; ties prefer smaller high, then larger low."""
    human = scores_by_pair({key: score for ds in datasets
                            for key, score in ds.human.system_scores.items()})
    best = None
    for low, high in itertools.combinations(grid, 2):
        metric = {
            (str(ds.lang_pair), out.system_name): float(np.mean(
                threshold_value(mean_token_logprobs(out.token_scores),
                                low, high)))
            for ds in datasets for out in ds.systems
        }
        score = metric_report(human, metric).weighted_average
        if score is not None and (best is None
                                  or (score, -high, low) > best[0]):
            best = ((score, -high, low), (low, high))
    return None if best is None else best[1]


class TestTuneThresholds:
    def test_default_grid(self):
        grid = np.asarray(DEFAULT_THRESHOLD_GRID)
        assert len(grid) == 16
        assert grid[0] == -3.0 and grid[-1] == 0.0
        assert np.allclose(np.diff(grid), 0.2)
        assert -1.0 in grid.round(10) and -0.6 in grid.round(10)

    def test_single_candidate(self):
        ds = make_threshold_dataset({
            "A": {-2.0: 5, -0.5: 5},
            "B": {-2.0: 8, -0.5: 2},
            "C": {-2.0: 2, -0.5: 8},
            "D": {-2.0: 6, -0.5: 4},
        })
        with pytest.warns(UserWarning, match="clamped"):
            assert tune_thresholds([ds], [-1.0, 0.0]) == (-1.0, 0.0)

    def test_recovers_separating_band(self):
        # three mean levels; only (-1, -0.6) scores systems as
        # frac(-0.5) - frac(-2.0), which is exactly the human score
        ds = make_threshold_dataset(SEPARATING_MIXES)
        with pytest.warns(UserWarning, match="clamped"):
            low, high = tune_thresholds([ds], [-3.0, -1.0, -0.6, 0.0])
        assert (low, high) == (-1.0, -0.6)

    def test_dev_set_under_4_systems_does_not_move_the_band(self):
        big = make_threshold_dataset(SEPARATING_MIXES)
        # 3 systems whose human score follows (-3, -1) exactly and runs
        # against (-1, -0.6): r = +1 and -1 would swamp the average
        small = make_threshold_dataset({
            "A": {-2.0: 1, -0.8: 9},
            "B": {-2.0: 2, -0.8: 6, -0.5: 2},
            "C": {-2.0: 3, -0.8: 3, -0.5: 4},
        }, lang="xc-xd", human_scores={"A": -0.1, "B": -0.2, "C": -0.3})
        grid = [-3.0, -1.0, -0.6, 0.0]
        with pytest.warns(UserWarning):
            assert tune_thresholds([big, small], grid) == (-1.0, -0.6)
        with pytest.raises(ConfigError, match="no valid"):
            tune_thresholds([small], grid)

    def test_tiebreak_prefers_smaller_high_then_larger_low(self):
        # two levels only: every band separating them reaches r = 1, so the
        # tie-break decides; smallest high wins, then the largest low
        ds = make_threshold_dataset({
            "A": {-2.0: 5, -0.5: 5},
            "B": {-2.0: 8, -0.5: 2},
            "C": {-2.0: 2, -0.5: 8},
            "D": {-2.0: 6, -0.5: 4},
        })
        with pytest.warns(UserWarning, match="clamped"):
            low, high = tune_thresholds([ds], [-3.0, -1.0, -0.6, 0.0])
        assert high == -1.0
        assert low == -3.0

    @pytest.mark.filterwarnings("ignore:correlation")
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force_over_meta_eval(self, seed):
        # tuning maximizes the very number meta-eval reports
        datasets = random_dev_sets(seed)
        grid = list(np.linspace(-3.0, 0.0, 7))
        want = brute_force_band(datasets, grid)
        if want is None:
            with pytest.raises(ConfigError, match="no valid"):
                tune_thresholds(datasets, grid)
        else:
            assert tune_thresholds(datasets, grid) == want

    def test_grid_validation(self):
        ds = make_threshold_dataset({
            "A": {-2.0: 5, -0.5: 5},
            "B": {-2.0: 8, -0.5: 2},
        })
        with pytest.raises(ConfigError):
            tune_thresholds([ds], [-1.0])
        with pytest.raises(ConfigError):
            tune_thresholds([ds], [0.0, -1.0])
        with pytest.raises(ConfigError):
            tune_thresholds([ds], [-1.0, -1.0, 0.0])

    @pytest.mark.parametrize("grid, point", [
        ([-1.0, math.nan, 0.0], "nan"), ([-1.0, 0.0, math.inf], "inf"),
        ([-math.inf, -1.0, 0.0], "-inf")])
    def test_non_finite_grid_point_named(self, grid, point):
        # NaN compares false, so it would pass the ascending check
        ds = make_threshold_dataset(SEPARATING_MIXES)
        with pytest.raises(ConfigError,
                           match=f"^grid point {point} is not finite$"):
            tune_thresholds([ds], grid)


def test_mean_token_logprobs_order():
    segs = [seg([-1, -3], 0), seg([-5], 1)]
    np.testing.assert_allclose(mean_token_logprobs(segs), [-2.0, -5.0])
