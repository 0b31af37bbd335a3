import decimal
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peereval.errors import ConfigError, DomainError, InsufficientDataError
from peereval.metaeval import (
    GROUPS,
    SINGULAR_DET,
    CorrelationResult,
    PairwiseTally,
    average_correlations,
    compare_metrics,
    correlate_pair,
    fisher_weighted_average,
    group_members,
    mad_outliers,
    metric_report,
    midranks,
    norm_sf,
    paired_ttest,
    pairwise_compare,
    pearson,
    ranksum_exact_p,
    scored_pairs,
    scored_systems,
    subsample_correlations,
    t_sf,
    wilcoxon_ranksum,
    williams_test,
)


class TestScoredSystems:
    def test_human_systems_count_sorted(self):
        # X has metric scores only
        assert scored_systems("de-en", {"B": 1.0, "A": 2.0},
                              {"A": 0.0, "B": 0.0, "X": 0.0}) == ["A", "B"]

    def test_systems_without_metric_scores_named(self):
        with pytest.raises(InsufficientDataError,
                           match="^de-en: no metric score for A, C$"):
            scored_systems("de-en", ["C", "B", "A"], {"B": 0.0})

    def test_no_systems_named(self):
        with pytest.raises(InsufficientDataError,
                           match="^de-en: no human scores$"):
            scored_systems("de-en", [], {"A": 0.0})
        with pytest.raises(InsufficientDataError, match="^no human scores$"):
            scored_systems(None, {}, {})


class TestScoredPairs:
    @pytest.mark.parametrize("tables, want", [
        (({"fr-en": {}, "de-en": {}},), ["de-en", "fr-en"]),
        (({"fr-en": {}}, {"de-en": {}, "fr-en": {}}), ["de-en", "fr-en"]),
        (({"zh-en": 1}, {}, {"en-de": 2, "cs-en": 3}),
         ["cs-en", "en-de", "zh-en"]),
    ], ids=["one", "two", "three"])
    def test_sorted_union(self, tables, want):
        assert scored_pairs(*tables) == want

    def test_no_pair_is_an_error(self):
        for tables in ((), ({},), ({}, {})):
            with pytest.raises(InsufficientDataError,
                               match="^no language pairs$"):
                scored_pairs(*tables)


class TestMadOutliers:
    def test_worked_example(self):
        scores = {"A": 0.1, "B": 0.2, "C": 0.25, "D": 0.3, "E": 0.9}
        kept, outliers = mad_outliers(scores)
        assert outliers == {"E"}
        assert kept == {"A", "B", "C", "D"}
        # ratio arithmetic behind the split
        assert abs(0.9 - 0.25) / (1.483 * 0.05) > 2.5
        assert abs(0.1 - 0.25) / (1.483 * 0.05) <= 2.5

    def test_all_equal_no_outliers(self):
        kept, outliers = mad_outliers({"A": 0.5, "B": 0.5, "C": 0.5})
        assert outliers == set()
        assert kept == {"A", "B", "C"}

    def test_mad_zero_convention(self):
        # zero MAD: every nonzero deviation is an outlier
        scores = {"A": 1.0, "B": 1.0, "C": 1.0, "D": 1.0, "E": 3.0}
        kept, outliers = mad_outliers(scores)
        assert outliers == {"E"}

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            mad_outliers({})

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_numpy_median_reference(self, seed):
        # the filter with np.median; for even n both medians take
        # (a + b) / 2, so the splits must be equal, not just close
        def reference(scores):
            names = sorted(scores)
            values = np.array([scores[n] for n in names])
            deviations = np.abs(values - np.median(values))
            mad = np.median(deviations)
            mask = (deviations > 0.0 if mad == 0.0
                    else deviations / (1.483 * mad) > 2.5)
            outliers = {n for n, bad in zip(names, mask) if bad}
            return set(names) - outliers, outliers

        rng = np.random.default_rng([seed, 15])
        for _ in range(500):
            n = int(rng.integers(1, 10))
            values = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-5, 6)
            values[rng.random(n) < 0.2] *= 30.0             # far-off systems
            if rng.random() < 0.3:
                values = rng.choice([0.1, 0.2, 0.3, 7.0], n)   # ties
            scores = {f"S{i}": float(v) for i, v in enumerate(values)}
            assert mad_outliers(scores) == reference(scores)

    @given(st.floats(min_value=0.001, max_value=100),
           st.floats(min_value=-50, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_affine_invariance(self, scale, shift):
        scores = {"A": 0.1, "B": 0.2, "C": 0.25, "D": 0.3, "E": 0.9, "F": 0.22}
        base = mad_outliers(scores)
        transformed = mad_outliers({k: scale * v + shift
                                    for k, v in scores.items()})
        assert base == transformed


class TestPearson:
    def test_exact_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_oracle_table(self, stats_oracle):
        for case in stats_oracle["pearson"]:
            assert pearson(case["x"], case["y"]) == \
                pytest.approx(case["r"], abs=1e-6)

    def test_zero_variance_rejected(self):
        with pytest.raises(DomainError):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(DomainError):
            pearson([1, 2, 3], [4, 4, 4])
        # the float64 mean of this constant vector is not its value
        with pytest.raises(DomainError):
            pearson([9.002470391583753e-70] * 3, [0, 0, 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # NaN passed the zero-variance test and came back as r = nan
        with pytest.raises(DomainError, match="^pearson needs finite input$"):
            pearson([bad, 1, 2, 3], [1, 2, 3, 4])
        with pytest.raises(DomainError, match="^pearson needs finite input$"):
            pearson([1, 2, 3, 4], [1, 2, bad, 4])

    @pytest.mark.parametrize("seed", range(4))
    def test_correctly_rounded_against_an_exact_reference(self, seed):
        # the exact r: Fraction means and sums, the square root in 50-digit
        # decimal arithmetic; pearson rounds once, so it is the float of it
        def exact(x, y):
            x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
            mx, my = sum(x) / len(x), sum(y) / len(y)
            sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
            sxx = sum((a - mx) ** 2 for a in x)
            syy = sum((b - my) ** 2 for b in y)
            with decimal.localcontext() as ctx:
                ctx.prec = 50

                def dec(q):
                    return decimal.Decimal(q.numerator) / q.denominator
                return float(dec(sxy) / dec(sxx * syy).sqrt())

        rng = np.random.default_rng([seed, 21])
        for n in range(2, 41):
            for _ in range(5):
                x = rng.normal(size=n) * 10.0 ** rng.uniform(-150, 150)
                # from unrelated to nearly linear
                y = (rng.uniform(-3, 3) * x / np.abs(x).max()
                     + rng.normal(size=n)) * 10.0 ** rng.uniform(-150, 150)
                r = exact(x.tolist(), y.tolist())
                got = pearson(x.tolist(), y.tolist())
                assert got == r, (n, got, r)
                assert pearson(tuple(x.tolist()), tuple(y.tolist())) == got
                assert pearson(x, y) == got

    def test_scale_extremes(self):
        # sums of squares of these centred vectors overflow or underflow
        assert pearson([1e200, 2e200, 3e200], [1, 2, 3]) == 1.0
        assert pearson([1e-170, 2e-170, 3e-170], [1, 2, 3]) == 1.0
        assert pearson([0, 3.4e-159, 0], [0, 3.4e-159, 0]) == 1.0
        # a subnormal sum of squares keeps only about 7 digits
        assert pearson([0, 3.4e-159, 0], [0, 0, 1]) == \
            pytest.approx(-0.5, abs=1e-15)
        # the plain mean of these overflows
        assert pearson([1.5e308, 1.7e308, 1e308], [1, 2, 3]) == \
            pytest.approx(-0.693, abs=1e-3)

    @given(st.lists(st.tuples(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100)), min_size=3, max_size=30),
        st.floats(min_value=0.01, max_value=50),
        st.floats(min_value=-100, max_value=100))
    @example(pairs=[(0.0, 0.0), (0.0, 0.0), (3.9e-144, 1.0)],
             scale=1.0, shift=1.0)
    @example(pairs=[(0.0, 0.0), (0.0, 0.0), (3.0087e-11, 1.0)],
             scale=1.0, shift=1.0)
    @example(pairs=[(0.0, 0.0), (0.03125, 0.0), (0.009765625, 1.0)],
             scale=0.01, shift=4.0)
    @example(pairs=[(0.0, 0.0), (3.4e-159, 0.0), (0.0, 1.0)],
             scale=2.0, shift=0.0)
    @settings(max_examples=60, deadline=None)
    def test_affine_invariance(self, pairs, scale, shift):
        x = np.array([p[0] for p in pairs])
        y = np.array([p[1] for p in pairs])
        if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
            with pytest.raises(DomainError):
                pearson(x, y)
            return
        base = pearson(x, y)

        def check(tx, expected):
            if np.ptp(tx) == 0.0:
                # the transform rounded x to a constant in float64
                with pytest.raises(DomainError):
                    pearson(tx, y)
                return
            # The two roundings of the transform move each value by at most
            # 2 * (bound + tiny) * 2**-53 (tiny covers subnormal results),
            # which moves r by at most sqrt(2 n) <= 8 times that over
            # ptp(tx); the factor 16 leaves twice that.
            bound = max(np.abs(scale * x).max(), np.abs(tx).max())
            kappa = (bound + np.finfo(np.float64).tiny) / np.ptp(tx)
            assert pearson(tx, y) == \
                pytest.approx(expected, abs=1e-12 + 16 * kappa * 2.0 ** -52)

        check(scale * x + shift, base)
        check(-scale * x, -base)


class TestFisherAverage:
    def test_fixed_point(self):
        assert fisher_weighted_average([(0.5, 1), (0.5, 2), (0.5, 9)]) == \
            pytest.approx(0.5, abs=1e-15)

    def test_single_identity(self):
        assert fisher_weighted_average([(0.0, 7)]) == 0.0
        assert fisher_weighted_average([(0.37, 3)]) == pytest.approx(0.37)

    def test_oracle_table(self, stats_oracle):
        for case in stats_oracle["fisher"]:
            got = fisher_weighted_average(list(zip(case["r"], case["w"])))
            assert got == pytest.approx(case["avg"], abs=1e-6)

    def test_clamps_unit_correlation(self):
        with pytest.warns(UserWarning):
            value = fisher_weighted_average([(1.0, 1), (0.5, 1)])
        assert 0.5 < value < 1.0

    def test_bounded_by_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rs = rng.uniform(-0.95, 0.95, size=rng.integers(1, 6))
            ws = rng.integers(1, 20, size=len(rs)).astype(float)
            avg = fisher_weighted_average(list(zip(rs, ws)))
            assert rs.min() - 1e-12 <= avg <= rs.max() + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            fisher_weighted_average([])

    def test_average_correlations_leaves_out_degenerate(self):
        def result(r, n_systems):
            return CorrelationResult(
                "xa-xb", r, tuple(f"s{i}" for i in range(n_systems)), ())

        # r None (degenerate) and fewer than 4 systems both stay out
        assert average_correlations([result(0.3, 4), result(None, 9),
                                     result(0.6, 2), result(0.7, 5),
                                     result(0.99, 3)]) == \
            fisher_weighted_average([(0.3, 4), (0.7, 5)])
        assert average_correlations([result(None, 5)]) is None
        assert average_correlations([result(0.9, 3)]) is None
        assert average_correlations([]) is None


class TestDistributions:
    def test_t_sf_oracle(self, stats_oracle):
        for case in stats_oracle["t_sf"]:
            assert t_sf(case["t"], case["df"]) == \
                pytest.approx(case["sf"], rel=1e-9, abs=0)

    def test_t_sf_limits(self):
        assert t_sf(math.inf, 3) == 0.0
        assert t_sf(-math.inf, 3) == 1.0
        assert t_sf(1e200, 3) == 0.0
        assert t_sf(0.0, 7) == 0.5
        assert math.isnan(t_sf(math.nan, 3))
        # df 1 is the Cauchy distribution: P(T > 1) = 1/4
        assert t_sf(1.0, 1) == pytest.approx(0.25, rel=1e-14)

    def test_norm_sf_oracle(self, stats_oracle):
        for case in stats_oracle["norm_sf"]:
            assert 2.0 * norm_sf(abs(case["z"])) == \
                pytest.approx(case["p"], rel=1e-9, abs=0)

    def test_midranks_match_counting(self):
        # rank of v = 1 + #(values < v) + (#(values == v) - 1) / 2
        rng = np.random.default_rng(11)
        for _ in range(30):
            values = rng.integers(0, 5, size=rng.integers(1, 15)) / 4.0
            ranks, runs = midranks(values)
            less = (values[None, :] < values[:, None]).sum(axis=1)
            equal = (values[None, :] == values[:, None]).sum(axis=1)
            assert ranks.tolist() == (1 + less + (equal - 1) / 2).tolist()
            _, counts = np.unique(values, return_counts=True)
            assert runs.tolist() == counts.tolist()

    def test_ranksum_exact_p_matches_enumeration(self):
        # every split of the ranks 1..n, counted by brute force
        for n1 in range(1, 6):
            for n2 in range(1, 6):
                n = n1 + n2
                sums = [sum(c) for c in
                        itertools.combinations(range(1, n + 1), n1)]
                mean = n1 * (n + 1) / 2
                for w in set(sums):
                    hits = sum(abs(s - mean) >= abs(w - mean) for s in sums)
                    assert ranksum_exact_p(w, n1, n2) == hits / len(sums)

    def test_ranksum_exact_p_oracle(self, stats_oracle):
        for case in stats_oracle["ranksum_exact"]:
            n1 = len(case["x_ranks"])
            p = ranksum_exact_p(int(case["w"]), n1, case["n2"])
            assert p == pytest.approx(case["p"], rel=1e-9, abs=0)

    def test_ranksum_exact_p_counts_exactly_at_25_by_25(self):
        # the lowest and highest rank sums of 25 among 50: 2 / C(50, 25)
        assert ranksum_exact_p(325, 25, 25) == 2 / math.comb(50, 25)
        assert ranksum_exact_p(950, 25, 25) == 2 / math.comb(50, 25)


class TestWilliams:
    def test_symmetric_null(self):
        t, p = williams_test(0.7, 0.7, 0.5, 10)
        assert t == 0.0
        assert p == pytest.approx(0.5)

    def test_antisymmetry(self):
        t1, _ = williams_test(0.9, 0.6, 0.5, 14)
        t2, _ = williams_test(0.6, 0.9, 0.5, 14)
        assert t1 == pytest.approx(-t2, abs=1e-15)

    def test_oracle_table(self, stats_oracle):
        for case in stats_oracle["williams"]:
            t, p = williams_test(case["r1h"], case["r2h"], case["r12"],
                                 case["n"])
            if case["tails"] == 2:
                # the one-tailed p is the only p; the two-tailed one follows
                # from t
                p = 2 * t_sf(abs(t), case["n"] - 3)
            assert t == pytest.approx(case["t"], abs=1e-6)
            assert p == pytest.approx(case["p"], abs=1e-6)

    def test_needs_four_systems(self):
        with pytest.raises(InsufficientDataError):
            williams_test(0.9, 0.8, 0.7, 3)

    def test_degenerate_matrix_rejected(self):
        # |r12| = 1 with distinct r1h/r2h makes the determinant negative
        with pytest.raises(InsufficientDataError):
            williams_test(0.9, 0.2, 1.0, 10)
        # |r12| < 1 but still not positive definite: det = -0.0025
        with pytest.raises(InsufficientDataError):
            williams_test(0.95, 0.75, 0.5, 12)

    def test_singular_matrix_whatever_the_last_bit(self):
        # a -3x affine copy whose r12 rounds to one ulp inside -1 leaves a
        # determinant of about 2e-16, not 0; that is singular too
        r = 0.8814089405208615
        r12 = -1.0 + 2.0 ** -53
        assert 0.0 < 1 - r12 ** 2 - 2 * r ** 2 - 2 * r12 * r * r <= SINGULAR_DET
        with pytest.raises(InsufficientDataError, match="degenerate"):
            williams_test(r, -r, r12, 5)
        # the symmetric null is still defined at r12 = 1
        assert williams_test(r, r, 1.0, 5) == (0.0, 0.5)

    def test_p_monotone_in_t(self):
        r2h, r12 = 0.75, 0.7
        ts, ps = [], []
        for r1h in (0.80, 0.85, 0.90, 0.95):
            det = 1 - r12 ** 2 - r1h ** 2 - r2h ** 2 + 2 * r12 * r1h * r2h
            assert det > 0  # premise: a valid correlation matrix
            t, p = williams_test(r1h, r2h, r12, 12)
            ts.append(t)
            ps.append(p)
        assert all(a < b for a, b in zip(ts, ts[1:]))
        assert all(a > b for a, b in zip(ps, ps[1:]))


class TestWilcoxon:
    def test_oracle_table(self, stats_oracle):
        for case in stats_oracle["wilcoxon"]:
            w, p = wilcoxon_ranksum(case["x"], case["y"])
            assert w == pytest.approx(case["w"], abs=1e-9)
            assert p == pytest.approx(case["p"], abs=1e-6)

    def test_exact_oracle(self, stats_oracle):
        # untied samples given by their ranks, both n <= 25: the exact null
        for case in stats_oracle["ranksum_exact"]:
            x = np.array(case["x_ranks"], dtype=np.float64)
            n = len(x) + case["n2"]
            y = np.setdiff1d(np.arange(1.0, n + 1), x)
            w, p = wilcoxon_ranksum(x, y)
            assert w == case["w"]
            assert p == pytest.approx(case["p"], rel=1e-9, abs=0)

    def test_normal_tail_oracle(self, stats_oracle):
        # untied samples over 25: the normal route, two-sided tails to |z| 37
        for case in stats_oracle["norm_sf"]:
            x = np.arange(case["n1"]) + case["shift"]
            y = np.arange(case["n2"], dtype=np.float64)
            _, p = wilcoxon_ranksum(x, y)
            assert p == pytest.approx(case["p"], rel=1e-9, abs=0)

    def test_identical_samples_not_significant(self):
        w, p = wilcoxon_ranksum([1.0, 1.0, 1.0], [1.0, 1.0])
        assert p == 1.0

    def test_separated_samples_significant(self):
        _, p = wilcoxon_ranksum(list(range(30)), list(range(100, 130)))
        assert p < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            wilcoxon_ranksum([], [1.0])

    def test_nan_propagates(self):
        for x in ([1.0, math.nan, 3.0], [math.nan] + list(range(30))):
            w, p = wilcoxon_ranksum(x, [2.0, 5.0])
            assert math.isnan(w) and math.isnan(p)


class TestPairedT:
    def test_oracle_table(self, stats_oracle):
        for case in stats_oracle["paired_t"]:
            t, p = paired_ttest(case["x"], case["y"])
            assert t == pytest.approx(case["t"], abs=1e-6)
            assert p == pytest.approx(case["p"], abs=1e-6)

    def test_t_tail_oracle(self, stats_oracle):
        # d = c + (1, -1, 0, ...) has sample sd sqrt(2 / df), so
        # c = |t| sd / sqrt(n) gives the statistic |t| with n - 1 = df
        for case in stats_oracle["t_sf"]:
            df, t = case["df"], case["t"]
            e = np.zeros(df + 1)
            e[:2] = 1.0, -1.0
            d = abs(t) * math.sqrt(2.0 / df) / math.sqrt(df + 1) + e
            got_t, p = paired_ttest(d, np.zeros(df + 1))
            assert got_t == pytest.approx(abs(t), rel=1e-13, abs=1e-15)
            sf = p / 2.0 if t >= 0 else 1.0 - p / 2.0
            assert sf == pytest.approx(case["sf"], rel=1e-9, abs=0)

    def test_identical_vectors(self):
        t, p = paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert (t, p) == (0.0, 1.0)

    def test_constant_nonzero_difference(self):
        t, p = paired_ttest([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert math.isinf(t) and t > 0
        assert p == 0.0


class TestMetricReport:
    def test_perfect_metric(self):
        human = {"xa-xb": {"A": 0.1, "B": 0.4, "C": 0.2, "D": 0.35}}
        metric = {("xa-xb", s): v for s, v in human["xa-xb"].items()}
        with pytest.warns(UserWarning):
            report = metric_report(human, metric)
        assert report.per_pair[0].r == pytest.approx(1.0)
        assert report.weighted_average == pytest.approx(1.0, abs=1e-6)

    def test_two_pair_weighted_average(self):
        # pair 1 has r=0.8 over 8 systems, pair 2 r=0.9 over 16
        def exact_r(n, r):
            # evenly spaced x: its largest scaled MAD distance is below 1.3
            x = np.arange(n, dtype=np.float64)
            x -= x.mean()
            e = x * x
            e -= e.mean()
            e -= x * (x @ e) / (x @ x)
            y = r * x / np.linalg.norm(x) + \
                math.sqrt(1 - r * r) * e / np.linalg.norm(e)
            return x, y

        human, metric = {}, {}
        for lp, n, r in (("xa-xb", 8, 0.8), ("xc-xd", 16, 0.9)):
            x, y = exact_r(n, r)
            names = [f"s{i}" for i in range(n)]
            human[lp] = dict(zip(names, x))
            metric.update({(lp, name): y[i] for i, name in enumerate(names)})
            # premises: the intended r, and no system filtered as an outlier
            assert pearson(list(human[lp].values()),
                           [metric[(lp, nm)] for nm in names]) == \
                pytest.approx(r, abs=1e-12)
            assert mad_outliers(human[lp])[1] == set()
        report = metric_report(human, metric)
        expected = math.tanh((8 * math.atanh(0.8) + 16 * math.atanh(0.9)) / 24)
        assert report.weighted_average == pytest.approx(expected, abs=1e-9)

    def test_groups_partition_and_all_consistency(self):
        rng = np.random.default_rng(5)
        human, metric = {}, {}
        for lp in ("en-de", "en-fi", "de-en", "de-fr"):
            names = [f"s{i}" for i in range(6)]
            h = rng.normal(size=6)
            m = h + rng.normal(scale=0.5, size=6)
            human[lp] = dict(zip(names, h))
            metric.update({(lp, nm): m[i] for i, nm in enumerate(names)})
        report = metric_report(human, metric)
        members = group_members([res.lang_pair for res in report.per_pair])
        assert list(members) == list(GROUPS)
        assert sorted(lp for g in GROUPS[1:] for lp in members[g]) == \
            sorted(members["all"]) == sorted(human)
        # recomputing "all" from the union of the groups' inputs is bitwise
        usable = [(res.r, float(res.n_systems)) for res in report.per_pair
                  if res.reliable]
        assert fisher_weighted_average(usable) == report.weighted_average

    def test_small_pair_flagged_unreliable_and_excluded(self):
        human = {
            "xa-xb": {"A": 0.0, "B": 1.0, "C": 2.0},       # 3 systems
            "xc-xd": {f"s{i}": float(i) for i in range(6)},
        }
        metric = {(lp, s): v + 0.01 for lp, scores in human.items()
                  for s, v in scores.items()}
        with pytest.warns(UserWarning):
            report = metric_report(human, metric)
        small = report.result_for("xa-xb")
        assert not small.reliable
        big = report.result_for("xc-xd")
        assert big.reliable
        # average over the one reliable pair only
        with pytest.warns(UserWarning, match="clamped"):
            want = fisher_weighted_average([(big.r, big.n_systems)])
        assert report.weighted_average == pytest.approx(want)

    def test_degenerate_pair_left_out_of_averages(self):
        names = [f"s{i}" for i in range(6)]
        human = {lp: dict(zip(names, range(6))) for lp in ("xa-xb", "xc-xd")}
        metric = {("xa-xb", s): 0.5 for s in names}
        metric.update({("xc-xd", s): v
                       for s, v in zip(names, [0, 2, 1, 3, 5, 4])})
        report = metric_report(human, metric)
        assert report.result_for("xa-xb").r is None
        r = report.result_for("xc-xd").r
        assert report.weighted_average == pytest.approx(r, abs=1e-12)
        assert report.group_averages["xx-yy"] == report.weighted_average
        comps = compare_metrics(human, metric, metric)
        assert [c.lang_pair for c in comps] == ["xc-xd"]

    def test_missing_metric_score_named(self):
        human = {"xa-xb": {"A": 0.0, "B": 1.0}}
        with pytest.raises(InsufficientDataError, match="B"):
            correlate_pair(human["xa-xb"], {"A": 0.5}, "xa-xb")

    def test_missing_human_scores_named(self):
        with pytest.raises(InsufficientDataError,
                           match="^xa-xb: no human scores$"):
            correlate_pair({}, {"A": 0.5}, "xa-xb")

    def test_metric_pair_without_human_scores_named(self):
        human = {"xa-xb": {s: float(i) for i, s in enumerate("ABCDE")}}
        metric = {(lp, s): v for lp in ("xa-xb", "xc-xd")
                  for s, v in zip("ABCDE", (0.0, 2.0, 1.0, 3.0, 4.0))}
        with pytest.raises(InsufficientDataError,
                           match="^xc-xd: no human scores$"):
            metric_report(human, metric)
        only_xa = {k: v for k, v in metric.items() if k[0] == "xa-xb"}
        for first, second in ((metric, only_xa), (only_xa, metric)):
            with pytest.raises(InsufficientDataError,
                               match="^xc-xd: no human scores$"):
                compare_metrics(human, first, second)

    def test_metric_report_names_a_pair_without_metric_scores(self):
        human = {lp: {s: float(i) for i, s in enumerate("ABCDE")}
                 for lp in ("xa-xb", "xc-xd")}
        metric = {("xa-xb", s): float(i) for i, s in enumerate("ABCDE")}
        with pytest.raises(InsufficientDataError,
                           match="^xc-xd: no metric score for A, B, C, D, E$"):
            metric_report(human, metric)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_names_the_pair_and_system(self, bad):
        # an error, not r = nan and not the r = None of a degenerate pair
        human = {"A": 0.1, "B": 0.2, "C": 0.25, "D": 0.3}
        metric = {"A": 1.0, "B": 2.0, "C": 3.0, "D": 4.0}
        with pytest.raises(DomainError, match=rf"^xa-xb: metric score of C "
                                              rf"is not finite: {bad}$"):
            correlate_pair(human, dict(metric, C=bad), "xa-xb")
        # an infinite human score would otherwise be dropped as an outlier
        with pytest.raises(DomainError, match=rf"^xa-xb: human score of B "
                                              rf"is not finite: {bad}$"):
            correlate_pair(dict(human, B=bad), metric, "xa-xb")
        with pytest.raises(DomainError, match=rf"^human score of B is not "
                                              rf"finite: {bad}$"):
            correlate_pair(dict(human, B=bad), metric, None)
        # a metric score that Pearson does not read is not checked
        res = correlate_pair(human, dict(metric, X=bad), "xa-xb")
        assert res.kept == ("A", "B", "C", "D")

    def test_metric_report_rejects_a_non_finite_score(self):
        names = [f"s{i}" for i in range(5)]
        human = {lp: dict(zip(names, range(5))) for lp in ("xa-xb", "xc-xd")}
        metric = {(lp, s): float(i) for lp in human
                  for i, s in enumerate(names)}
        metric["xc-xd", "s3"] = math.nan
        with pytest.raises(DomainError,
                           match="^xc-xd: metric score of s3 is not finite: "
                                 "nan$"):
            metric_report(human, metric)

    def test_outliers_dropped_before_correlation(self):
        human = {"A": 0.1, "B": 0.2, "C": 0.25, "D": 0.3, "E": 0.9}
        # metric wildly wrong on the outlier only; correlation unaffected
        metric = {"A": 0.1, "B": 0.2, "C": 0.25, "D": 0.3, "E": -5.0}
        res = correlate_pair(human, metric, "xa-xb")
        assert res.outliers == ("E",)
        assert res.kept == ("A", "B", "C", "D") and res.n_systems == 4
        assert res.r == pytest.approx(1.0)


def random_metric_pairs(seed):
    """Human scores and two metrics over five pairs: one with a system far
    off (an outlier), one with 3 systems, one where MAD keeps 3 of 5, and
    one each where the first or the second metric is constant."""
    rng = np.random.default_rng([seed, 17])
    human, first, second = {}, {}, {}
    for lp, n_systems in (("de-en", 7), ("fr-en", 6), ("zh-en", 3),
                          ("en-de", 5), ("en-fr", 5), ("en-zh", 5)):
        names = [f"s{i}" for i in range(n_systems)]
        h = rng.normal(size=n_systems)
        if lp == "fr-en":
            h[int(rng.integers(n_systems))] += 20.0
        if lp == "en-de":
            h[:] = [1.0, 1.0, 1.0, 5.0, -5.0]   # MAD 0: s3, s4 are outliers
        a = h + rng.normal(scale=0.5, size=n_systems)
        b = h + rng.normal(scale=1.0, size=n_systems)
        if lp == "en-fr":
            a[:] = 0.25
        if lp == "en-zh":
            b[:] = -1.5
        human[lp] = dict(zip(names, h))
        first.update({(lp, nm): a[i] for i, nm in enumerate(names)})
        second.update({(lp, nm): b[i] for i, nm in enumerate(names)})
    return human, first, second


class TestCompareMetrics:
    @pytest.mark.parametrize("seed", range(10))
    def test_same_correlations_as_metric_report(self, seed):
        human, first, second = random_metric_pairs(seed)
        report_a = metric_report(human, first)
        report_b = metric_report(human, second)
        # premises: an outlier, a pair under 4 kept systems, and both
        # degenerate kinds are in the data
        assert report_a.result_for("fr-en").outliers
        assert report_a.result_for("en-de").n_systems == 3
        assert report_a.result_for("en-fr").r is None
        assert report_b.result_for("en-zh").r is None
        comps = compare_metrics(human, first, second)
        for comp in comps:
            a = report_a.result_for(comp.lang_pair)
            b = report_b.result_for(comp.lang_pair)
            assert (comp.r_first, comp.r_second, comp.n_systems) == \
                (a.r, b.r, a.n_systems) == (a.r, b.r, b.n_systems)
        assert [comp.lang_pair for comp in comps] == [
            a.lang_pair for a, b in zip(report_a.per_pair, report_b.per_pair)
            if a.reliable and a.r is not None and b.r is not None]
        assert [comp.lang_pair for comp in comps] == ["de-en", "fr-en"]

    @pytest.mark.parametrize("scale", [3.0, -3.0])
    def test_singular_matrix_pair_skipped(self, scale):
        names = list("ABCDE")
        h = [0.0, 0.1, 0.2, 0.3, 0.4]
        m = [0.05, 0.2, 0.1, 0.35, 0.4]
        b = [scale * v + 0.7 for v in m]   # an affine copy of m
        r1h, r2h, r12 = pearson(m, h), pearson(b, h), pearson(m, b)
        human = {lp: dict(zip(names, h)) for lp in ("xa-xb", "xc-xd")}
        first = {(lp, s): v for lp in human for s, v in zip(names, m)}
        second = {("xa-xb", s): v for s, v in zip(names, b)}
        second.update({("xc-xd", s): v for s, v in
                       zip(names, [0.1, 0.0, 0.2, 0.4, 0.3])})
        comps = compare_metrics(human, first, second)
        if scale > 0:
            # premise: the two r are equal, the symmetric null, which
            # gives t = 0 and p = 0.5 as identical metrics do
            assert r1h == r2h
            assert williams_test(r1h, r2h, r12, 5) == (0.0, 0.5)
            assert [(c.lang_pair, c.t, c.p) for c in comps[:1]] == [
                ("xa-xb", 0.0, 0.5)]
            assert [c.lang_pair for c in comps] == ["xa-xb", "xc-xd"]
            return
        # premises: the two r differ in sign, so the symmetric null does
        # not cover the singular matrix, and |r12| is within the tolerance
        # of 1
        assert r1h == -r2h != 0.0
        assert 1.0 - abs(r12) <= SINGULAR_DET
        with pytest.raises(InsufficientDataError, match="degenerate"):
            williams_test(r1h, r2h, r12, 5)
        assert [c.lang_pair for c in comps] == ["xc-xd"]

    @pytest.mark.parametrize("seed", range(5))
    def test_affine_copy_never_gets_a_williams_row(self, seed):
        # a negative-scale copy is always skipped; a positive-scale one is
        # skipped too, or is the symmetric null when rounding leaves its r
        # equal to the original's
        rng = np.random.default_rng([seed, 31])
        for _ in range(200):
            n = int(rng.integers(4, 12))
            names = [f"S{i}" for i in range(n)]
            h = rng.normal(size=n)
            m = h + rng.normal(scale=rng.uniform(0.1, 2.0), size=n)
            scale = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
            shift = rng.uniform(-10.0, 10.0)
            human = {"xa-xb": dict(zip(names, h.tolist()))}
            first = {("xa-xb", s): float(v) for s, v in zip(names, m)}
            second = {("xa-xb", s): float(scale * v + shift)
                      for s, v in zip(names, m)}
            comps = compare_metrics(human, first, second)
            if scale < 0 or not comps:
                assert comps == []
            else:
                (comp,) = comps
                assert (comp.r_first, comp.t, comp.p) == \
                    (comp.r_second, 0.0, 0.5)

    def test_equal_metrics_tie(self):
        rng = np.random.default_rng(3)
        names = [f"s{i}" for i in range(8)]
        h = rng.normal(size=8)
        m = h + rng.normal(scale=0.4, size=8)
        human = {"xa-xb": dict(zip(names, h))}
        scores = {("xa-xb", nm): m[i] for i, nm in enumerate(names)}
        comps = compare_metrics(human, scores, scores)
        assert len(comps) == 1
        assert comps[0].t == 0.0
        assert comps[0].p == pytest.approx(0.5)


class TestPairwise:
    def test_counting_identity(self):
        rng = np.random.default_rng(9)
        n_systems, n_segs = 6, 40
        metric = {f"s{i}": rng.normal(size=n_segs) for i in range(n_systems)}
        human = {f"s{i}": rng.normal(size=n_segs) for i in range(n_systems)}
        tally = pairwise_compare(metric, human)
        assert sum(tally) == n_systems * (n_systems - 1) // 2

    def test_identical_systems_all_ns(self):
        scores = np.zeros(30)
        metric = {"A": scores, "B": scores}
        human = {"A": scores, "B": scores}
        tally = pairwise_compare(metric, human)
        assert tally.ns_metric_ns == 1
        assert sum(tally) == 1

    def test_maximal_separation_correct(self):
        # A beats B by +1 on every segment for both human and metric
        base = np.linspace(0, 1, 50)
        metric = {"A": base + 1.0, "B": base}
        human = {"A": base + 1.0, "B": base}
        tally = pairwise_compare(metric, human)
        assert tally.sig_correct == 1
        assert sum(tally) == 1

    def test_sign_disagreement_incorrect(self):
        base = np.linspace(0, 1, 50)
        metric = {"A": base, "B": base + 1.0}      # metric prefers B
        human = {"A": base + 1.0, "B": base}       # humans prefer A
        tally = pairwise_compare(metric, human)
        assert tally.sig_incorrect == 1

    def test_relabeling_invariant(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=60)
        b = a + 0.8 + rng.normal(scale=0.2, size=60)
        forward = pairwise_compare({"A": a, "B": b}, {"A": a, "B": b})
        swapped = pairwise_compare({"A": b, "B": a}, {"A": b, "B": a})
        assert forward == swapped

    def test_significant_agreement_tallies_sig_correct(self):
        base = np.linspace(0, 1, 50)
        assert pairwise_compare({"A": base + 1.0, "B": base},
                                {"A": base + 1.0, "B": base}) == \
            PairwiseTally(sig_correct=1)

    def test_one_segment_rejected_naming_the_pair(self):
        with pytest.raises(InsufficientDataError,
                           match="^de-en: pairwise comparison needs >= 2 "
                           "segments, got 1$"):
            pairwise_compare({"A": [1.0], "B": [2.0]},
                             {"A": [1.0], "B": [2.0]}, lang_pair="de-en")

    def test_mismatched_systems_rejected(self):
        with pytest.raises(InsufficientDataError):
            pairwise_compare({"A": [1.0, 2.0]}, {"B": [1.0, 2.0]})

    def test_no_human_scores_rejected_naming_the_pair(self):
        with pytest.raises(InsufficientDataError,
                           match="^fr-en: no human scores$"):
            pairwise_compare({"A": [1.0, 2.0], "B": [2.0, 1.0]}, {},
                             lang_pair="fr-en")

    def test_no_metric_scores_rejected_naming_the_pair(self):
        with pytest.raises(InsufficientDataError,
                           match="^fr-en: no metric score for A, B$"):
            pairwise_compare({}, {"A": [1.0, 2.0], "B": [2.0, 1.0]},
                             lang_pair="fr-en")

    def test_system_without_human_scores_left_out(self):
        base = np.linspace(0, 1, 50)
        human = {"A": base + 1.0, "B": base}
        metric = {"A": base + 0.5, "B": base}
        want = pairwise_compare(metric, human, lang_pair="de-en")
        assert want == PairwiseTally(sig_correct=1)
        # X has metric scores only, on other segments too
        assert pairwise_compare({**metric, "X": [9.0]}, human,
                                lang_pair="de-en") == want

    def test_one_system_gives_a_zero_tally(self):
        # no system pair to compare, so not even one segment is an error
        for segments in ([1.0], [1.0, 2.0, 0.5]):
            assert pairwise_compare({"A": segments}, {"A": segments},
                                    lang_pair="de-en") == PairwiseTally()
        # the alpha check still holds
        with pytest.raises(ConfigError, match="got nan$"):
            pairwise_compare({"A": [1.0]}, {"A": [1.0]}, alpha=math.nan)

    @pytest.mark.parametrize("kind", ["human", "metric"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_segment_score_rejected_naming_pair_and_system(
            self, kind, bad):
        # a nan used to be tallied: here it turned ns_correct into
        # ns_incorrect
        scores = {"a": [1.0, 2.0, 3.0], "b": [0.0, 1.0, 2.0]}
        assert pairwise_compare(scores, scores) == PairwiseTally(ns_correct=1)
        broken = {**scores, "a": [1.0, 2.0, bad]}
        metric, human = (scores, broken) if kind == "human" else \
            (broken, scores)
        with pytest.raises(DomainError,
                           match=f"^de-en: {kind} segment score of a is not "
                           f"finite: {bad}$"):
            pairwise_compare(metric, human, lang_pair="de-en")

    @pytest.mark.parametrize("alpha", [math.nan, 0.0, -1.0, 1.0, 2.0])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        base = np.linspace(0, 1, 50)
        with pytest.raises(ConfigError, match=f"got {alpha}$"):
            pairwise_compare({"A": base + 1.0, "B": base},
                             {"A": base + 1.0, "B": base}, alpha=alpha)


class TestSubsample:
    def make_fixture(self, n_systems=8, n_segs=200, noise=2.0, seed=0):
        rng = np.random.default_rng(seed)
        quality = np.linspace(0, 1, n_systems)
        human = {f"s{i}": float(q) for i, q in enumerate(quality)}
        metric = {
            f"s{i}": quality[i] + rng.normal(scale=noise, size=n_segs)
            for i in range(n_systems)
        }
        return human, metric

    def test_full_size_equals_full_correlation(self):
        human, metric = self.make_fixture()
        full = correlate_pair(human, {s: v.mean() for s, v in metric.items()},
                              "de-en")
        curve = subsample_correlations(human, metric, sizes=[200], draws=5,
                                       lang_pair="de-en")
        assert curve[200].r == pytest.approx(full.r, abs=1e-12)
        assert curve[200].r == pytest.approx(
            pearson([metric[s].mean() for s in sorted(metric)],
                    [human[s] for s in sorted(human)]), abs=1e-12)
        # the kept systems, outliers and pair are those of the full scores
        assert (curve[200].lang_pair, curve[200].kept, curve[200].outliers) \
            == (full.lang_pair, full.kept, full.outliers)
        assert curve[200].n_systems == 8 and curve[200].reliable

    def test_deterministic_given_seed(self):
        human, metric = self.make_fixture()
        a = subsample_correlations(human, metric, [50, 100], draws=10, seed=3)
        b = subsample_correlations(human, metric, [50, 100], draws=10, seed=3)
        assert a == b
        c = subsample_correlations(human, metric, [50, 100], draws=10, seed=4)
        assert a != c

    def test_size_order_independent(self):
        human, metric = self.make_fixture()
        fwd = subsample_correlations(human, metric, [50, 100], draws=5, seed=1)
        rev = subsample_correlations(human, metric, [100, 50], draws=5, seed=1)
        assert fwd == rev

    def test_repeated_size_rejected(self):
        human, metric = self.make_fixture()
        with pytest.raises(ConfigError, match="^size 50 given twice$"):
            subsample_correlations(human, metric, [50, 100, 50],
                                   lang_pair="de-en")

    def test_system_without_human_score_left_out(self):
        human, metric = self.make_fixture()
        want = subsample_correlations(human, metric, [50], draws=3)
        assert subsample_correlations(
            human, {**metric, "x": np.full(200, 9.0)}, [50], draws=3) == want

    def test_oversize_rejected(self):
        human, metric = self.make_fixture(n_segs=50)
        with pytest.raises(DomainError, match="^de-en: subset size 51"):
            subsample_correlations(human, metric, [51], lang_pair="de-en")

    def test_constant_scores_give_none(self):
        human, metric = self.make_fixture(n_segs=20)
        constant = {s: np.full(20, 0.5) for s in metric}
        curve = subsample_correlations(human, constant, [5, 20])
        assert {size: res.r for size, res in curve.items()} == \
            {5: None, 20: None}
        assert all(res.n_systems == 8 for res in curve.values())


def test_tally_addition():
    a = PairwiseTally(1, 2, 3, 4, 5, 6)
    b = PairwiseTally(10, 0, 0, 0, 0, 1)
    c = a + b
    assert c.sig_correct == 11 and c.ns_metric_ns == 7
    assert sum(c) == sum(a) + sum(b)
