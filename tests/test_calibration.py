"""The significance tests are calibrated: when the null holds, each rejects
at about its alpha, and the Williams test rejects more often as the gap it
tests grows and as the number of systems grows.

``test_metaeval`` checks the p-values at fixed points against
``stats_oracle.json``; these tests check that a p is a p-value, from seeded
draws, so every rate repeats exactly. A rate over N draws whose true value
is alpha has the binomial standard deviation ``sd(alpha, N)``. The ranges
quoted below were measured with ``SEED`` set to each of 0-11 and 2021.
"""

import math

import numpy as np
import pytest

from peereval.metaeval import paired_ttest, wilcoxon_ranksum, williams_test

SEED = 2021
ALPHA = 0.05


def sd(alpha, draws):
    """Binomial standard deviation of a rejection rate alpha over draws."""
    return math.sqrt(alpha * (1.0 - alpha) / draws)


def rate(pvalues, alpha=ALPHA):
    """The share of p-values at or below alpha."""
    return float(np.mean(np.asarray(pvalues) <= alpha))


# (rho, rho12) under the Williams null rho1h = rho2h = rho: two weakly
# related metrics, two moderately related ones, and two near-duplicates.
WILLIAMS_NULLS = [(0.8, 0.7), (0.5, 0.3), (0.9, 0.95)]


def williams_pvalues(rng, n, r1h, r2h, r12, draws):
    """One-tailed Williams p of ``draws`` samples of n systems, each system
    a trivariate normal (metric 1, metric 2, human) with these correlations,
    from the sample correlations."""
    cov = [[1.0, r12, r1h], [r12, 1.0, r2h], [r1h, r2h, 1.0]]
    x = rng.multivariate_normal(np.zeros(3), cov, size=(draws, n))
    x -= x.mean(axis=1, keepdims=True)
    scatter = np.einsum("dni,dnj->dij", x, x)
    scale = np.sqrt(np.einsum("dii->di", scatter))
    r = scatter / (scale[:, :, None] * scale[:, None, :])
    return [williams_test(a, b, c, n)[1]
            for a, b, c in zip(r[:, 0, 2], r[:, 1, 2], r[:, 0, 1])]


# Williams' t is Student t with n - 3 degrees of freedom only approximately,
# and at n = 6 it is conservative: 0.043-0.047 at alpha 0.05 and
# 0.0069-0.0074 at 0.01, against bounds of 0.0527 and 0.0112. So the rate
# must reach alpha / 2 and stay below alpha + 3 sd. n = 6 gets more draws
# because the degrees of freedom matter most there: n - 2 instead of n - 3
# gives 0.055-0.058 and 0.0125-0.0136, above both bounds. At n = 10 and 20
# the rates are 0.044-0.054 and 0.0075-0.0116, against 0.056 and 0.0127.
@pytest.mark.parametrize("n, draws", [(6, 20000), (10, 4000), (20, 4000)])
def test_williams_type_one_rate(n, draws):
    rng = np.random.default_rng([SEED, n])
    pvalues = [p for rho, r12 in WILLIAMS_NULLS
               for p in williams_pvalues(rng, n, rho, rho, r12, draws)]
    for alpha in (ALPHA, 0.01):
        assert alpha / 2 <= rate(pvalues, alpha) \
            <= alpha + 3 * sd(alpha, len(pvalues)), (n, alpha)


def test_williams_rejects_more_often_as_the_gap_grows():
    # rho1h - rho2h from -0.2 to 0.4 rejects at 0.006-0.016, 0.043-0.053,
    # 0.18-0.22 and 0.74-0.78. A two-tailed p would reject at 0.08-0.11
    # when the first metric is the worse one, more than under the null.
    rng = np.random.default_rng([SEED, 1])
    rates = [rate(williams_pvalues(rng, 10, r1h, 0.5, 0.6, 2000))
             for r1h in (0.3, 0.5, 0.7, 0.9)]
    assert all(a < b for a, b in zip(rates, rates[1:])), rates


def test_williams_rejects_more_often_as_n_grows():
    # at rho1h - rho2h = 0.2 (0.7 against 0.5, rho12 = 0.6), n = 6, 10, 20
    # and 40 reject at 0.097-0.130, 0.18-0.21, 0.33-0.35 and 0.58-0.61; the
    # smallest step between neighbours on one seed was 0.065
    rng = np.random.default_rng([SEED, 5])
    rates = [rate(williams_pvalues(rng, n, 0.7, 0.5, 0.6, 2000))
             for n in (6, 10, 20, 40)]
    assert all(a < b for a, b in zip(rates, rates[1:])), rates


DRAWS = 4000


def test_paired_ttest_type_one_rate():
    # 0.044-0.056, against bounds of 0.040 and 0.060
    rng = np.random.default_rng([SEED, 2])
    pvalues = [paired_ttest(rng.normal(size=30), rng.normal(size=30))[1]
               for _ in range(DRAWS)]
    assert abs(rate(pvalues) - ALPHA) <= 3 * sd(ALPHA, DRAWS)


@pytest.mark.parametrize("draw", [
    # untied samples too large for the exact null: 0.042-0.053
    lambda rng: rng.normal(size=30),
    # two tied values, where the tie term shrinks the variance most:
    # 0.043-0.058 with it, 0.022-0.033 without (bounds 0.040 and 0.060)
    lambda rng: rng.integers(0, 2, size=30),
], ids=["untied", "tied"])
def test_ranksum_normal_approximation_type_one_rate(draw):
    rng = np.random.default_rng([SEED, 3])
    pvalues = [wilcoxon_ranksum(draw(rng), draw(rng))[1]
               for _ in range(DRAWS)]
    assert abs(rate(pvalues) - ALPHA) <= 3 * sd(ALPHA, DRAWS)


def test_ranksum_exact_type_one_rate_is_at_most_alpha():
    # the exact null is discrete, so the test rejects at alpha or less:
    # 0.037-0.046
    rng = np.random.default_rng([SEED, 4])
    pvalues = [wilcoxon_ranksum(rng.normal(size=8), rng.normal(size=11))[1]
               for _ in range(DRAWS)]
    assert rate(pvalues) <= ALPHA
