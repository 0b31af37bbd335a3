#!/usr/bin/env python3
"""Generate frozen oracle tables for the statistics test suite.

Deliberately independent of the peereval package: every expected value here
comes from scipy, mpmath (50-digit arithmetic), or brute-force enumeration or
exact integer counts, coded separately from the implementations under test.
Run once and commit the JSON outputs; the tests assert against the frozen
values: the original tables to 1e-6, and the ``t_sf`` and ``norm_sf``
(mpmath) and ``ranksum_exact`` (exact counts) tables to 1e-9 relative.

peereval itself needs numpy only. This dev script still imports scipy: the
``pearson`` and ``paired_t`` tables come from it, and the other tables are
cross-checked against it. Nothing under ``src/`` or ``tests/`` imports scipy
or this script.

Keys already in ``stats_oracle.json`` are kept as they are, so adding a table
leaves the frozen ones byte-identical; delete the file to regenerate every
table. The last digit of a scipy-derived value can move with the scipy
version.

Usage: python scripts/gen_oracle_tables.py
"""

import itertools
import json
import math
import os
import random
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
import scipy.stats as st

mp.mp.dps = 50

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "data")


# ---------------------------------------------------------------------------
# Pearson
# ---------------------------------------------------------------------------

def gen_pearson():
    cases = [
        # fixed cases, incl. exact linear relations
        ([1, 2, 3], [2, 4, 6]),
        ([1, 2, 3], [3, 2, 1]),
        ([1, 2, 3, 4], [1.2, 1.9, 3.3, 3.9]),
        ([0, 1], [5, 7]),
        ([10, 20, 30, 40, 50], [1, 2, 3, 4, 4.5]),
    ]
    rng = random.Random(12345)
    for _ in range(20):
        n = rng.randint(3, 40)
        x = [rng.gauss(0, 1) for _ in range(n)]
        y = [0.4 * xi + rng.gauss(0, 1.5) for xi in x]
        cases.append((x, y))
    table = []
    for x, y in cases:
        r = float(st.pearsonr(x, y).statistic)
        table.append({"x": list(map(float, x)), "y": list(map(float, y)),
                      "r": r})
    return table


# ---------------------------------------------------------------------------
# Fisher-z weighted average
# ---------------------------------------------------------------------------

def fisher_avg_mp(rs, ws):
    num = mp.mpf(0)
    den = mp.mpf(0)
    for r, w in zip(rs, ws):
        num += mp.mpf(w) * mp.atanh(mp.mpf(r))
        den += mp.mpf(w)
    return float(mp.tanh(num / den))


def gen_fisher():
    cases = [
        ([0.5, 0.5, 0.5], [1, 2, 9]),
        ([0.0], [7]),
        ([0.5, 0.9], [1, 1]),
        ([0.8, 0.9], [8, 16]),
        ([-0.7, 0.7], [3, 3]),
    ]
    rng = random.Random(777)
    for _ in range(18):
        k = rng.randint(1, 8)
        rs = [rng.uniform(-0.99, 0.99) for _ in range(k)]
        ws = [rng.randint(1, 25) for _ in range(k)]
        cases.append((rs, ws))
    return [{"r": rs, "w": ws, "avg": fisher_avg_mp(rs, ws)}
            for rs, ws in cases]


# ---------------------------------------------------------------------------
# Williams / Steiger test for dependent correlations
# ---------------------------------------------------------------------------

def t_sf_mp(t, df):
    """One-sided survival function of Student's t via the incomplete beta."""
    t = mp.mpf(t)
    df = mp.mpf(df)
    x = df / (df + t * t)
    half = mp.betainc(df / 2, mp.mpf(1) / 2, 0, x, regularized=True) / 2
    return half if t >= 0 else 1 - half


T_SF_DFS = (1, 2, 3, 4, 5, 7, 10, 15, 20, 30, 45, 60, 100, 200, 499, 500)
T_SF_TS = (-40.0, -12.0, -3.0, -1.0, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0,
           3.0, 5.0, 8.0, 12.0, 20.0, 30.0, 40.0)


def gen_t_sf():
    """One-sided Student-t tail on a (df, t) grid; at large df and t the
    tail is far below 1e-30 (about 3e-158 at df 500, t 40)."""
    table = []
    for df in T_SF_DFS:
        for t in T_SF_TS:
            sf = float(t_sf_mp(t, df))
            sf_scipy = float(st.t.sf(t, df))
            assert abs(sf - sf_scipy) <= 1e-9 * sf, (t, df, sf, sf_scipy)
            table.append({"df": df, "t": t, "sf": sf})
    return table


def williams_mp(r1h, r2h, r12, n, tails):
    r1h, r2h, r12 = mp.mpf(r1h), mp.mpf(r2h), mp.mpf(r12)
    det = 1 - r12 ** 2 - r1h ** 2 - r2h ** 2 + 2 * r12 * r1h * r2h
    rbar = (r1h + r2h) / 2
    t = ((r1h - r2h) * mp.sqrt((n - 1) * (1 + r12))
         / mp.sqrt(2 * det * (n - 1) / (n - 3) + rbar ** 2 * (1 - r12) ** 3))
    if tails == 1:
        p = t_sf_mp(t, n - 3)
    else:
        p = 2 * t_sf_mp(abs(t), n - 3)
    return float(t), float(p)


def gen_williams():
    cases = [
        (0.9, 0.8, 0.7, 12, 1),
        (0.9, 0.8, 0.7, 12, 2),
        (0.8, 0.9, 0.7, 12, 1),
        (0.5, 0.5, 0.3, 10, 1),
        (0.95, 0.90, 0.85, 18, 1),
        (-0.2, 0.4, 0.1, 15, 2),
    ]
    rng = random.Random(4242)
    while len(cases) < 26:
        r1h = rng.uniform(-0.95, 0.95)
        r2h = rng.uniform(-0.95, 0.95)
        r12 = rng.uniform(-0.9, 0.95)
        n = rng.randint(4, 40)
        det = 1 - r12**2 - r1h**2 - r2h**2 + 2 * r12 * r1h * r2h
        if det <= 1e-6:
            continue
        cases.append((r1h, r2h, r12, n, rng.choice([1, 2])))
    table = []
    for r1h, r2h, r12, n, tails in cases:
        t, p = williams_mp(r1h, r2h, r12, n, tails)
        # sanity: scipy's t distribution agrees with the mpmath beta route
        p_scipy = (float(st.t.sf(t, n - 3)) if tails == 1
                   else float(2 * st.t.sf(abs(t), n - 3)))
        assert abs(p - p_scipy) < 1e-12, (p, p_scipy)
        table.append({"r1h": r1h, "r2h": r2h, "r12": r12, "n": n,
                      "tails": tails, "t": t, "p": p})
    return table


# ---------------------------------------------------------------------------
# Wilcoxon rank-sum
# ---------------------------------------------------------------------------

def midranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def ranksum_w(x, y):
    ranks = midranks(list(x) + list(y))
    return sum(ranks[:len(x)])


def ranksum_exact_p(x, y):
    """Two-sided exact p by enumerating all label assignments."""
    combined = list(x) + list(y)
    n1 = len(x)
    ranks = midranks(combined)
    w_obs = sum(ranks[:n1])
    mean_w = n1 * (len(combined) + 1) / 2
    dev_obs = abs(w_obs - mean_w) - 1e-12
    count = 0
    total = 0
    for subset in itertools.combinations(range(len(combined)), n1):
        w = sum(ranks[i] for i in subset)
        if abs(w - mean_w) >= dev_obs:
            count += 1
        total += 1
    return count / total


def ranksum_normal_p(x, y):
    """Tie-corrected normal approximation, no continuity correction."""
    combined = list(x) + list(y)
    n1, n2 = len(x), len(y)
    n = n1 + n2
    w = ranksum_w(x, y)
    mean_w = n1 * (n + 1) / 2
    ties = Counter(combined)
    tie_term = sum(t**3 - t for t in ties.values()) / (n * (n - 1))
    var_w = n1 * n2 / 12 * ((n + 1) - tie_term)
    if var_w <= 0:
        return w, 1.0
    z = (w - mean_w) / math.sqrt(var_w)
    p = float(mp.erfc(abs(mp.mpf(z)) / mp.sqrt(2)))
    return w, p


def gen_wilcoxon():
    rng = random.Random(99)
    cases = []
    # small untied samples -> exact route
    for _ in range(12):
        n1 = rng.randint(3, 7)
        n2 = rng.randint(3, 7)
        pool = rng.sample(range(1000), n1 + n2)
        x = [v + rng.random() * 0.1 for v in pool[:n1]]
        y = [v + rng.random() * 0.1 for v in pool[n1:]]
        w = ranksum_w(x, y)
        p = ranksum_exact_p(x, y)
        res = st.mannwhitneyu(x, y, alternative="two-sided", method="exact")
        assert abs(p - float(res.pvalue)) < 1e-12, (p, res.pvalue)
        cases.append({"x": x, "y": y, "w": w, "p": p, "route": "exact"})
    # tied and/or larger samples -> asymptotic route
    for i in range(12):
        n1 = rng.randint(6, 60)
        n2 = rng.randint(6, 60)
        if i < 6:  # force ties
            x = [float(rng.randint(0, 8)) for _ in range(n1)]
            y = [float(rng.randint(1, 9)) for _ in range(n2)]
        else:
            x = [rng.gauss(0, 1) for _ in range(max(n1, 26))]
            y = [rng.gauss(0.4, 1) for _ in range(max(n2, 26))]
        w, p = ranksum_normal_p(x, y)
        res = st.mannwhitneyu(x, y, alternative="two-sided",
                              method="asymptotic", use_continuity=False)
        assert abs(p - float(res.pvalue)) < 1e-9, (p, res.pvalue)
        cases.append({"x": x, "y": y, "w": w, "p": p, "route": "asymptotic"})
    return cases


def qbinomial_counts(n, k):
    """Coefficients of the Gaussian binomial [n choose k]_q, exact ints.

    Coefficient j counts the k-subsets of {1..n} whose sum is
    k (k + 1) / 2 + j. Built from the product formula
    prod_{i=1..k} (1 - q^(n-k+i)) / (1 - q^i): multiply by each numerator
    factor, then divide exactly by each denominator factor.
    """
    poly = [1]
    for i in range(1, k + 1):
        shift = n - k + i
        grown = poly + [0] * shift
        for j in range(len(poly)):
            grown[j + shift] -= poly[j]
        poly = grown
    for i in range(1, k + 1):
        # divide by (1 - q^i): c[j] += c[j - i], then drop the i-term tail
        for j in range(i, len(poly)):
            poly[j] += poly[j - i]
        assert all(c == 0 for c in poly[len(poly) - i:]), "inexact division"
        poly = poly[:len(poly) - i]
    return poly


def ranksum_exact_fraction(x_ranks, n):
    """Two-sided exact rank-sum p of the untied sample with ranks
    ``x_ranks`` among 1..n, as a Fraction over the Gaussian binomial."""
    k = len(x_ranks)
    counts = qbinomial_counts(n, k)
    base = k * (k + 1) // 2
    # compare doubled deviations from the mean k (n + 1) / 2 in integers
    dev_obs = abs(2 * sum(x_ranks) - k * (n + 1))
    hits = sum(c for j, c in enumerate(counts)
               if abs(2 * (base + j) - k * (n + 1)) >= dev_obs)
    return Fraction(hits, math.comb(n, k))


RANKSUM_SIZES = (1, 2, 5, 12, 25)


def gen_ranksum_exact():
    """Exact p for untied samples given by their ranks; the extreme W
    (lowest and highest ranks), a central block and two random draws for
    every (n1, n2) in RANKSUM_SIZES x RANKSUM_SIZES."""
    rng = random.Random(5146)
    cases = []
    for n1 in RANKSUM_SIZES:
        for n2 in RANKSUM_SIZES:
            n = n1 + n2
            start = (n - n1) // 2
            picks = [list(range(1, n1 + 1)), list(range(n2 + 1, n + 1)),
                     list(range(start + 1, start + n1 + 1))]
            picks += [sorted(rng.sample(range(1, n + 1), n1))
                      for _ in range(2)]
            seen = set()
            for x_ranks in picks:
                if tuple(x_ranks) in seen:
                    continue
                seen.add(tuple(x_ranks))
                y_ranks = [r for r in range(1, n + 1) if r not in x_ranks]
                p = ranksum_exact_fraction(x_ranks, n)
                if math.comb(n, n1) <= 200_000:
                    brute = ranksum_exact_p([float(r) for r in x_ranks],
                                            [float(r) for r in y_ranks])
                    assert abs(brute - float(p)) < 1e-15, (brute, p)
                res = st.mannwhitneyu(x_ranks, y_ranks,
                                      alternative="two-sided", method="exact")
                assert abs(float(res.pvalue) - float(p)) < 1e-12, (res, p)
                cases.append({"x_ranks": x_ranks, "n2": n2,
                              "w": float(sum(x_ranks)), "p": float(p)})
    return cases


def gen_norm_sf():
    """Normal tails through the untied rank-sum normal route, |z| up to 37.

    Sample x is i + shift for i < n1 and y is j for j < n2; a half-integer
    shift leaves no ties. ``z`` is the rank-sum z rounded to float64, ``p``
    is erfc(|z| / sqrt 2), the two-sided normal tail at that float.
    """
    specs = [(30, 30, 0.5), (30, 30, 5.5), (30, 30, 15.5), (30, 30, 30.5),
             (26, 40, -3.5), (40, 30, -40.5), (200, 150, 20.5),
             (200, 150, 80.5), (200, 150, 200.5), (500, 1400, 1400.5),
             (913, 913, 300.5), (913, 913, 600.5), (913, 913, 913.5)]
    cases = []
    for n1, n2, shift in specs:
        x = [i + shift for i in range(n1)]
        y = [float(j) for j in range(n2)]
        n = n1 + n2
        w = mp.mpf(ranksum_w(x, y))
        z = float((w - mp.mpf(n1) * (n + 1) / 2)
                  / mp.sqrt(mp.mpf(n1) * n2 * (n + 1) / 12))
        p = float(mp.erfc(abs(mp.mpf(z)) / mp.sqrt(2)))
        p_scipy = float(2 * st.norm.sf(abs(z)))
        assert abs(p - p_scipy) <= 1e-12 * p, (p, p_scipy)
        cases.append({"n1": n1, "n2": n2, "shift": shift, "z": z, "p": p})
    return cases


# ---------------------------------------------------------------------------
# Paired t-test
# ---------------------------------------------------------------------------

def gen_paired_t():
    rng = random.Random(2024)
    cases = []
    for _ in range(22):
        n = rng.randint(4, 80)
        x = [rng.gauss(0, 1) for _ in range(n)]
        y = [xi + rng.gauss(0.2, 0.8) for xi in x]
        res = st.ttest_rel(x, y)
        cases.append({"x": x, "y": y, "t": float(res.statistic),
                      "p": float(res.pvalue)})
    return cases


# ---------------------------------------------------------------------------
# BLEU / chrF (brute-force counting, coded independently of the package)
# ---------------------------------------------------------------------------

def bf_bleu(hyps, refs, max_order=4):
    correct = [0] * max_order
    total = [0] * max_order
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        h = hyp.split()
        r = ref.split()
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, max_order + 1):
            h_counts = Counter(tuple(h[i:i + n])
                               for i in range(len(h) - n + 1))
            r_counts = Counter(tuple(r[i:i + n])
                               for i in range(len(r) - n + 1))
            total[n - 1] += sum(h_counts.values())
            correct[n - 1] += sum(min(c, r_counts[g])
                                  for g, c in h_counts.items())
    precisions = []
    for n in range(max_order):
        if total[n] == 0:
            continue
        if correct[n] == 0:
            return 0.0
        precisions.append(correct[n] / total[n])
    if not precisions or hyp_len == 0:
        return 0.0
    log_mean = sum(map(math.log, precisions)) / len(precisions)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_mean)


def bf_chrf(hyps, refs, order=6, beta=2.0):
    stats = [[0, 0, 0] for _ in range(order)]
    for hyp, ref in zip(hyps, refs):
        h = "".join(hyp.split())
        r = "".join(ref.split())
        for n in range(1, order + 1):
            hc = Counter(h[i:i + n] for i in range(len(h) - n + 1))
            rc = Counter(r[i:i + n] for i in range(len(r) - n + 1))
            stats[n - 1][0] += sum(hc.values())
            stats[n - 1][1] += sum(rc.values())
            stats[n - 1][2] += sum((hc & rc).values())
    fs = []
    for hyp_total, ref_total, match in stats:
        if hyp_total == 0 and ref_total == 0:
            continue
        prec = match / hyp_total if hyp_total else 0.0
        rec = match / ref_total if ref_total else 0.0
        if prec + rec == 0:
            fs.append(0.0)
        else:
            fs.append((1 + beta**2) * prec * rec / (beta**2 * prec + rec))
    return 100.0 * sum(fs) / len(fs) if fs else 0.0


def gen_ngram():
    rng = random.Random(31337)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]
    cases = []
    for _ in range(12):
        n_segs = rng.randint(2, 8)
        refs, hyps = [], []
        for _ in range(n_segs):
            length = rng.randint(3, 12)
            ref = [rng.choice(vocab) for _ in range(length)]
            hyp = [w if rng.random() > 0.25 else rng.choice(vocab)
                   for w in ref]
            if rng.random() < 0.3:
                hyp = hyp[:max(1, len(hyp) - rng.randint(1, 2))]
            refs.append(" ".join(ref))
            hyps.append(" ".join(hyp))
        cases.append({
            "hyps": hyps, "refs": refs,
            "bleu": bf_bleu(hyps, refs),
            "chrf": bf_chrf(hyps, refs),
        })
    return cases


STATS_TABLES = {
    "pearson": gen_pearson,
    "fisher": gen_fisher,
    "williams": gen_williams,
    "wilcoxon": gen_wilcoxon,
    "paired_t": gen_paired_t,
    "t_sf": gen_t_sf,
    "norm_sf": gen_norm_sf,
    "ranksum_exact": gen_ranksum_exact,
}


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    stats_path = os.path.join(OUT_DIR, "stats_oracle.json")
    frozen = {}
    if os.path.exists(stats_path):
        with open(stats_path, encoding="utf-8") as fh:
            frozen = json.load(fh)
    tables = {key: frozen[key] if key in frozen else generate()
              for key, generate in STATS_TABLES.items()}
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tables, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sizes = {k: len(v) for k, v in tables.items()}
    print(f"wrote {stats_path}: {sizes}")

    ngram_path = os.path.join(OUT_DIR, "ngram_oracle.json")
    with open(ngram_path, "w", encoding="utf-8") as fh:
        json.dump(gen_ngram(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {ngram_path}")


if __name__ == "__main__":
    main()
