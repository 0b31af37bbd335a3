#!/usr/bin/env python3
"""Run the benchmark on two versions of the repository in alternating pairs.

    python3 scripts/ab_bench.py PARENT CHANGE --workload baselines \\
        --pairs 10 --seed-base 81 --seconds 30

PARENT and CHANGE are each a git revision of this repository or a
directory holding a copy of it. Each is exported under one temporary
directory into ``parent`` and ``change``: sibling directories whose names
have the same length, because ``baselines`` ``peak_rss_mb`` moves with the
checkout path (``bench_common.py``, shared with ``bench_record.py``). Pair
k runs ``perfbench/run.py --trace 0`` at seed ``seed-base + k`` in both,
the parent first when k is even and the change first when k is odd, and
prints each run's values to stderr. Every run has
``PYTHONDONTWRITEBYTECODE=1`` in its environment, whatever the calling
shell holds, so both sides compile ``src/`` from source in every run.

Before the runs, it runs ``scripts/gen_e2e_golden.py --digest`` in both
trees and prints whether the two sets of output digests match, naming
every output whose digest differs or that only one side produces.

Then, for every end-to-end metric of the parent's ``BENCHMARK.json``, it
prints a Markdown row: each side's median and quartiles, in how many pairs
the change did better and in how many worse (a tie counts for neither, so
the two counts tell ties from losses), and whether that is a
gain by the rule of the choosing-metrics guide: at least nine tenths of the
pairs won, and medians further apart than the parent's quartiles. The last
column says whether the change's median is worse than the parent's by more
than that metric's relative ``bound`` in the parent's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from bench_common import (PINNED_ENV, SIDES, differing_outputs, export,
                          golden_digests, quartiles, run_bench, work_dir)


def summarize(parent_runs, change_runs, better):
    """One row per metric of ``better`` ({name: "lower" | "higher"}):
    (name, parent quartiles, change quartiles, change wins, change losses,
    gain).

    ``parent_runs[k]`` and ``change_runs[k]`` are pair k's
    ``{metric: value}``. The change wins a pair when its value is better
    and loses it when it is worse; a tie counts for neither. ``gain`` holds when the change wins at
    least nine tenths of the pairs and its median is better than the
    parent's by more than the parent's interquartile range.
    """
    rows = []
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
        p_stats, c_stats = quartiles(parent), quartiles(change)
        gain = (wins >= 0.9 * len(parent)
                and sign * (p_stats[0] - c_stats[0]) > p_stats[2] - p_stats[1])
        rows.append((name, p_stats, c_stats, wins, losses, gain))
    return rows


def worse_past_bound(parent_median, change_median, direction, bound):
    """Whether ``change_median`` is worse than ``parent_median`` by more
    than ``bound`` times the parent's magnitude; ``direction`` says which
    way is better ("lower" or "higher")."""
    sign = 1.0 if direction == "lower" else -1.0
    return sign * (change_median - parent_median) > bound * abs(parent_median)


def fmt(stats) -> str:
    """Median [q1, q3], each to 4 significant digits without an exponent."""
    median, q1, q3 = (f"{float(f'{v:.4g}'):g}" for v in stats)
    return f"{median} [{q1}, {q3}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision or directory")
    parser.add_argument("change", help="git revision or directory")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    with work_dir() as work:
        roots = {}
        for side, source in zip(SIDES, (args.parent, args.change)):
            roots[side] = os.path.join(work, side)
            export(source, roots[side])
        digests = {side: golden_digests(roots[side]) for side in SIDES}
        with open(os.path.join(roots["parent"], "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            metrics = json.load(fh)["end_to_end"]
        better = {m["name"]: m["better"] for m in metrics}
        bounds = {m["name"]: m["bound"] for m in metrics}
        values = {side: [] for side in SIDES}
        failed = {side: [0, 0] for side in SIDES}
        for k in range(args.pairs):
            seed = args.seed_base + k
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                result = run_bench(roots[side], args.workload, seed,
                                   args.seconds)
                values[side].append({name: m["value"] for name, m
                                     in result["metrics"].items()})
                failed[side][0] += result["failed"]
                failed[side][1] += result["attempted"]
                print(f"pair {k} seed {seed} {side}: " + " ".join(
                    f"{name}={value:.6g}"
                    for name, value in values[side][-1].items()),
                    file=sys.stderr, flush=True)

    pinned = " ".join(f"{name}={value}" for name, value in PINNED_ENV.items())
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed_base}-"
          f"{args.seed_base + args.pairs - 1}, {args.seconds}-s runs, "
          f"{pinned}; failed operations: parent {failed['parent'][0]} of "
          f"{failed['parent'][1]}, change {failed['change'][0]} of {failed['change'][1]}")
    differ = differing_outputs(digests["parent"], digests["change"])
    if differ:
        print(f"golden digests differ on {len(differ)} outputs: "
              + ", ".join(differ))
    else:
        print(f"golden digests match: {len(digests['parent'])} outputs")
    print("| workload | metric | parent median [q1, q3] "
          "| change median [q1, q3] | change better | change worse | gain "
          "| worse past bound |")
    print("|---|---|---|---|---|---|---|---|")
    for name, p_stats, c_stats, wins, losses, gain in summarize(
            values["parent"], values["change"], better):
        worse = worse_past_bound(p_stats[0], c_stats[0], better[name],
                                 bounds[name])
        print(f"| {args.workload} | `{name}` | {fmt(p_stats)} | {fmt(c_stats)} "
              f"| {wins}/{args.pairs} | {losses}/{args.pairs} "
              f"| {'yes' if gain else 'no'} "
              f"| {'yes' if worse else 'no'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
