#!/usr/bin/env python3
"""Record the benchmark of one version of the repository in a BENCH file.

    python3 scripts/bench_record.py HEAD --seeds 1-5 --seconds 20 \\
        -o BENCH_<n>.json

TREE is a git revision of this repository or a directory holding a copy of
it. It is exported where ``ab_bench.py`` exports its change side
(``bench_common.py``), so its path is as long as either side of a
comparison. Every workload of the tree's ``BENCHMARK.json`` runs
``perfbench/run.py --trace 0`` at each seed, then once with ``--trace 1``
at the first seed; every run has ``PINNED_ENV`` in its environment. Then
``scripts/gen_e2e_golden.py --digest`` runs in the tree. Five seeds of 20-s
runs take about 7 minutes on a 2-core host.

The JSON file holds the revision and whether the tree differs from it; the
Python and numpy versions, ``os.cpu_count()`` and the pinned environment;
the seeds and the run length; per workload each run's end-to-end values,
their median and quartiles, the attempted and failed operations, and the
traced run's per-layer rows; and the number of golden digests.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys

from bench_common import (PINNED_ENV, REPO, SIDES, export, golden_digests,
                          quartiles, run_bench, work_dir)


def parse_seeds(text: str) -> list:
    """The seeds of ``A-B``, A to B inclusive: at least two, for quartiles."""
    first, sep, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last if sep else first) + 1))
    except ValueError:
        raise ValueError(f"seeds must be A-B, got {text!r}") from None
    if len(seeds) < 2:
        raise ValueError(f"seeds {text!r} name fewer than two seeds")
    return seeds


def _git(*args, cwd=REPO):
    """The stripped stdout of a git command, or None if it fails."""
    proc = subprocess.run(["git", "-C", cwd, *args], capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def tree_revision(source: str):
    """``(revision, dirty)`` of ``source``: a directory's checked-out commit
    and whether its files differ from it (both None outside a git
    checkout), or the commit a revision names and False."""
    if os.path.isdir(source):
        revision = _git("rev-parse", "HEAD", cwd=source)
        if revision is None:
            return None, None
        return revision, bool(_git("status", "--porcelain", cwd=source))
    return _git("rev-parse", "--verify", f"{source}^{{commit}}"), False


def workload_record(runs: list, traced: dict) -> dict:
    """The record of one workload from its parsed result lines: ``runs``,
    the ``--trace 0`` runs in seed order, and ``traced``, the ``--trace 1``
    run."""
    values = [{name: m["value"] for name, m in run["metrics"].items()}
              for run in runs]
    summary = {}
    for name in values[0]:
        median, q1, q3 = quartiles([run[name] for run in values])
        summary[name] = {"median": median, "q1": q1, "q3": q3}
    return {
        "runs": values,
        "summary": summary,
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "traced": {
            "correct": traced["correct"],
            "attempted": traced["attempted"],
            "failed": traced["failed"],
            "rows": {name: m["value"]
                     for name, m in traced["metrics"].items()},
        },
    }


def environment() -> dict:
    """What the numbers depend on besides the code and the host."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy,
            "cpu_count": os.cpu_count(), "pinned_env": dict(PINNED_ENV)}


def build_record(revision, dirty, seeds, seconds, workloads: dict,
                 digests: int, env: dict) -> dict:
    """The BENCH file's content; ``workloads`` maps each workload to its
    ``workload_record``."""
    return {"revision": revision, "dirty": dirty, "environment": env,
            "seeds": list(seeds), "seconds": seconds,
            "workloads": workloads, "golden_digests": digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", help="git revision or directory")
    parser.add_argument("--seeds", required=True, help="A-B, inclusive")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))

    revision, dirty = tree_revision(args.tree)
    with work_dir() as work:
        root = os.path.join(work, SIDES[1])
        export(args.tree, root)
        with open(os.path.join(root, "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            names = [w["name"] for w in json.load(fh)["workloads"]]
        workloads = {}
        for name in names:
            runs = []
            for seed in seeds:
                runs.append(run_bench(root, name, seed, args.seconds))
                print(f"{name} seed {seed}: failed {runs[-1]['failed']} of "
                      f"{runs[-1]['attempted']}, " + " ".join(
                          f"{metric}={m['value']:.6g}" for metric, m
                          in runs[-1]["metrics"].items()),
                      file=sys.stderr, flush=True)
            traced = run_bench(root, name, seeds[0], args.seconds, trace=1)
            workloads[name] = workload_record(runs, traced)
        digests = len(golden_digests(root))

    record = build_record(revision, dirty, seeds, args.seconds, workloads,
                          digests, environment())
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for name, workload in workloads.items():
        print(f"{name}: failed {workload['failed']} of "
              f"{workload['attempted']}; " + ", ".join(
                  f"{metric} {s['median']:.4g}" for metric, s
                  in workload["summary"].items()))
    print(f"golden digests: {digests}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
