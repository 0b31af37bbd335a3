"""What ``ab_bench.py`` and ``bench_record.py`` share: exporting a version of
the repository, running the benchmark in it under a pinned environment,
the golden-digest check and the quartiles of a series of runs.

A version is exported under ``work_dir()`` into one of ``SIDES``: sibling
directories whose names have the same length, because ``baselines``
``peak_rss_mb`` moves with the checkout path. So a tree that
``bench_record.py`` measures sits at a path as long as either side of an
``ab_bench.py`` comparison.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")   # equally long directory names
# Left out when a version is a directory: nothing the benchmark reads.
NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                    ".hypothesis", "_work")


def work_dir() -> tempfile.TemporaryDirectory:
    """The temporary directory that holds the exported sides."""
    return tempfile.TemporaryDirectory(prefix="ab_bench-")


def export(source: str, dest: str) -> None:
    """Copy the directory ``source``, or write git revision ``source`` of
    this repository, to ``dest``."""
    if os.path.isdir(source):
        shutil.copytree(source, dest, ignore=NOT_COPIED)
        return
    archive = subprocess.run(["git", "-C", REPO, "archive", source],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


# Pinned in the environment of every run: no side writes bytecode, so no
# run reads what an earlier one wrote.
PINNED_ENV = {"PYTHONDONTWRITEBYTECODE": "1"}


def bench_env(environ) -> dict:
    """The environment of a run: ``environ`` with ``PINNED_ENV`` over it."""
    return {**environ, **PINNED_ENV}


def run_bench(root: str, workload: str, seed: int, seconds: int,
              trace: int = 0) -> dict:
    """One run in ``root``: its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, env=bench_env(os.environ))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: run in {root} at seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def golden_digests(root: str) -> dict:
    """``{output name: sha256}`` of the golden CLI chain run in ``root``."""
    proc = subprocess.run(
        [sys.executable, "scripts/gen_e2e_golden.py", "--digest"], cwd=root,
        capture_output=True, text=True,
        env={**bench_env(os.environ), "PYTHONPATH": os.path.join(root, "src")})
    if proc.returncode != 0:
        raise SystemExit(f"error: golden digests in {root} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return parse_digests(proc.stdout)


def parse_digests(text: str) -> dict:
    """``<output name><TAB><sha256>`` lines as ``{name: sha256}``."""
    return dict(line.split("\t") for line in text.splitlines() if line)


def differing_outputs(parent: dict, change: dict) -> list:
    """The sorted names of the outputs whose digests differ, including
    those that only one side produces."""
    return sorted(name for name in parent.keys() | change.keys()
                  if parent.get(name) != change.get(name))


def quartiles(values):
    """(median, first quartile, third quartile) of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3
