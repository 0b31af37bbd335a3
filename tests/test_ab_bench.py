"""The summary of ``scripts/ab_bench.py``, on made-up runs: no benchmark
runs here."""

import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "scripts", "ab_bench.py")


def load_script():
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summarize_counts_wins_and_applies_the_gain_rule():
    parent = {
        "wall_s": [1.0, 1.2, 1.1, 1.3, 1.0],
        "seg_per_s": [10.0] * 5,
        "peak_rss_mb": [40.0, 41.0, 42.0, 43.0, 44.0],
    }
    change = {
        # far better, but a tie leaves 4 of 5 pairs won
        "wall_s": [0.8, 0.9, 0.85, 1.3, 0.9],
        # higher is better; every pair won, and the parent does not spread
        "seg_per_s": [11.0, 12.0, 11.0, 11.0, 13.0],
        # every pair won by less than the parent's interquartile range
        "peak_rss_mb": [39.5, 40.5, 41.5, 42.5, 43.5],
    }
    better = {"wall_s": "lower", "seg_per_s": "higher",
              "peak_rss_mb": "lower"}

    def runs(side):
        return [{name: side[name][k] for name in side} for k in range(5)]

    rows = load_script().summarize(runs(parent), runs(change), better)
    assert rows == [
        ("wall_s", (1.1, 1.0, 1.2), (0.9, 0.85, 0.9), 4, False),
        ("seg_per_s", (10.0, 10.0, 10.0), (11.0, 11.0, 12.0), 5, True),
        ("peak_rss_mb", (42.0, 41.0, 43.0), (41.5, 40.5, 42.5), 5, False),
    ]


def test_every_run_pins_bytecode_writing_off():
    bench_env = load_script().bench_env
    assert bench_env({"PYTHONDONTWRITEBYTECODE": "", "HOME": "/h"}) == {
        "PYTHONDONTWRITEBYTECODE": "1", "HOME": "/h"}
    assert bench_env({}) == {"PYTHONDONTWRITEBYTECODE": "1"}
