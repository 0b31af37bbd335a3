"""The summary of ``scripts/ab_bench.py`` and the parts it shares through
``scripts/bench_common.py``, on made-up runs: no benchmark runs here."""

import importlib.util
import os
import sys

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "scripts")
SCRIPT = os.path.join(SCRIPTS, "ab_bench.py")
# the run environment and the digest check, shared with bench_record.py
COMMON = os.path.join(SCRIPTS, "bench_common.py")


def load_script(path=SCRIPT):
    """The script at ``path`` as a module; it imports ``bench_common`` from
    its own directory, as it does when run."""
    if SCRIPTS not in sys.path:
        sys.path.insert(0, SCRIPTS)
    name = os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summarize_counts_wins_and_applies_the_gain_rule():
    parent = {
        "wall_s": [1.0, 1.2, 1.1, 1.3, 1.0],
        "seg_per_s": [10.0] * 5,
        "peak_rss_mb": [40.0, 41.0, 42.0, 43.0, 44.0],
        "peer_r_all": [0.9] * 5,
    }
    change = {
        # far better, but a tie leaves 4 of 5 pairs won
        "wall_s": [0.8, 0.9, 0.85, 1.3, 0.9],
        # higher is better; every pair won, and the parent does not spread
        "seg_per_s": [11.0, 12.0, 11.0, 11.0, 13.0],
        # every pair won by less than the parent's interquartile range
        "peak_rss_mb": [39.5, 40.5, 41.5, 42.5, 43.5],
        # ties in three pairs, losses in the other two
        "peer_r_all": [0.9, 0.8, 0.9, 0.7, 0.9],
    }
    better = {"wall_s": "lower", "seg_per_s": "higher",
              "peak_rss_mb": "lower", "peer_r_all": "higher"}

    def runs(side):
        return [{name: side[name][k] for name in side} for k in range(5)]

    rows = load_script().summarize(runs(parent), runs(change), better)
    assert rows == [
        ("wall_s", (1.1, 1.0, 1.2), (0.9, 0.85, 0.9), 4, 0, False),
        ("seg_per_s", (10.0, 10.0, 10.0), (11.0, 11.0, 12.0), 5, 0, True),
        ("peak_rss_mb", (42.0, 41.0, 43.0), (41.5, 40.5, 42.5), 5, 0, False),
        ("peer_r_all", (0.9, 0.9, 0.9), (0.9, 0.8, 0.9), 0, 2, False),
    ]


def test_worse_past_bound_on_made_up_runs():
    parent = [{"wall_s": v, "seg_per_s": 100.0 / v} for v in (1.0, 1.1, 1.2)]
    change = [{"wall_s": v, "seg_per_s": 100.0 / v} for v in (1.3, 1.4, 1.5)]
    script = load_script()
    rows = script.summarize(parent, change,
                            {"wall_s": "lower", "seg_per_s": "higher"})
    medians = {name: (p[0], c[0]) for name, p, c, *_ in rows}
    # wall_s 1.1 -> 1.4 is 27 % worse; seg_per_s 90.9 -> 71.4 is 21 % worse
    assert script.worse_past_bound(*medians["wall_s"], "lower", 0.25)
    assert not script.worse_past_bound(*medians["wall_s"], "lower", 0.3)
    assert script.worse_past_bound(*medians["seg_per_s"], "higher", 0.2)
    assert not script.worse_past_bound(*medians["seg_per_s"], "higher", 0.25)
    # a better median is never worse past its bound
    assert not script.worse_past_bound(1.4, 1.1, "lower", 0.0)
    assert not script.worse_past_bound(71.4, 90.9, "higher", 0.0)


def test_every_run_pins_bytecode_writing_off():
    bench_env = load_script(COMMON).bench_env
    assert bench_env({"PYTHONDONTWRITEBYTECODE": "", "HOME": "/h"}) == {
        "PYTHONDONTWRITEBYTECODE": "1", "HOME": "/h"}
    assert bench_env({}) == {"PYTHONDONTWRITEBYTECODE": "1"}


def test_golden_digests_compared_on_made_up_lines():
    script = load_script(COMMON)
    parent = script.parse_digests("a.tsv\t01\nb:out.json\t02\nc\t03\n")
    assert parent == {"a.tsv": "01", "b:out.json": "02", "c": "03"}
    assert script.differing_outputs(parent, dict(parent)) == []
    # one digest changed, one output gone, one new
    change = script.parse_digests("c\t03\nb:out.json\t0f\nd\t04\n")
    assert script.differing_outputs(parent, change) == [
        "a.tsv", "b:out.json", "d"]
