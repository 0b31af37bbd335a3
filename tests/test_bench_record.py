"""The record of ``scripts/bench_record.py``, built from made-up result
lines: no benchmark runs here."""

import json
import os

import pytest
from test_ab_bench import SCRIPTS, load_script

SCRIPT = os.path.join(SCRIPTS, "bench_record.py")

# perfbench/run.py ends each workload with one such line
RUN_LINES = [
    '{"correct": true, "attempted": 40, "failed": 0, "metrics": '
    '{"wall_s": {"value": 0.2, "unit": "s"}, '
    '"peer_r_all": {"value": 0.9, "unit": "r"}}}',
    '{"correct": true, "attempted": 44, "failed": 1, "metrics": '
    '{"wall_s": {"value": 0.4, "unit": "s"}, '
    '"peer_r_all": {"value": 0.9, "unit": "r"}}}',
    '{"correct": false, "attempted": 42, "failed": 0, "metrics": '
    '{"wall_s": {"value": 0.3, "unit": "s"}, '
    '"peer_r_all": {"value": 0.9, "unit": "r"}}}',
]
TRACED_LINE = (
    '{"correct": true, "attempted": 41, "failed": 0, "metrics": '
    '{"ngram.chrf_s": {"value": 0.08, "unit": "s"}, '
    '"ngram.lines": {"value": 1000, "unit": "count"}}}')


def test_seeds_are_an_inclusive_range_of_at_least_two():
    parse_seeds = load_script(SCRIPT).parse_seeds
    assert parse_seeds("3-7") == [3, 4, 5, 6, 7]
    assert parse_seeds("0-1") == [0, 1]
    for text in ("5", "5-5", "7-3", "a-b", "1-", ""):
        with pytest.raises(ValueError):
            parse_seeds(text)


def test_workload_record_from_made_up_result_lines():
    script = load_script(SCRIPT)
    record = script.workload_record([json.loads(line) for line in RUN_LINES],
                                    json.loads(TRACED_LINE))
    assert record == {
        "runs": [{"wall_s": 0.2, "peer_r_all": 0.9},
                 {"wall_s": 0.4, "peer_r_all": 0.9},
                 {"wall_s": 0.3, "peer_r_all": 0.9}],
        "summary": {
            "wall_s": {"median": 0.3, "q1": pytest.approx(0.25),
                       "q3": pytest.approx(0.35)},
            "peer_r_all": {"median": 0.9, "q1": 0.9, "q3": 0.9},
        },
        "correct": False,
        "attempted": 126,
        "failed": 1,
        "traced": {"correct": True, "attempted": 41, "failed": 0,
                   "rows": {"ngram.chrf_s": 0.08, "ngram.lines": 1000}},
    }


def test_record_holds_what_a_bench_file_needs_and_is_json():
    script = load_script(SCRIPT)
    workload = script.workload_record(
        [json.loads(line) for line in RUN_LINES[:2]],
        json.loads(TRACED_LINE))
    env = script.environment()
    assert sorted(env) == ["cpu_count", "numpy", "pinned_env", "python"]
    assert env["pinned_env"] == {"PYTHONDONTWRITEBYTECODE": "1"}
    record = script.build_record("0" * 40, False, [1, 2], 20,
                                 {"baselines": workload}, 97, env)
    assert json.loads(json.dumps(record)) == record
    assert record["revision"] == "0" * 40 and record["dirty"] is False
    assert record["seeds"] == [1, 2] and record["seconds"] == 20
    assert record["golden_digests"] == 97
    assert record["workloads"]["baselines"]["failed"] == 1
