"""Tests of the benchmark itself: tracer arithmetic, the host clock,
fixture determinism, and a tiny run of every workload.

    python3 -m pytest -q perfbench/tests
"""

import filecmp
import json
import os
import time

import pytest

import fixture
import hostspeed
import workloads
from tracer import Tracer, package_import_ms, parse_importtime

ROOT = os.path.dirname(workloads.BENCH_DIR)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_directly_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        wrapped_leaf()
        wrapped_leaf()

    def outer():
        clock.now += 4.0
        wrapped_middle()
        unwrapped_work()

    def unwrapped_work():
        clock.now += 8.0

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    assert tracer.stats["leaf"] == [2, 2.0, 2.0]
    assert tracer.stats["middle"] == [1, 4.0, 2.0]
    # outer's own 4 s plus the unwrapped 8 s; middle (with its leaves) is not self time
    assert tracer.stats["outer"] == [1, 16.0, 12.0]


def test_installed_wraps_and_restores_module_attributes_and_dict_entries():
    import types

    module = types.SimpleNamespace(f=lambda: 1)
    table = {"g": lambda: 2}
    original_f, original_g = module.f, table["g"]
    tracer = Tracer()
    with tracer.installed([(module, "f", "m.f"), (table, "g", "t.g")]):
        assert module.f() == 1 and table["g"]() == 2
    assert module.f is original_f and table["g"] is original_g
    assert tracer.stats["m.f"][0] == 1 and tracer.stats["t.g"][0] == 1


def test_import_rows_count_each_package_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:       200 |        200 |     scipy._lib",
        "import time:       300 |        500 |   scipy.stats",
        "import time:        10 |        660 | peereval",
    ])
    rows = parse_importtime(stderr)
    assert rows[0] == (2, "numpy.core", 100)
    assert package_import_ms(rows, "numpy") == pytest.approx(0.150)
    assert package_import_ms(rows, "scipy") == pytest.approx(0.500)
    assert package_import_ms(rows, "peereval") == pytest.approx(0.660)


def test_host_clock_leaves_out_the_time_of_speed_samples():
    host = hostspeed.HostSpeed()
    wall, start = time.perf_counter(), host.clock()
    for _ in range(5):
        host.sample()
    assert len(host.samples) == 5
    assert host.clock() - start < 0.2 * (time.perf_counter() - wall)


def test_scale_takes_times_to_the_reference_core():
    slow = 2 * hostspeed.REFERENCE_LOOP_S
    assert hostspeed.scale([slow, slow]) == pytest.approx(0.5)
    assert hostspeed.scale([slow, slow / 2]) == pytest.approx(0.75)


def write_all_pairs(seed, directory):
    pairs = [
        fixture.make_pair("en-de", seed, 0, 30, far_off=True),
        fixture.make_pair("de-fr", seed, 2, 10, min_len=10, max_len=60),
        fixture.make_pair("en-fr", seed, 0, 30, script="ascii"),
        fixture.make_pair("en-zh", seed, 1, 30, script="cjk"),
    ]
    for pair in pairs:
        fixture.write_pair_files(pair, os.path.join(directory, pair.lang_pair))


def same_tree(a, b):
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors and all(
        same_tree(os.path.join(a, d), os.path.join(b, d)) for d in cmp.common_dirs)


def test_fixture_is_byte_identical_for_a_seed_and_differs_for_another(tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        write_all_pairs(seed, tmp_path / name)
    assert same_tree(tmp_path / "a", tmp_path / "b")
    assert not same_tree(tmp_path / "a", tmp_path / "c")


def test_surface_forms_cover_the_scripts_the_tokenizers_treat_differently():
    ascii_forms = "".join(fixture.surface_forms("ascii", 1))
    cjk_forms = "".join(fixture.surface_forms("cjk", 1))
    assert ascii_forms.isascii() and any(c.isdigit() for c in ascii_forms)
    assert any(c in "，。、！？" for c in cjk_forms)
    assert any(ord(c) > 0xFFFF for c in cjk_forms)
    assert any(c in "éèñüöçåâ" for c in cjk_forms)


@pytest.fixture(scope="module")
def tiny_runs():
    return {name: workloads.run(name, seed=5, seconds=0, trace=name != "cli-fanout",
                                sizes=workloads.TINY_SIZES[name])
            for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_has_no_failures(tiny_runs, name):
    summary = tiny_runs[name]
    assert summary["attempted"] > 0
    assert summary["failed"] == 0, summary["failures"]
    assert 0.9 < summary["values"]["peer_r_all"] <= 1.0


def test_every_listed_metric_is_measured(tiny_runs):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    measured = {"setup_s", "import.peereval_ms", "import.scipy_ms", "import.numpy_ms"}
    for summary in tiny_runs.values():
        measured |= set(summary["values"])
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert listed <= measured
