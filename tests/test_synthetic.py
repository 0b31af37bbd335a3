"""The synthetic noise benchmark and its files."""

from peereval import data, synthetic


def test_same_seed_same_benchmark():
    a = synthetic.make_noise_benchmark(n_segments=50, seed=4)
    b = synthetic.make_noise_benchmark(n_segments=50, seed=4)
    c = synthetic.make_noise_benchmark(n_segments=50, seed=5)
    assert a == b
    assert a.references != c.references


def test_noise_free_system_is_the_reference():
    bench = synthetic.make_noise_benchmark(n_segments=50, seed=1)
    assert bench.system_outputs["sys-noise00"] == bench.references
    assert bench.noise_rates["sys-noise00"] == 0.0
    assert bench.system_outputs["sys-noise50"] != bench.references


def test_shapes_follow_n_segments():
    rates = (0.0, 0.25, 0.5)
    bench = synthetic.make_noise_benchmark(n_segments=37, noise_rates=rates,
                                           min_len=2, max_len=5, seed=2)
    assert len(bench.sources) == len(bench.references) == 37
    assert sorted(bench.noise_rates.values()) == list(rates)
    for src, ref in zip(bench.sources, bench.references):
        assert 2 <= len(src) <= 5 and len(ref) == len(src)
    for outputs in bench.system_outputs.values():
        assert len(outputs) == 37
        assert [len(o) for o in outputs] == [len(r) for r in bench.references]


def test_files_round_trip(tmp_path):
    bench = synthetic.make_noise_benchmark(n_segments=30, seed=3)
    paths = synthetic.write_benchmark_files(bench, tmp_path)
    expected = {"source": bench.sources, "reference": bench.references,
                **bench.system_outputs}
    assert set(paths) == set(expected) | {"human"}
    for key, segments in expected.items():
        assert data.read_lines_with_ids(paths[key]) == \
            [(i, " ".join(toks)) for i, toks in enumerate(segments)]
    human = data.load_human_scores(paths["human"])
    lp = str(bench.lang_pair)
    assert human.system_scores == \
        {(lp, name): -rate for name, rate in bench.noise_rates.items()}
