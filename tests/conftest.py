import json
import os

import pytest

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="session")
def stats_oracle():
    with open(os.path.join(DATA_DIR, "stats_oracle.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def ngram_oracle():
    with open(os.path.join(DATA_DIR, "ngram_oracle.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def tokenize_oracle():
    with open(os.path.join(DATA_DIR, "tokenize_oracle.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def noise_benchmark():
    from peereval.synthetic import make_noise_benchmark

    return make_noise_benchmark(n_segments=1000, seed=0)


@pytest.fixture(scope="session")
def golden_chain(tmp_path_factory):
    """``(directory, {output name: text})`` of one run of the CLI chain of
    ``scripts/gen_e2e_golden.py``, shared by ``test_e2e`` and
    ``test_invariance``. No test writes into the directory: a test that
    changes the chain's inputs changes a copy of it."""
    from test_e2e import load_script

    workdir = tmp_path_factory.mktemp("chain")
    return workdir, load_script().run_chain(workdir)
