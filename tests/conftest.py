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
