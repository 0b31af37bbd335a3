"""The CLI chain of ``scripts/gen_e2e_golden.py`` against its frozen outputs.

Text compares exactly. Floats compare at 1e-12 relative, so that a host
whose SIMD kernels round a last bit differently still passes; the exact
check between two commits is the script's ``--digest`` mode.
"""

import importlib.util
import json
import os
import re

import pytest

HERE = os.path.dirname(__file__)
SCRIPT = os.path.join(HERE, "..", "scripts", "gen_e2e_golden.py")
GOLDEN = os.path.join(HERE, "data", "e2e_golden.json")

# a float as repr writes it: a point or an exponent; integers stay in the text
FLOAT = re.compile(r"-?\d+(?:\.\d+(?:e[-+]?\d+)?|e[-+]?\d+)")


def load_script():
    spec = importlib.util.spec_from_file_location("gen_e2e_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_same_output(name, got, want):
    assert FLOAT.split(got) == FLOAT.split(want), f"{name}: text differs"
    got_floats = [float(x) for x in FLOAT.findall(got)]
    want_floats = [float(x) for x in FLOAT.findall(want)]
    assert got_floats == pytest.approx(want_floats, rel=1e-12, abs=0), (
        f"{name}: floats differ")


@pytest.fixture(scope="module")
def chain_outputs(golden_chain):
    return golden_chain[1]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_chain_produces_every_golden_output(chain_outputs, golden):
    assert list(chain_outputs) == list(golden)


def test_chain_outputs_match_golden(chain_outputs, golden):
    for name, want in golden.items():
        assert_same_output(name, chain_outputs[name], want)


def test_subword_samples_differ(golden):
    # a vocabulary that gives every word a piece of its own samples nothing
    assert golden["subword-sample:sample.1.txt"] != \
        golden["subword-sample:sample.2.txt"]


def test_second_pair_is_left_out_of_the_averages(golden):
    # the MAD filter keeps 3 of its 5 systems
    for line in golden["subsample-two-pairs:stdout"].splitlines():
        assert line.endswith("(unreliable: <4 systems: xc-xb)")
    subsample = golden["subsample-two-pairs:two-pairs/subsample.tsv"]
    assert "xc-xb\t" in subsample


def test_float_comparison_catches_a_changed_digit():
    want = '{"seg": 3, "logp": [-1.25, -2.5e-05]}\n'
    assert_same_output("same", want, want)
    with pytest.raises(AssertionError):
        assert_same_output("digit", want.replace("-1.25", "-1.26"), want)
    with pytest.raises(AssertionError):
        assert_same_output("seg id", want.replace("3", "4"), want)
