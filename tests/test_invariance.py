"""Order and name invariance of the CLI outputs, on the golden chain's inputs.

The golden of ``tests/test_e2e.py`` fixes one order of rows and lines and
one set of system names, which sort in noise order, so it cannot see an
output that depends on either. Here ``scripts/gen_e2e_golden.py`` builds
the chain's inputs once, and the steps that read score TSVs, token-score
files or texts run again on changed copies of them:

  - seeded shuffles of the body rows of every score TSV, of the lines of
    every token-score JSONL file, and of the segments of the cross-BLEU
    texts (one permutation for all three, with ``--outputs`` in shuffled
    order) leave every output byte-identical;
  - a rename that reverses the sort order of the systems leaves every
    output equal up to row order once the names are mapped back, with
    floats at 1e-12 relative.
"""

import contextlib
import io
import os
import random
import shutil

import pytest
from test_e2e import assert_same_output, load_script

from peereval import cli
from peereval.data import write_lines

GOLDEN = load_script()

# the subcommands whose outputs are checked; the per-system score steps
# only build the joined system TSVs, which are shuffled here as inputs
CHECKED = ("score", "meta-eval", "pairwise", "subsample", "tune-thresholds",
           "cross-bleu")
SCORE_TSVS = ("human-seg.tsv", "human-sys.tsv", "mean-sys.tsv",
              "median-sys.tsv", "metric-seg.tsv",
              os.path.join(GOLDEN.TWO_PAIRS_DIR, "human-sys.tsv"),
              os.path.join(GOLDEN.TWO_PAIRS_DIR, "metric-seg.tsv"))
TEXTS = ("uni_ref.txt", "uni_a.txt", "uni_b.txt")
SEEDS = range(5)


@pytest.fixture(scope="module")
def chain(golden_chain):
    """(directory the golden chain ran in, its systems, the checked steps,
    their outputs there)."""
    workdir, outputs = golden_chain
    systems = sorted(path.stem for path in (
        workdir / GOLDEN.SCORES_DIR / GOLDEN.LANG_PAIR).iterdir())
    per_system = {f"score-{method}-{system}" for method in ("mean", "median")
                  for system in systems}
    steps = [(name, argv, files) for name, argv, files
             in GOLDEN._steps(systems)
             if not callable(argv) and argv[0] in CHECKED
             and name not in per_system]
    return workdir, systems, steps, {
        key: text for key, text in outputs.items()
        if key.split(":")[0] in {name for name, _, _ in steps}}


def run_steps(workdir, steps):
    """Run ``steps`` in ``workdir``; ``{output name: text}`` as
    ``run_chain`` names them."""
    outputs = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv, files in steps:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert cli.main(argv) == 0, name
            outputs[f"{name}:stdout"] = stdout.getvalue()
            for path in files:
                with open(path, encoding="utf-8") as fh:
                    outputs[f"{name}:{path}"] = fh.read()
    finally:
        os.chdir(cwd)
    return outputs


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


@pytest.mark.parametrize("seed", SEEDS)
def test_shuffled_rows_and_lines_leave_every_output_unchanged(
        chain, tmp_path, seed):
    workdir, _, steps, want = chain
    copy = shutil.copytree(workdir, tmp_path / "chain")
    rng = random.Random(seed)
    for name in SCORE_TSVS:
        header, *body = read(copy / name)
        rng.shuffle(body)
        write_lines(copy / name, [header, *body])
    for path in sorted(copy.rglob("*.jsonl")):
        lines = read(path)
        rng.shuffle(lines)
        write_lines(path, lines)
    texts = {name: read(copy / name) for name in TEXTS}
    order = list(range(len(texts[TEXTS[0]])))
    rng.shuffle(order)
    for name, lines in texts.items():
        write_lines(copy / name, [lines[i] for i in order])
    shuffled = []
    for name, argv, files in steps:
        if argv[0] == "cross-bleu":
            start = argv.index("--outputs") + 1
            end = start + len(TEXTS)
            argv = [*argv[:start], *rng.sample(argv[start:end], len(TEXTS)),
                    *argv[end:]]
        shuffled.append((name, argv, files))
    assert run_steps(copy, shuffled) == want


def test_renamed_systems_leave_every_output_unchanged(chain, tmp_path):
    workdir, systems, steps, want = chain
    copy = shutil.copytree(workdir, tmp_path / "chain")
    # system-f, ..., system-a: the sort order reversed
    renamed = {system: f"system-{chr(ord('a') + len(systems) - 1 - i)}"
               for i, system in enumerate(systems)}
    assert sorted(renamed, key=renamed.get) == systems[::-1]

    def rename(text):
        for old, new in renamed.items():
            text = text.replace(old, new)
        return text

    for name in SCORE_TSVS:
        write_lines(copy / name, map(rename, read(copy / name)))
    for path in sorted(copy.rglob("*.jsonl")):
        if path.stem in renamed:
            path.rename(path.with_name(f"{renamed[path.stem]}.jsonl"))
    got = run_steps(copy, [(name, [rename(a) for a in argv], files)
                           for name, argv, files in steps])
    assert list(got) == list(want)
    for key, text in got.items():
        for old, new in renamed.items():
            text = text.replace(new, old)
        assert_same_output(key, "\n".join(sorted(text.splitlines())),
                           "\n".join(sorted(want[key].splitlines())))
