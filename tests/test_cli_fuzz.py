"""Seeded input mutations through ``cli.main``: never a traceback.

Each subcommand gets a small valid set of input files. Each run mutates one
line of one of those files (a field set to ``nan``, ``1e400`` or ``-1``, a
byte that is not UTF-8, or the line dropped, duplicated or truncated) and
runs the subcommand in-process. It must exit 0, or exit 1 with stderr
starting ``error: ``; no exception may escape ``cli.main``.
"""

import contextlib
import io
import random
import re
import warnings

import pytest

from peereval import cli

SYSTEMS = "ABCDE"
LEVELS = (0.0, 0.1, 0.2, 0.3, 0.4)


def tsv(header, rows):
    return "\n".join(["\t".join(header)]
                     + ["\t".join(str(c) for c in row) for row in rows]) + "\n"


def system_tsv(order, pairs=("de-en",)):
    return tsv(["lang_pair", "system", "score"],
               [[lp, SYSTEMS[i], LEVELS[j]]
                for lp in pairs for i, j in enumerate(order)])


def segment_tsv(step, pairs=(("de-en", SYSTEMS, 6),)):
    """Segment scores; ``pairs`` holds (pair, systems, segment count)."""
    return tsv(["lang_pair", "system", "seg", "score"],
               [[lp, s, seg, level + (seg * step + k * 5) % 13 / 8]
                for lp, systems, n_segments in pairs
                for k, (s, level) in enumerate(zip(systems, LEVELS))
                for seg in range(n_segments)])


def jsonl(shift, token="u"):
    return "".join(
        f'{{"seg": {seg}, "tokens": ["t{seg}", "{token}"], '
        f'"logp": [{-0.25 * (seg + 1) - shift!r}, {-1.5 - shift!r}]}}\n'
        for seg in range(4))


TEXT = {
    "hyp.txt": "the cat sat on the mat .\npi is 3.14 !\na dog\n",
    "ref.txt": "the cat sat on a mat .\npi is 3.14 and e !\na big dog\n",
    "other.txt": "a cat sat on the mat\npi is 3,14\nthe dog\n",
}
CORPUS = ("lower lowest newer newest\nwider widest low new\n"
          "slow slower renew renewed\nowe wow lower newest widest\n")
SOURCE = "das haus\ndas buch\nein buch\nein haus\n"
TARGET = "the house\nthe book\na book\na house\n"

HUMAN = {"human.tsv": system_tsv((0, 1, 2, 3, 4))}
SEGMENTS = {"human-seg.tsv": segment_tsv(7), "metric-seg.tsv": segment_tsv(5)}
# the second pair has 2 systems on 2 segments, the least pairwise compares
TWO_PAIR_SEGMENTS = (("de-en", SYSTEMS, 6), ("fr-en", SYSTEMS[:2], 2))
TWO_PAIRS = ("de-en", "fr-en")

# id, subcommand arguments, input files (name -> text)
CASES = [
    ("score", ["score", "--samples", "a.jsonl", "--method", "mean"],
     {"a.jsonl": jsonl(0)}),
    ("score-threshold-segment",
     ["score", "--samples", "a.jsonl", "b.jsonl", "--method", "threshold"],
     {"a.jsonl": jsonl(0), "b.jsonl": jsonl(0.125, "v")}),
    ("score-median-token",
     ["score", "--samples", "a.jsonl", "b.jsonl", "--method", "median"],
     {"a.jsonl": jsonl(0), "b.jsonl": jsonl(0.125)}),
    ("meta-eval",
     ["meta-eval", "--human", "human.tsv", "--scores", "m.tsv",
      "--baseline", "b.tsv", "-o", "report.tsv"],
     {**HUMAN, "m.tsv": system_tsv((0, 2, 1, 3, 4)),
      "b.tsv": system_tsv((1, 0, 2, 4, 3))}),
    ("meta-eval-two-pairs",
     ["meta-eval", "--human", "human.tsv", "--scores", "m.tsv",
      "--baseline", "b.tsv"],
     {"human.tsv": system_tsv((0, 1, 2, 3, 4), TWO_PAIRS),
      "m.tsv": system_tsv((0, 2, 1, 3, 4), TWO_PAIRS),
      "b.tsv": system_tsv((1, 0, 2, 4, 3), TWO_PAIRS)}),
    ("pairwise",
     ["pairwise", "--human-seg", "human-seg.tsv", "--metric-seg",
      "metric-seg.tsv"], SEGMENTS),
    ("pairwise-two-pairs",
     ["pairwise", "--human-seg", "human-seg.tsv", "--metric-seg",
      "metric-seg.tsv"],
     {"human-seg.tsv": segment_tsv(7, TWO_PAIR_SEGMENTS),
      "metric-seg.tsv": segment_tsv(5, TWO_PAIR_SEGMENTS)}),
    ("bleu", ["bleu", "--hyp", "hyp.txt", "--ref", "ref.txt", "-o", "b.tsv"],
     TEXT),
    ("chrf", ["chrf", "--hyp", "hyp.txt", "--ref", "ref.txt"], TEXT),
    ("cross-bleu-matrix",
     ["cross-bleu", "--outputs", "hyp.txt", "ref.txt", "other.txt"], TEXT),
    ("subsample",
     ["subsample", "--human", "human.tsv", "--metric-seg", "metric-seg.tsv",
      "--sizes", "2,4", "--draws", "3"],
     {**HUMAN, "metric-seg.tsv": SEGMENTS["metric-seg.tsv"]}),
    ("subsample-two-pairs",
     ["subsample", "--human", "human.tsv", "--metric-seg", "metric-seg.tsv",
      "--sizes", "2", "--draws", "2"],
     {"human.tsv": system_tsv((0, 1, 2, 3, 4), TWO_PAIRS),
      "metric-seg.tsv": segment_tsv(5, (("de-en", SYSTEMS, 6),
                                        ("fr-en", SYSTEMS, 4)))}),
    ("tune-thresholds",
     ["tune-thresholds", "--human", "human.tsv", "--scores-dir", "s",
      "--grid=-2:0:4"],
     {**HUMAN, **{f"s/de-en/{s}.jsonl": jsonl(0.25 * (4 - k))
                  for k, s in enumerate(SYSTEMS)}}),
    ("subword-train",
     ["subword", "train", "--corpus", "corpus.txt", "--vocab-size", "30",
      "--rounds", "2", "-o", "model.tsv"], {"corpus.txt": CORPUS}),
    ("subword-nbest",
     ["subword", "nbest", "--model", "model.tsv", "--text", "lowest"],
     "subword-model"),
    ("subword-sample",
     ["subword", "sample", "--model", "model.tsv", "--input", "corpus.txt",
      "--k", "2", "-o", "sample"], "subword-model"),
    ("toy-scorer-train",
     ["toy-scorer", "train", "--source", "src.txt", "--target", "tgt.txt",
      "--iterations", "3", "-o", "table.tsv"],
     {"src.txt": SOURCE, "tgt.txt": TARGET}),
    ("toy-scorer-score",
     ["toy-scorer", "score", "--model", "table.tsv", "--source", "src.txt",
      "--target", "tgt.txt", "--ids", "ids.txt", "-o", "out.jsonl"],
     "lexical-table"),
]
RUNS_PER_CASE = 20


def run(args):
    """``cli.main(args)`` -> (exit status, stderr); warnings are dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        status = cli.main(args)
    return status, err.getvalue()


def trained_inputs(kind, tmp_path):
    """The valid inputs of a case that reads a trained model file, trained
    in the current directory, ``tmp_path``."""
    if kind == "subword-model":
        inputs = {"corpus.txt": CORPUS}
        train = ["subword", "train", "--corpus", "corpus.txt",
                 "--vocab-size", "30", "-o", "model.tsv"]
    else:
        inputs = {"src.txt": SOURCE, "tgt.txt": TARGET,
                  "ids.txt": "7\n3\n0\n12\n"}
        train = ["toy-scorer", "train", "--source", "src.txt", "--target",
                 "tgt.txt", "--iterations", "3", "-o", "table.tsv"]
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    assert run(train)[0] == 0
    model = train[-1]
    return {model: (tmp_path / model).read_text(), **inputs}


FIELD = re.compile(r'[^\s",:\[\]{}]+')


def mutate(data: bytes, rng: random.Random) -> bytes:
    """``data`` with one of its lines changed."""
    lines = data.split(b"\n")
    i = rng.randrange(len(lines) - 1)   # the text after the last LF is empty
    line = lines[i]
    kind = rng.choice(["field", "field", "byte", "drop", "duplicate",
                       "truncate"])
    fields = list(FIELD.finditer(line.decode()))
    if kind == "field" and fields:
        field = rng.choice(fields)
        value = rng.choice(["nan", "1e400", "-1"])
        lines[i] = (line.decode()[:field.start()] + value
                    + line.decode()[field.end():]).encode()
    elif kind == "byte":
        at = rng.randrange(len(line) + 1)
        lines[i] = line[:at] + b"\xff" + line[at:]
    elif kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, line)
    else:
        lines[i] = line[:rng.randrange(len(line) + 1)]
    return b"\n".join(lines)


@pytest.mark.parametrize("args, inputs", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_mutated_input_is_never_a_traceback(tmp_path, monkeypatch, args,
                                            inputs):
    monkeypatch.chdir(tmp_path)
    if isinstance(inputs, str):
        inputs = trained_inputs(inputs, tmp_path)
    valid = {name: text.encode() for name, text in inputs.items()}
    for name, data in valid.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(data)
    status, err = run(args)
    assert status == 0, f"the valid inputs must run: {err}"
    rng = random.Random(" ".join(args))
    for attempt in range(RUNS_PER_CASE):
        name = rng.choice(sorted(valid))
        mutated = mutate(valid[name], rng)
        (tmp_path / name).write_bytes(mutated)
        where = f"run {attempt}: {name} = {mutated!r}"
        try:
            status, err = run(args)
        except Exception as exc:
            pytest.fail(f"{where}: {type(exc).__name__}: {exc}")
        assert status == 0 or (status == 1 and err.startswith("error: ")), \
            f"{where}: exit {status}, stderr {err!r}"
        (tmp_path / name).write_bytes(valid[name])
