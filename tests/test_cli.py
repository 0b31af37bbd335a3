"""The command line, run in-process through ``cli.main``."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest
import test_cli_fuzz
import test_e2e

from peereval import cli, ngram, synthetic
from peereval.data import (
    SYSTEM_KEYS,
    TokenScoredSegment,
    read_score_table,
    write_token_scores,
)


def test_toy_scorer_to_meta_eval(tmp_path):
    bench = synthetic.make_noise_benchmark(n_segments=200)
    lp = str(bench.lang_pair)
    paths = {}
    for key, segments in {"source": bench.sources,
                          "reference": bench.references,
                          **bench.system_outputs}.items():
        path = tmp_path / f"{key}.txt"
        path.write_text("".join(" ".join(toks) + "\n" for toks in segments))
        paths[key] = str(path)
    human = tmp_path / "human-sys.tsv"
    human.write_text("lang_pair\tsystem\tscore\n" + "".join(
        f"{lp}\t{name}\t{-rate!r}\n" for name, rate in bench.noise_rates.items()))
    table = str(tmp_path / "lexical-table.tsv")
    assert cli.main(["toy-scorer", "train", "--source", paths["source"],
                     "--target", paths["reference"], "-o", table]) == 0
    rows = []
    for name in sorted(bench.system_outputs):
        scores = str(tmp_path / f"{name}.jsonl")
        assert cli.main(["toy-scorer", "score", "--model", table,
                         "--source", paths["source"], "--target", paths[name],
                         "-o", scores]) == 0
        system_tsv = tmp_path / f"{name}.tsv"
        assert cli.main(["score", "--samples", scores, "--method", "mean",
                         "--system", name, "--lang-pair", lp,
                         "-o", str(system_tsv)]) == 0
        header, row = system_tsv.read_text().splitlines()
        rows.append(row)
    metric = tmp_path / "metric.tsv"
    metric.write_text("\n".join([header] + rows) + "\n")
    report = tmp_path / "report.json"
    assert cli.main(["meta-eval", "--human", str(human),
                     "--scores", str(metric), "--format", "json",
                     "-o", str(report)]) == 0
    (pair,) = json.loads(report.read_text())["per_pair"]
    assert pair["lang_pair"] == lp
    assert pair["n_systems"] == len(bench.system_outputs)
    assert pair["r"] > 0.99


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


# standard-library modules that the CLI's own import leaves out: dataclasses
# (with the inspect it pulls in) and json cost about 11 ms of cold start
SLOW_STDLIB = ("dataclasses", "inspect", "json")


def modules_loaded(code, cwd=None):
    """What a fresh interpreter has loaded after running ``code``: the
    non-stdlib top-level packages it loaded, space-separated, and the
    ``SLOW_STDLIB`` modules in ``sys.modules``, space-separated.

    numpy's Cython-built extensions (``numpy.random``) also enter
    ``cython_runtime`` and ``_cython_<version>`` in ``sys.modules``; they
    are not packages and are left out."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            + code +
            "loaded = {m.split('.')[0] for m in set(sys.modules) - before\n"
            "          if not m.startswith(('cython_runtime', '_cython_'))}\n"
            f"print(' '.join(m for m in {SLOW_STDLIB!r} if m in sys.modules))\n"
            "print(' '.join(sorted(loaded - set(sys.stdlib_module_names))))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, cwd=cwd,
                            env=dict(os.environ, PYTHONPATH=SRC))
    assert result.returncode == 0, result.stderr
    slow, third_party = result.stdout.splitlines()[-2:]
    return third_party, slow


def test_cli_import_loads_only_the_standard_library():
    # each subcommand imports what it runs, so the CLI itself loads no
    # third-party package, numpy included, and records are namedtuples, so
    # it loads no dataclasses; only the JSONL reader and writer import json
    assert modules_loaded("import peereval.cli\n") == ("peereval", "")


def test_metaeval_import_loads_only_the_standard_library():
    # only subsample_correlations imports numpy, where it runs
    assert modules_loaded("import peereval.metaeval\n")[0] == "peereval"


@pytest.mark.parametrize("args, loaded", [
    (["bleu", "--hyp", "a.txt", "--ref", "b.txt"], "peereval"),
    (["chrf", "--hyp", "a.txt", "--ref", "b.txt"], "peereval"),
    (["cross-bleu", "--outputs", "a.txt", "b.txt"], "peereval"),
    (["score", "--samples", "a.jsonl", "--method", "mean"], "numpy peereval"),
    (["meta-eval", "--human", "human.tsv", "--scores", "scores.tsv"],
     "peereval"),
    (["pairwise", "--human-seg", "seg.tsv", "--metric-seg", "seg.tsv"],
     "peereval"),
    # 3 untied segments per system: the exact rank-sum null
    (["pairwise", "--human-seg", "untied.tsv", "--metric-seg", "seg3.tsv"],
     "peereval"),
    (["tune-thresholds", "--human", "five.tsv", "--scores-dir", "s"],
     "numpy peereval"),
    (["subsample", "--human", "human.tsv", "--metric-seg", "seg.tsv",
      "--sizes", "1"], "numpy peereval"),
    (["subword", "train", "--corpus", "a.txt", "--vocab-size", "5",
      "-o", "new-model.tsv"], "numpy peereval"),
    (["subword", "nbest", "--model", "model.tsv", "--text", "abc"],
     "numpy peereval"),
    (["subword", "sample", "--model", "model.tsv", "--input", "a.txt",
      "--k", "2", "-o", "sample"], "numpy peereval"),
    (["toy-scorer", "train", "--source", "a.txt", "--target", "b.txt",
      "-o", "new-table.tsv"], "numpy peereval"),
    (["toy-scorer", "score", "--model", "table.tsv", "--source", "a.txt",
      "--target", "b.txt", "-o", "out.jsonl"], "numpy peereval"),
], ids=["bleu", "chrf", "cross-bleu", "score", "meta-eval", "pairwise",
        "pairwise-exact", "tune-thresholds", "subsample", "subword-train",
        "subword-nbest", "subword-sample", "toy-scorer-train",
        "toy-scorer-score"])
def test_subcommand_loads_only_what_it_runs(tmp_path, args, loaded):
    # the text subcommands, meta-eval (system-level statistics) and
    # pairwise (rank-sum and paired t tests) never load numpy; numpy is the
    # one dependency the others load, and no subcommand loads dataclasses
    (tmp_path / "a.txt").write_text("a b c\n")
    (tmp_path / "b.txt").write_text("a b d\n")
    (tmp_path / "a.jsonl").write_text(JSONL + "\n")
    (tmp_path / "human.tsv").write_text(HUMAN_TSV)
    (tmp_path / "scores.tsv").write_text(HUMAN_TSV)
    (tmp_path / "seg.tsv").write_text(
        SEG_TSV + "de-en\tA\t1\t0.3\nde-en\tB\t0\t0.2\nde-en\tB\t1\t0.1\n")
    seg_header = SEG_TSV.split("\n")[0] + "\n"
    (tmp_path / "untied.tsv").write_text(seg_header + "".join(
        f"de-en\t{s}\t{seg}\t{k + 2 * seg}\n"
        for k, s in enumerate("AB") for seg in range(3)))
    (tmp_path / "seg3.tsv").write_text(seg_header + "".join(
        f"de-en\t{s}\t{seg}\t{(k + 1) * seg / 8}\n"
        for k, s in enumerate("AB") for seg in range(3)))
    (tmp_path / "five.tsv").write_text(HEADER + rows("de-en", HUMAN))
    (tmp_path / "s" / "de-en").mkdir(parents=True)
    for system, level in zip(SYSTEMS, METRIC):
        write_samples(tmp_path / "s" / "de-en" / f"{system}.jsonl",
                      [[-0.5 - level], [-1.5 - level], [-0.25]])
    # the models that nbest, sample and score read, trained in this process
    assert cli.main(["subword", "train", "--corpus", str(tmp_path / "a.txt"),
                     "--vocab-size", "5", "-o",
                     str(tmp_path / "model.tsv")]) == 0
    assert cli.main(["toy-scorer", "train", "--source",
                     str(tmp_path / "a.txt"), "--target",
                     str(tmp_path / "b.txt"), "-o",
                     str(tmp_path / "table.tsv")]) == 0
    code = f"from peereval import cli\nassert cli.main({args!r}) == 0\n"
    third_party, slow = modules_loaded(code, cwd=tmp_path)
    assert third_party == loaded
    assert "dataclasses" not in slow.split()


def leaf_commands(parser, prefix=()):
    """The argv prefix of every subcommand that runs, nested ones included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return [leaf for name, child in action.choices.items()
                    for leaf in leaf_commands(child, prefix + (name,))]
    return [prefix]


def test_every_subcommand_is_fuzzed_and_in_the_golden_chain():
    leaves = leaf_commands(cli.build_parser())
    assert {("subword", "sample"), ("toy-scorer", "score")} <= set(leaves)
    fuzzed = [args for _, args, _ in test_cli_fuzz.CASES]
    golden = [action for _, action, _ in test_e2e.load_script()._steps(["A"])
              if not callable(action)]
    for leaf in leaves:
        assert any(tuple(args[:len(leaf)]) == leaf for args in fuzzed), \
            f"{' '.join(leaf)}: no case in test_cli_fuzz.CASES"
        assert any(tuple(args[:len(leaf)]) == leaf for args in golden), \
            f"{' '.join(leaf)}: no step in the golden chain"


HUMAN_TSV = "lang_pair\tsystem\tscore\nde-en\tA\t0.1\nde-en\tB\t0.2\n"
SEG_TSV = "lang_pair\tsystem\tseg\tscore\nde-en\tA\t0\t0.1\n"
JSONL = '{"seg": 0, "tokens": ["a"], "logp": [-1.0]}'

# subcommand arguments, the file that gets an undecodable byte on line 2
# (after a valid first line) and the other, valid input files
UNDECODABLE = [
    pytest.param(["score", "--samples", "bad.jsonl", "--method", "mean"],
                 "bad.jsonl", JSONL, {}, id="score"),
    pytest.param(["meta-eval", "--human", "human.tsv", "--scores", "bad.tsv"],
                 "bad.tsv", "lang_pair\tsystem\tscore", {"human.tsv": HUMAN_TSV},
                 id="meta-eval"),
    pytest.param(["meta-eval", "--human", "bad.tsv", "--scores", "scores.tsv"],
                 "bad.tsv", "lang_pair\tsystem\tscore",
                 {"scores.tsv": HUMAN_TSV}, id="meta-eval-human"),
    pytest.param(["pairwise", "--human-seg", "bad.tsv", "--metric-seg", "m.tsv"],
                 "bad.tsv", "lang_pair\tsystem\tseg\tscore", {"m.tsv": SEG_TSV},
                 id="pairwise"),
    pytest.param(["bleu", "--hyp", "hyp.txt", "--ref", "bad.txt"],
                 "bad.txt", "a b", {"hyp.txt": "a b\nc\n"}, id="bleu"),
    pytest.param(["chrf", "--hyp", "bad.txt", "--ref", "ref.txt"],
                 "bad.txt", "a b", {"ref.txt": "a b\nc\n"}, id="chrf"),
    pytest.param(["cross-bleu", "--outputs", "a.txt", "bad.txt"],
                 "bad.txt", "a b", {"a.txt": "a b\nc\n"}, id="cross-bleu"),
    pytest.param(["subsample", "--human", "human.tsv", "--metric-seg", "bad.tsv"],
                 "bad.tsv", "lang_pair\tsystem\tseg\tscore",
                 {"human.tsv": HUMAN_TSV}, id="subsample"),
    pytest.param(["tune-thresholds", "--human", "human.tsv", "--scores-dir", "s"],
                 os.path.join("s", "de-en", "A.jsonl"), JSONL,
                 {"human.tsv": HUMAN_TSV}, id="tune-thresholds"),
    pytest.param(["subword", "train", "--corpus", "bad.txt", "--vocab-size", "9",
                  "-o", "model.tsv"],
                 "bad.txt", "a b", {}, id="subword-train"),
    pytest.param(["subword", "nbest", "--model", "bad.tsv", "--text", "ab"],
                 "bad.tsv", "a\t-1.0", {}, id="subword-nbest"),
    pytest.param(["subword", "sample", "--model", "model.tsv", "--input",
                  "bad.txt", "--k", "1", "-o", "sample"],
                 "bad.txt", "a b", {"model.tsv": "a\t-1.0\nb\t-1.0\n"},
                 id="subword-sample"),
    pytest.param(["toy-scorer", "train", "--source", "bad.txt", "--target",
                  "t.txt", "-o", "table.tsv"],
                 "bad.txt", "a b", {"t.txt": "x y\nz\n"}, id="toy-scorer-train"),
    pytest.param(["toy-scorer", "score", "--model", "table.tsv", "--source",
                  "s.txt", "--target", "t.txt", "--ids", "bad.txt",
                  "-o", "out.jsonl"],
                 "bad.txt", "0", {"table.tsv": "x\t<NULL>\t1.0\n",
                                  "s.txt": "a\nb\n", "t.txt": "x\nx\n"},
                 id="toy-scorer-score"),
]


@pytest.mark.parametrize("args,bad,first_line,inputs", UNDECODABLE)
def test_undecodable_byte_is_one_error_line(tmp_path, args, bad, first_line,
                                            inputs):
    # a fresh interpreter, as a user runs it: exit 1 and one line naming
    # path:line, no traceback
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    (tmp_path / bad).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / bad).write_bytes(first_line.encode() + b"\n\xff\n")
    result = subprocess.run([sys.executable, "-m", "peereval.cli", *args],
                            capture_output=True, text=True, cwd=tmp_path,
                            env=dict(os.environ, PYTHONPATH=SRC))
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert re.fullmatch(f"error: {re.escape(bad)}:2: [^\n]+\n", result.stderr)


def test_toy_score_errors_name_the_file(tmp_path, capsys):
    table, src, tgt, ids = (tmp_path / name for name in
                            ("table.tsv", "s.txt", "t.txt", "ids.txt"))
    table.write_text("x\t<NULL>\t1.0\nx\ta\t1.0\n")
    src.write_text("a\na\na\n")
    tgt.write_text("x\n\nx\n")
    ids.write_text("40\n41\n42\n")
    out = str(tmp_path / "out.jsonl")
    args = ["toy-scorer", "score", "--model", str(table), "--source", str(src),
            "--target", str(tgt), "--ids", str(ids), "-o", out]
    # an empty target is named by its id from the sidecar, not its line
    assert cli.main(args) == 1
    assert capsys.readouterr().err == "error: segment 41: empty target\n"
    tgt.write_text("x\nx\nx\n")
    table.write_text("x\t<NULL>\t1.0\nx\ta\tnan\n")
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith(f"error: {table}:2: ")
    assert not os.path.exists(out)


def test_toy_score_target_of_another_length_is_an_error(tmp_path, capsys):
    table, src, tgt = (tmp_path / name for name in
                       ("table.tsv", "s.txt", "t.txt"))
    table.write_text("x\t<NULL>\t1.0\nx\ta\t1.0\n")
    src.write_text("a\na\na\n")
    tgt.write_text("x\nx\n")
    out = tmp_path / "out.jsonl"
    assert cli.main(["toy-scorer", "score", "--model", str(table),
                     "--source", str(src), "--target", str(tgt),
                     "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {tgt} and {src} cover different segments\n")
    assert not out.exists()


def test_missing_hyp_is_an_error(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    ref.write_text("a b\n")
    missing = tmp_path / "missing.txt"
    assert cli.main(["bleu", "--hyp", str(missing), "--ref", str(ref)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_lone_cr_stays_inside_its_segment(tmp_path, capsys):
    hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
    hyp.write_bytes(b"a b\rc d\r\ne f\r\n")
    ref.write_bytes(b"a b c d\ne f\n")
    assert cli.main(["bleu", "--hyp", str(hyp), "--ref", str(ref)]) == 0
    assert capsys.readouterr().out == "100.000\n"


def test_missing_human_is_an_error(tmp_path, capsys):
    scores = tmp_path / "scores.tsv"
    scores.write_text("lang_pair\tsystem\tscore\nde-en\tA\t0.1\n")
    missing = tmp_path / "human.tsv"
    assert cli.main(["meta-eval", "--human", str(missing),
                     "--scores", str(scores)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def write_samples(path, logps_by_seg):
    write_token_scores(path, [
        TokenScoredSegment(i, [f"t{j}" for j in range(len(logps))], logps)
        for i, logps in enumerate(logps_by_seg)
    ])
    return str(path)


def system_score_of(capsys):
    header, row = capsys.readouterr().out.splitlines()
    assert header == "system\tlang_pair\tscore\tn_segments"
    return row.split("\t")[2:]


def test_score_threshold_modes(tmp_path, capsys):
    # band (-1.0, -0.6); dyadic log-probs keep every mean exact
    a = write_samples(tmp_path / "a.jsonl",
                      [[-0.25, -0.25], [-2.0], [-0.75, -0.75], [-0.5]])
    b = write_samples(tmp_path / "b.jsonl",
                      [[-1.75, -1.75], [-0.5], [-0.25, -0.25], [-1.5]])
    c = write_samples(tmp_path / "c.jsonl",
                      [[-0.5], [-1.0, -1.0], [-1.5], [-2.0, -2.0]])
    # one sample: means -0.25, -2, -0.75, -0.5 -> +1, -1, 0, +1
    assert cli.main(["score", "--samples", a, "--method", "threshold"]) == 0
    assert system_score_of(capsys) == ["0.25", "4"]
    # token mode: per-token means give -1 (boundary), -1.25, -0.5, -1
    # (boundary) -> 0, -1, +1, 0
    assert cli.main(["score", "--samples", a, b,
                     "--method", "threshold"]) == 0
    assert system_score_of(capsys) == ["0.0", "4"]
    # a and c tokenize every segment differently, so whole segments are
    # averaged: mean sum / mean length gives -1/3, -4/3, -1 (boundary),
    # -1.5 -> +1, -1, 0, -1
    assert cli.main(["score", "--samples", a, c,
                     "--method", "threshold"]) == 0
    assert system_score_of(capsys) == ["-0.25", "4"]
    assert cli.main(["score", "--samples", a, "--method", "threshold",
                     "--low", "-0.6", "--high", "-1.0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(-0.6, -1.0)" in err


@pytest.mark.parametrize("method", ["sum", "mean", "median", "min",
                                    "negstd", "threshold"])
def test_score_names_a_record_whose_sum_overflows(tmp_path, capsys, method):
    # each log-prob is finite, but their sum is -inf
    path = tmp_path / "a.jsonl"
    path.write_text('{"seg": 0, "tokens": ["a"], "logp": [-1.0]}\n'
                    '{"seg": 1, "tokens": ["a", "b"], '
                    '"logp": [-1e308, -1e308]}\n')
    assert cli.main(["score", "--samples", str(path),
                     "--method", method]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}:2: segment 1: log-prob sum "
                            "overflows\n")


def overflowing_subsample(tmp_path):
    # A's mean over a 2-segment draw is inf
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN))
    metric = tmp_path / "metric-seg.tsv"
    metric.write_text("lang_pair\tsystem\tseg\tscore\n" + segment_rows(
        "de-en", [[1e308, 1e308]] + [[m, m + 0.5] for m in METRIC[1:]]))
    return ["subsample", "--human", str(human), "--metric-seg", str(metric),
            "--sizes", "2", "--draws", "1"]


def overflowing_system_mean(tmp_path):
    path = write_samples(tmp_path / "a.jsonl", [[-1e307]] * 20)
    return ["score", "--samples", path, "--method", "sum"]


def overflowing_samples(tmp_path, tokens):
    """20 samples of segment 0, sample k one token ``tokens[k]``."""
    paths = []
    for k, token in enumerate(tokens):
        path = tmp_path / f"s{k}.jsonl"
        write_token_scores(path, [TokenScoredSegment(0, [token], [-1e307])])
        paths.append(str(path))
    return ["score", "--samples", *paths, "--method", "sum"]


def overflowing_segment_mode(tmp_path):
    return overflowing_samples(tmp_path, [f"t{k}" for k in range(20)])


def overflowing_token_mode(tmp_path):
    return overflowing_samples(tmp_path, ["t"] * 20)


@pytest.mark.parametrize("command, message", [
    (overflowing_subsample, "de-en: metric score of A is not finite: inf"),
    (overflowing_system_mean, "system: non-finite system score"),
    (overflowing_segment_mode, "segment 0: non-finite score"),
    (overflowing_token_mode, "segment 0: non-finite log-prob -inf"),
], ids=["subsample", "system-mean", "segment-mode", "token-mode"])
def test_mean_past_the_float_range_is_one_error_line(tmp_path, capsys,
                                                     command, message):
    # finite inputs whose numpy mean overflows: the error, and no warning
    assert cli.main(command(tmp_path)) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_score_keeps_the_old_output_when_a_line_is_not_utf8(tmp_path, capsys):
    # argv bytes that are not UTF-8 reach Python as lone surrogates: the
    # byte 0xff as "\udcff"
    sample = write_samples(tmp_path / "a.jsonl", [[-0.5], [-1.5]])
    out = tmp_path / "out.tsv"
    out.write_bytes(b"old\n")
    assert cli.main(["score", "--samples", sample, "--method", "mean",
                     "--system", "\udcff", "-o", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {out}:2: '\\udcff' cannot be encoded as UTF-8\n")
    assert out.read_bytes() == b"old\n"


SYSTEMS = "ABCDE"
HEADER = "lang_pair\tsystem\tscore\n"
HUMAN = (0.0, 0.1, 0.2, 0.3, 0.4)
METRIC = (0.0, 0.2, 0.1, 0.3, 0.4)


def rows(lang_pair, values):
    return "".join(f"{lang_pair}\t{s}\t{v!r}\n" for s, v in zip(SYSTEMS, values))


def test_baseline_missing_kept_system_is_an_error(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN))
    scores = tmp_path / "scores.tsv"
    scores.write_text(HEADER + rows("de-en", METRIC))
    baseline = tmp_path / "baseline.tsv"
    baseline.write_text(HEADER + rows("de-en", METRIC[:-1]))
    assert cli.main(["meta-eval", "--human", str(human), "--scores",
                     str(scores), "--baseline", str(baseline)]) == 1
    assert capsys.readouterr().err == \
        f"error: {baseline}: de-en: no metric score for E\n"


def test_scores_missing_kept_system_is_an_error(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN))
    scores = tmp_path / "scores.tsv"
    scores.write_text(HEADER + rows("de-en", METRIC[:-1]))
    baseline = tmp_path / "baseline.tsv"
    baseline.write_text(HEADER + rows("de-en", METRIC))
    for extra in ([], ["--baseline", str(baseline)]):
        assert cli.main(["meta-eval", "--human", str(human), "--scores",
                         str(scores), *extra]) == 1
        assert capsys.readouterr().err == \
            f"error: {scores}: de-en: no metric score for E\n"


def test_tune_thresholds_system_without_scores_is_an_error(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN))
    (tmp_path / "de-en").mkdir()
    for i, system in enumerate(SYSTEMS[:-1]):
        write_samples(tmp_path / "de-en" / f"{system}.jsonl",
                      [[-0.5 * (i + 1)], [-0.25]])
    assert cli.main(["tune-thresholds", "--human", str(human),
                     "--scores-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # named with the directory, as meta-eval names its score file
    assert captured.err == f"error: {tmp_path}: de-en: no metric score for E\n"


def test_tune_thresholds_names_the_pair_without_human_score(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN))
    scores_dir = tmp_path / "scores"
    for lp in ("de-en", "fr-en"):
        (scores_dir / lp).mkdir(parents=True)
        for system, level in zip(SYSTEMS, METRIC):
            write_samples(scores_dir / lp / f"{system}.jsonl",
                          [[-0.5 - level], [-0.25]])
    assert cli.main(["tune-thresholds", "--human", str(human),
                     "--scores-dir", str(scores_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {scores_dir}: fr-en: no human scores\n"


@pytest.mark.parametrize("fr_en_dir", [None, "empty", "other files"])
def test_tune_thresholds_names_the_pair_without_token_scores(
        tmp_path, capsys, fr_en_dir):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN) + rows("fr-en", HUMAN))
    scores_dir = tmp_path / "scores"
    (scores_dir / "de-en").mkdir(parents=True)
    for system, level in zip(SYSTEMS, METRIC):
        write_samples(scores_dir / "de-en" / f"{system}.jsonl",
                      [[-0.5 - level], [-0.25]])
    if fr_en_dir is not None:
        (scores_dir / "fr-en").mkdir()
    if fr_en_dir == "other files":
        (scores_dir / "fr-en" / "notes.txt").write_text("")
    assert cli.main(["tune-thresholds", "--human", str(human),
                     "--scores-dir", str(scores_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {scores_dir}: fr-en: no token-score files\n")


def test_tune_thresholds_without_a_language_pair_is_an_error(tmp_path,
                                                            capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER)
    scores_dir = tmp_path / "scores"
    scores_dir.mkdir()
    assert cli.main(["tune-thresholds", "--human", str(human),
                     "--scores-dir", str(scores_dir)]) == 1
    assert capsys.readouterr().err == (
        f"error: {scores_dir}: no language pairs\n")


def test_tune_thresholds_with_empty_token_score_files_is_an_error(tmp_path,
                                                                  capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN))
    lp_dir = tmp_path / "scores" / "de-en"
    lp_dir.mkdir(parents=True)
    for system in SYSTEMS:
        (lp_dir / f"{system}.jsonl").write_text("")
    assert cli.main(["tune-thresholds", "--human", str(human),
                     "--scores-dir", str(tmp_path / "scores")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {lp_dir / 'A.jsonl'}: no token-score records\n")


def tune_thresholds_output(tmp_path, capsys, human_pair, dir_pair):
    tmp_path.mkdir(exist_ok=True)
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows(human_pair, HUMAN))
    scores_dir = tmp_path / "scores"
    (scores_dir / dir_pair).mkdir(parents=True)
    for system, level in zip(SYSTEMS, METRIC):
        write_samples(scores_dir / dir_pair / f"{system}.jsonl",
                      [[-0.5 - level], [-1.5 - level], [-0.25]])
    assert cli.main(["tune-thresholds", "--human", str(human),
                     "--scores-dir", str(scores_dir), "--grid=-2:0:5"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("human_pair, dir_pair", [
    ("DE-EN", "DE-EN"), ("de-en", "De-En"), ("DE-EN", "de-en")])
def test_tune_thresholds_language_pair_case(tmp_path, capsys, human_pair,
                                            dir_pair):
    want = tune_thresholds_output(tmp_path / "lower", capsys, "de-en", "de-en")
    assert tune_thresholds_output(tmp_path, capsys, human_pair,
                                  dir_pair) == want


def test_tune_thresholds_default_grid(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN))
    (tmp_path / "de-en").mkdir()
    for system, level in zip(SYSTEMS, METRIC):
        write_samples(tmp_path / "de-en" / f"{system}.jsonl",
                      [[-0.5 - level], [-1.5 - level], [-0.25]])
    args = ["tune-thresholds", "--human", str(human),
            "--scores-dir", str(tmp_path)]
    bands = []
    for grid in ([], ["--grid=-3:0:16"], ["--grid=-2:0:5"]):
        assert cli.main(args + grid) == 0
        bands.append(capsys.readouterr().out)
    # the default is -3:0:16, and another grid finds another band
    assert bands[0] == bands[1] != bands[2]


def test_tune_thresholds_checks_directory_names(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN))
    for name in ("DE-EN", "de-en"):
        (tmp_path / name).mkdir()
        for system in "AB":
            write_samples(tmp_path / name / f"{system}.jsonl", [[-0.5]])
    args = ["tune-thresholds", "--human", str(human),
            "--scores-dir", str(tmp_path)]
    # one pair in two directories would count twice in the average
    assert cli.main(args) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'DE-EN'} and {tmp_path / 'de-en'} hold the same "
        "language pair de-en\n")
    (tmp_path / "DE-EN").rename(tmp_path / "notes")
    assert cli.main(args) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'notes'}: bad language pair 'notes', "
        "expected 'xx-yy'\n")


def test_score_writes_language_pair_in_lower_case(tmp_path, capsys):
    sample = write_samples(tmp_path / "a.jsonl", [[-0.5], [-1.0]])
    assert cli.main(["score", "--samples", sample, "--method", "mean",
                     "--lang-pair", "DE-EN"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split("\t")[1] == "de-en"
    assert cli.main(["score", "--samples", sample, "--method", "mean",
                     "--lang-pair", "deen"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bad language pair 'deen', "
                            "expected 'xx-yy'\n")


def test_toy_score_negative_sidecar_id_names_the_line(tmp_path, capsys):
    table, text, ids = (tmp_path / name for name in
                        ("table.tsv", "t.txt", "ids.txt"))
    table.write_text("x\t<NULL>\t1.0\n")
    text.write_text("x\nx\n")
    ids.write_text("0\n-1\n")
    out = tmp_path / "out.jsonl"
    assert cli.main(["toy-scorer", "score", "--model", str(table),
                     "--source", str(text), "--target", str(text),
                     "--ids", str(ids), "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {ids}:2: negative segment id -1\n")
    assert not out.exists()


def test_meta_eval_reports_degenerate_pair(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN) + rows("fr-en", HUMAN))
    scores = tmp_path / "scores.tsv"
    scores.write_text(HEADER + rows("de-en", METRIC)
                      + rows("fr-en", [0.5] * len(SYSTEMS)))
    report = tmp_path / "report.json"
    assert cli.main(["meta-eval", "--human", str(human), "--scores",
                     str(scores), "--format", "json", "-o", str(report)]) == 0
    out = capsys.readouterr().out
    assert "fr-en\t-\t5\t-\t(degenerate: constant scores)\n" in out
    payload = json.loads(report.read_text())
    by_pair = {p["lang_pair"]: p for p in payload["per_pair"]}
    assert by_pair["fr-en"]["r"] is None
    assert payload["group_averages"]["all"] == \
        pytest.approx(by_pair["de-en"]["r"], abs=1e-12)
    tsv = tmp_path / "report.tsv"
    assert cli.main(["meta-eval", "--human", str(human), "--scores",
                     str(scores), "-o", str(tsv)]) == 0
    assert "fr-en\t-\t5\t-\n" in tsv.read_text()


def test_meta_eval_notes_a_pair_under_4_systems(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN) + rows("fr-en", HUMAN[:3]))
    scores = tmp_path / "scores.tsv"
    scores.write_text(HEADER + rows("de-en", METRIC)
                      + rows("fr-en", METRIC[:3]))
    assert cli.main(["meta-eval", "--human", str(human),
                     "--scores", str(scores)]) == 0
    assert "fr-en\t0.500\t3\t-\t(unreliable: <4 systems)\n" in \
        capsys.readouterr().out


def test_meta_eval_names_the_pair_without_human_scores(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN))
    full = tmp_path / "full.tsv"
    full.write_text(HEADER + rows("de-en", METRIC) + rows("fr-en", METRIC))
    de_en = tmp_path / "de-en.tsv"
    de_en.write_text(HEADER + rows("de-en", METRIC))
    # the error names the score file that holds the pair
    for scores, baseline in ((full, de_en), (de_en, full)):
        assert cli.main(["meta-eval", "--human", str(human), "--scores",
                         str(scores), "--baseline", str(baseline)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {full}: fr-en: no human scores\n"


def test_meta_eval_skips_a_singular_williams_pair(tmp_path, capsys):
    # fr-en's baseline is an affine copy of its metric: a singular
    # correlation matrix. Scaled by +3 both r are equal, the symmetric null
    # (t = 0, p = 0.5); scaled by -3 the r differ in sign, and the pair
    # gets no Williams row
    fr_metric = (0.05, 0.2, 0.1, 0.35, 0.4)
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN) + rows("fr-en", HUMAN))
    scores = tmp_path / "scores.tsv"
    scores.write_text(HEADER + rows("de-en", METRIC) + rows("fr-en", fr_metric))
    baseline = tmp_path / "baseline.tsv"
    baseline.write_text(HEADER + rows("de-en", (0.1, 0.0, 0.2, 0.4, 0.3))
                        + rows("fr-en", [3 * m + 0.7 for m in fr_metric]))
    assert cli.main(["meta-eval", "--human", str(human), "--scores",
                     str(scores), "--baseline", str(baseline)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == \
        "lang_pair\tr\tn_systems\toutliers\tbaseline_r\twilliams_p"
    assert re.fullmatch(r"de-en\t0\.900\t5\t-\t0\.800\t0\.\d{3}", lines[1])
    assert lines[2] == "fr-en\t0.881\t5\t-\t0.881\t0.500"
    # with no Williams row at all, the baseline columns still show
    human.write_text(HEADER + rows("fr-en", HUMAN))
    scores.write_text(HEADER + rows("fr-en", fr_metric))
    baseline.write_text(HEADER + rows("fr-en", [-3 * m + 0.7 for m in fr_metric]))
    assert cli.main(["meta-eval", "--human", str(human), "--scores",
                     str(scores), "--baseline", str(baseline)]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "lang_pair\tr\tn_systems\toutliers\tbaseline_r\twilliams_p",
        "fr-en\t0.881\t5\t-\t-\t-"]


def segment_rows(lang_pair, per_system):
    return "".join(f"{lang_pair}\t{s}\t{seg}\t{v!r}\n"
                   for s, values in zip(SYSTEMS, per_system)
                   for seg, v in enumerate(values))


def test_subsample_reports_degenerate_pair(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN) + rows("fr-en", HUMAN))
    varied = [[m + 0.125 * seg for seg in range(4)] for m in METRIC]
    metric = tmp_path / "metric-seg.tsv"
    metric.write_text("lang_pair\tsystem\tseg\tscore\n"
                      + segment_rows("de-en", varied)
                      + segment_rows("fr-en", [[0.5] * 4] * len(SYSTEMS)))
    out_tsv = tmp_path / "curve.tsv"
    assert cli.main(["subsample", "--human", str(human), "--metric-seg",
                     str(metric), "--sizes", "2,4", "--draws", "3",
                     "-o", str(out_tsv)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].endswith("\t(degenerate: constant scores: fr-en)")
    table = {(lp, size): r for lp, size, r in
             (line.split("\t") for line in out_tsv.read_text().splitlines()[1:])}
    assert table["fr-en", "2"] == table["fr-en", "4"] == "-"
    # each draw shifts every de-en system by the same amount: r stays 0.9
    assert float(table["de-en", "4"]) == pytest.approx(0.9, abs=1e-12)
    assert float(table["[all]", "4"]) == pytest.approx(0.9, abs=1e-12)

    # no pair left: the average is "-" too
    human.write_text(HEADER + rows("fr-en", HUMAN))
    metric.write_text("lang_pair\tsystem\tseg\tscore\n"
                      + segment_rows("fr-en", [[0.5] * 4] * len(SYSTEMS)))
    assert cli.main(["subsample", "--human", str(human), "--metric-seg",
                     str(metric), "--sizes", "2", "-o", str(out_tsv)]) == 0
    assert capsys.readouterr().out == \
        "2\t-\t(degenerate: constant scores: fr-en)\n"
    assert "[all]\t2\t-\n" in out_tsv.read_text()

    # an out-of-range size is still an error, naming the pair
    assert cli.main(["subsample", "--human", str(human), "--metric-seg",
                     str(metric), "--sizes", "5"]) == 1
    assert capsys.readouterr().err.startswith("error: fr-en: subset size 5")


def test_subsample_average_leaves_out_pair_under_4_systems(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN) + rows("fr-en", HUMAN[:3]))
    varied = [[m + 0.125 * seg for seg in range(4)] for m in METRIC]
    metric = tmp_path / "metric-seg.tsv"
    metric.write_text("lang_pair\tsystem\tseg\tscore\n"
                      + segment_rows("de-en", varied)
                      + segment_rows("fr-en", varied[2::-1]))
    out_tsv = tmp_path / "curve.tsv"
    assert cli.main(["subsample", "--human", str(human), "--metric-seg",
                     str(metric), "--sizes", "4", "--draws", "2",
                     "-o", str(out_tsv)]) == 0
    assert capsys.readouterr().out == \
        "4\t0.900\t(unreliable: <4 systems: fr-en)\n"
    table = {(lp, size): r for lp, size, r in
             (line.split("\t") for line in out_tsv.read_text().splitlines()[1:])}
    # fr-en keeps 3 systems: its r is reported but stays out of [all]
    assert float(table["fr-en", "4"]) == pytest.approx(-0.5, abs=1e-12)
    assert float(table["[all]", "4"]) == pytest.approx(0.9, abs=1e-12)


def test_subsample_names_pairs_under_4_systems(tmp_path, capsys):
    # zh-en has 5 systems, and the MAD filter drops D and E
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN) + rows("fr-en", HUMAN[:3])
                     + rows("zh-en", (0.0, 0.1, 0.2, 5.0, -5.0)))
    varied = [[m + 0.125 * seg for seg in range(4)] for m in METRIC]
    metric = tmp_path / "metric-seg.tsv"
    metric.write_text("lang_pair\tsystem\tseg\tscore\n"
                      + segment_rows("de-en", varied)
                      + segment_rows("fr-en", varied[2::-1])
                      + segment_rows("zh-en", varied))
    out_tsv = tmp_path / "curve.tsv"
    assert cli.main(["subsample", "--human", str(human), "--metric-seg",
                     str(metric), "--sizes", "2,4", "--draws", "2",
                     "-o", str(out_tsv)]) == 0
    assert capsys.readouterr().out == (
        "2\t0.900\t(unreliable: <4 systems: fr-en,zh-en)\n"
        "4\t0.900\t(unreliable: <4 systems: fr-en,zh-en)\n")
    table = {(lp, size): r for lp, size, r in
             (line.split("\t") for line in out_tsv.read_text().splitlines()[1:])}
    assert float(table["fr-en", "4"]) == pytest.approx(-0.5, abs=1e-12)
    assert float(table["zh-en", "4"]) == pytest.approx(0.5, abs=1e-12)
    assert float(table["[all]", "4"]) == pytest.approx(0.9, abs=1e-12)


def test_subsample_names_the_pair_without_human_scores(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN))
    varied = [[m + 0.125 * seg for seg in range(4)] for m in METRIC]
    metric = tmp_path / "metric-seg.tsv"
    metric.write_text("lang_pair\tsystem\tseg\tscore\n"
                      + segment_rows("de-en", varied)
                      + segment_rows("fr-en", varied))
    assert cli.main(["subsample", "--human", str(human), "--metric-seg",
                     str(metric), "--sizes", "4"]) == 1
    assert capsys.readouterr().err == \
        f"error: {metric}: fr-en: no human scores\n"


def test_subsample_names_the_pair_without_metric_scores(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN) + rows("fr-en", HUMAN))
    varied = [[m + 0.125 * seg for seg in range(4)] for m in METRIC]
    metric = tmp_path / "metric-seg.tsv"
    metric.write_text("lang_pair\tsystem\tseg\tscore\n"
                      + segment_rows("de-en", varied))
    args = ["subsample", "--human", str(human), "--metric-seg", str(metric),
            "--sizes", "4"]
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: {metric}: fr-en: no metric score for A, B, C, D, E\n"
    # a metric file without rows scores none of the human pairs
    metric.write_text("lang_pair\tsystem\tseg\tscore\n")
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: {metric}: de-en: no metric score for A, B, C, D, E\n"


@pytest.mark.parametrize("command, blamed", [
    (["meta-eval", "--human", "{human}", "--scores", "{scores}"], "scores"),
    (["subsample", "--human", "{human}", "--metric-seg", "{metric}",
      "--sizes", "2"], "metric"),
], ids=["meta-eval", "subsample"])
def test_input_without_a_language_pair_is_an_error(tmp_path, capsys, command,
                                                    blamed):
    # every file holds only its header; pairwise has its own message
    # (test_pairwise_names_the_pair_without_human_scores)
    paths = {"human": tmp_path / "human.tsv", "scores": tmp_path / "scores.tsv",
             "metric": tmp_path / "metric-seg.tsv"}
    paths["human"].write_text(HEADER)
    paths["scores"].write_text(HEADER)
    paths["metric"].write_text("lang_pair\tsystem\tseg\tscore\n")
    out = tmp_path / "out.tsv"
    assert cli.main([arg.format(**paths) for arg in command]
                    + ["-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {paths[blamed]}: no language pairs\n"
    assert not out.exists()


def test_subsample_malformed_size_is_an_error(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN))
    metric = tmp_path / "metric-seg.tsv"
    metric.write_text("lang_pair\tsystem\tseg\tscore\n"
                      + segment_rows("de-en", [[m, m] for m in METRIC]))
    assert cli.main(["subsample", "--human", str(human), "--metric-seg",
                     str(metric), "--sizes", "1,ab"]) == 1
    assert capsys.readouterr().err == "error: bad size 'ab'\n"


def test_tune_thresholds_malformed_grid_is_an_error(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN))
    (tmp_path / "de-en").mkdir()
    for i, system in enumerate(SYSTEMS):
        write_samples(tmp_path / "de-en" / f"{system}.jsonl",
                      [[-0.5 * (i + 1)], [-0.25]])
    for grid, bad in (("-3,x,0", "grid point 'x'"),
                      ("-3:0:n", "grid size 'n'")):
        assert cli.main(["tune-thresholds", "--human", str(human),
                         "--scores-dir", str(tmp_path), f"--grid={grid}"]) == 1
        assert capsys.readouterr().err == f"error: bad {bad}\n"


@pytest.mark.parametrize("grid, message", [
    ("-1,nan,0", "grid point nan is not finite"),
    ("-1,0,inf", "grid point inf is not finite"),
    ("-inf:0:4", "grid point -inf is not finite"),
    ("-3:nan:4", "grid point nan is not finite"),
    ("-1e308:1e308:3", "grid must be strictly ascending in finite steps"),
])
def test_tune_thresholds_non_finite_grid_is_an_error(tmp_path, capsys, grid,
                                                     message):
    # NaN compares false, so it would pass an ascending check, and linspace
    # warns on an infinite end or step; a warning fails the test
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN))
    (tmp_path / "de-en").mkdir()
    for i, system in enumerate(SYSTEMS):
        write_samples(tmp_path / "de-en" / f"{system}.jsonl",
                      [[-0.5 * (i + 1)], [-0.25]])
    assert cli.main(["tune-thresholds", "--human", str(human),
                     "--scores-dir", str(tmp_path), f"--grid={grid}"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_subsample_repeated_size_is_an_error(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN))
    metric = tmp_path / "metric-seg.tsv"
    metric.write_text("lang_pair\tsystem\tseg\tscore\n"
                      + segment_rows("de-en", level_scores(METRIC, 5)))
    out = tmp_path / "curve.tsv"
    for sizes in ("2,2", "2,4,2"):
        assert cli.main(["subsample", "--human", str(human), "--metric-seg",
                         str(metric), "--sizes", sizes, "-o", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: size 2 given twice\n")
        assert not out.exists()


def level_scores(levels, step):
    """12 segment scores per system: its level plus a spread in [0, 1.5]."""
    return [[level + ((seg * step + k * 5) % 13) / 8 for seg in range(12)]
            for k, level in enumerate(levels)]


def test_pairwise_pair_and_group_rows(tmp_path, capsys):
    seg_header = "lang_pair\tsystem\tseg\tscore\n"
    human = tmp_path / "human-seg.tsv"
    human.write_text(
        seg_header
        + segment_rows("de-en", level_scores((0, 0.25, 1, 1.25, 2.5), 7))
        + segment_rows("en-de", level_scores((0, 1, 1.25, 2, 3), 3)))
    metric = tmp_path / "metric-seg.tsv"
    metric.write_text(
        seg_header
        + segment_rows("de-en", level_scores((0, 0.5, 0.25, 1.5, 2), 5))
        + segment_rows("en-de", level_scores((0.5, 0, 1, 2.5, 2.75), 11)))
    assert cli.main(["pairwise", "--human-seg", str(human),
                     "--metric-seg", str(metric)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "pair\thuman_s_correct\thuman_s_incorrect\thuman_s_metric_ns"
        "\thuman_ns_correct\thuman_ns_incorrect\thuman_ns_metric_ns",
        "de-en\t6\t0\t2\t2\t0\t0",
        "en-de\t6\t1\t2\t1\t0\t0",
        "[all]\t12\t1\t4\t3\t0\t0",
        "[en-xx]\t6\t1\t2\t1\t0\t0",
        "[xx-en]\t6\t0\t2\t2\t0\t0",
    ]


def test_pairwise_one_system_pair_gets_a_zero_row(tmp_path, capsys):
    seg_header = "lang_pair\tsystem\tseg\tscore\n"
    human = tmp_path / "human-seg.tsv"
    human.write_text(seg_header
                     + segment_rows("de-en", level_scores((0,), 7))
                     + segment_rows("fr-en", level_scores((0, 2.5), 7)))
    metric = tmp_path / "metric-seg.tsv"
    metric.write_text(seg_header
                      + segment_rows("de-en", level_scores((0,), 5))
                      + segment_rows("fr-en", level_scores((0, 2), 5)))
    assert cli.main(["pairwise", "--human-seg", str(human),
                     "--metric-seg", str(metric)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "de-en\t0\t0\t0\t0\t0\t0",
        "fr-en\t1\t0\t0\t0\t0\t0",
        "[all]\t1\t0\t0\t0\t0\t0",
        "[xx-en]\t1\t0\t0\t0\t0\t0",
    ]


def test_pairwise_names_the_pair_scored_on_one_segment(tmp_path, capsys):
    seg_header = "lang_pair\tsystem\tseg\tscore\n"
    human = tmp_path / "human-seg.tsv"
    human.write_text(seg_header
                     + segment_rows("de-en", level_scores((0, 2.5), 7))
                     + segment_rows("fr-en", [[0.5], [1.5]]))
    metric = tmp_path / "metric-seg.tsv"
    metric.write_text(seg_header
                      + segment_rows("de-en", level_scores((0, 2), 5))
                      + segment_rows("fr-en", [[-1.0], [-0.5]]))
    assert cli.main(["pairwise", "--human-seg", str(human),
                     "--metric-seg", str(metric)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {metric}: fr-en: pairwise comparison "
                            "needs >= 2 segments, got 1\n")


def test_pairwise_names_the_pair_whose_systems_differ(tmp_path, capsys):
    seg_header = "lang_pair\tsystem\tseg\tscore\n"
    human = tmp_path / "human-seg.tsv"
    human.write_text(seg_header
                     + segment_rows("de-en", level_scores((0, 2.5), 7))
                     + segment_rows("fr-en", level_scores((0, 2.5, 1), 7)))
    metric = tmp_path / "metric-seg.tsv"
    metric.write_text(seg_header
                      + segment_rows("de-en", level_scores((0, 2), 5))
                      + segment_rows("fr-en", level_scores((0, 2), 5)))
    args = ["pairwise", "--human-seg", str(human), "--metric-seg", str(metric)]
    # a human-scored system without metric scores is named
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {metric}: fr-en: no metric score for C\n"
    # a system with metric scores only is left out: fr-en compares A and B
    human.write_text(seg_header
                     + segment_rows("de-en", level_scores((0, 2.5), 7))
                     + segment_rows("fr-en", level_scores((0, 2.5), 7)))
    assert cli.main(args) == 0
    two_systems = capsys.readouterr().out
    metric.write_text(seg_header
                      + segment_rows("de-en", level_scores((0, 2), 5))
                      + segment_rows("fr-en", level_scores((0, 2, 1), 5)))
    assert cli.main(args) == 0
    assert capsys.readouterr().out == two_systems
    assert "fr-en\t1\t0\t0\t0\t0\t0" in two_systems.splitlines()


def test_pairwise_names_the_pair_without_human_scores(tmp_path, capsys):
    seg_header = "lang_pair\tsystem\tseg\tscore\n"
    human = tmp_path / "human-seg.tsv"
    human.write_text(seg_header
                     + segment_rows("de-en", level_scores((0, 2.5), 7)))
    metric = tmp_path / "metric-seg.tsv"
    metric.write_text(seg_header
                      + segment_rows("de-en", level_scores((0, 2), 5))
                      + segment_rows("fr-en", level_scores((0, 2), 5)))
    assert cli.main(["pairwise", "--human-seg", str(human),
                     "--metric-seg", str(metric)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {metric}: fr-en: no human scores\n"
    # a metric file without rows has no pair to compare
    metric.write_text(seg_header)
    assert cli.main(["pairwise", "--human-seg", str(human),
                     "--metric-seg", str(metric)]) == 1
    assert capsys.readouterr().err == f"error: {metric}: no segment scores\n"


def test_pairwise_names_the_pair_without_metric_scores(tmp_path, capsys):
    seg_header = "lang_pair\tsystem\tseg\tscore\n"
    human = tmp_path / "human-seg.tsv"
    human.write_text(seg_header
                     + segment_rows("de-en", level_scores((0, 2.5), 7))
                     + segment_rows("fr-en", level_scores((0, 2.5), 7)))
    metric = tmp_path / "metric-seg.tsv"
    metric.write_text(seg_header
                      + segment_rows("de-en", level_scores((0, 2), 5)))
    assert cli.main(["pairwise", "--human-seg", str(human),
                     "--metric-seg", str(metric)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: {metric}: fr-en: no metric score for A, B\n"


CROSS_OUTPUTS = {
    "alpha": ["the cat sat on the mat.", "pi is 3.14, e is 2.718!"],
    "beta": ["the cat sat on a mat .", "pi is 3.14 and e is 2.718"],
    "gamma": ["a dog sat on the mat", "«pi» is 3,14!"],
}


def write_outputs(tmp_path, names):
    paths = []
    for name in names:
        path = tmp_path / f"{name}.txt"
        path.write_text("\n".join(CROSS_OUTPUTS[name]) + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


def test_cross_bleu_matrix_tsv(tmp_path):
    out = tmp_path / "matrix.tsv"
    assert cli.main(["cross-bleu", "--max-order", "2",
                     "--outputs", *write_outputs(tmp_path, ["gamma", "alpha", "beta"]),
                     "-o", str(out)]) == 0
    names, matrix, averages = ngram.cross_bleu_matrix(
        CROSS_OUTPUTS, ngram.BleuConfig(max_order=2))
    lines = [line.split("\t") for line in out.read_text().splitlines()]
    assert lines[0] == ["hyp\\ref"] + names
    assert lines[1:-1] == [[name] + [repr(v) for v in row]
                           for name, row in zip(names, matrix)]
    assert lines[-1] == ["[average]"] + [repr(a) for a in averages]


def test_cross_bleu_pair_both_directions(tmp_path, capsys):
    # two outputs give the matrix of both directions, on stdout without -o
    paths = write_outputs(tmp_path, ["gamma", "alpha"])
    forward = ngram.cross_bleu(CROSS_OUTPUTS["gamma"], CROSS_OUTPUTS["alpha"])
    backward = ngram.cross_bleu(CROSS_OUTPUTS["alpha"], CROSS_OUTPUTS["gamma"])
    assert forward != backward
    assert cli.main(["cross-bleu", "--outputs", *paths]) == 0
    assert capsys.readouterr().out == (
        "hyp\\ref\talpha\tgamma\n"
        f"alpha\t100.0\t{backward!r}\n"
        f"gamma\t{forward!r}\t100.0\n"
        f"[average]\t{backward!r}\t{forward!r}\n")


def test_cross_bleu_names_a_system_without_tokens(tmp_path, capsys):
    blank = tmp_path / "blank.txt"
    blank.write_text("\n\n", encoding="utf-8")
    assert cli.main(["cross-bleu", "--outputs",
                     *write_outputs(tmp_path, ["alpha", "beta"]),
                     str(blank)]) == 1
    assert capsys.readouterr().err == "error: system 'blank' has no tokens\n"


SUBWORD_CORPUS = ("lower lowest newer newest\nwider widest low new\n"
                  "slow slower renew renewed\nowe wow lower newest widest\n")


def subword_model(tmp_path, capsys):
    corpus, model = tmp_path / "corpus.txt", tmp_path / "model.tsv"
    corpus.write_text(SUBWORD_CORPUS)
    assert cli.main(["subword", "train", "--corpus", str(corpus),
                     "--vocab-size", "30", "--rounds", "4",
                     "-o", str(model)]) == 0
    assert capsys.readouterr().out == "vocabulary size\t22\n"
    return str(model)


def test_subword_train_nbest_sample(tmp_path, capsys):
    model = subword_model(tmp_path, capsys)
    assert cli.main(["subword", "nbest", "--model", model, "--text", "lowest",
                     "--n", "4"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert [pieces for _, pieces in rows] == \
        ["low est", "l ow est", "low e s t", "l o w est"]
    scores = [float(score) for score, _ in rows]
    assert scores == sorted(scores, reverse=True)
    text = tmp_path / "input.txt"
    text.write_text("lowest newer wow\nslower renewed widest\n")
    prefix = str(tmp_path / "sample")
    assert cli.main(["subword", "sample", "--model", model, "--input", str(text),
                     "--k", "2", "--seed", "3", "--alpha", "0", "--n", "4",
                     "-o", prefix]) == 0
    paths = [f"{prefix}.1.txt", f"{prefix}.2.txt"]
    assert capsys.readouterr().out.splitlines() == paths
    # uniform draws over the 4-best lists: these hashes pin the random stream
    digests = []
    for path in paths:
        with open(path, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    assert digests == [
        "3d6740a4735986a23d9d903dc23c60039da859e98e3085b0d0a471dc78937d65",
        "f8ea637020556d5e04d97b3dc601ef80a803ce748aec3dd47443132902e462f6",
    ]


def test_subword_sample_error_leaves_no_file(tmp_path, capsys):
    model = subword_model(tmp_path, capsys)
    text = tmp_path / "input.txt"
    text.write_text("lowest newer\nlowest zebra\n")   # z is not in the model
    assert cli.main(["subword", "sample", "--model", model, "--input", str(text),
                     "--k", "2", "-o", str(tmp_path / "sample")]) == 1
    assert "error: " in capsys.readouterr().err
    assert list(tmp_path.glob("sample.*")) == []


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_subword_sample_non_finite_alpha_is_an_error(tmp_path, capsys, alpha):
    model = subword_model(tmp_path, capsys)
    text = tmp_path / "input.txt"
    text.write_text("lowest\n")
    assert cli.main(["subword", "sample", "--model", model, "--input", str(text),
                     "--k", "1", "--alpha", alpha,
                     "-o", str(tmp_path / "sample")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"got {alpha}" in err


def pairwise_files(tmp_path, metric_rows):
    seg_header = "lang_pair\tsystem\tseg\tscore\n"
    human = tmp_path / "human-seg.tsv"
    human.write_text(seg_header
                     + segment_rows("de-en", level_scores((0, 1, 2), 7)))
    metric = tmp_path / "metric-seg.tsv"
    metric.write_text(seg_header + metric_rows)
    return ["pairwise", "--human-seg", str(human), "--metric-seg", str(metric)]


def subsample_args(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN))
    metric = tmp_path / "metric-seg.tsv"
    metric.write_text("lang_pair\tsystem\tseg\tscore\n"
                      + segment_rows("de-en", level_scores(METRIC, 5)))
    return ["subsample", "--human", str(human), "--metric-seg", str(metric),
            "--sizes", "2"]


def toy_scorer_train_args(tmp_path, capsys):
    source, target = tmp_path / "s.txt", tmp_path / "t.txt"
    source.write_text("a b\nb\n")
    target.write_text("x y\ny\n")
    return ["toy-scorer", "train", "--source", str(source),
            "--target", str(target), "-o", str(tmp_path / "table.tsv")]


def chrf_args(tmp_path, capsys):
    text = tmp_path / "text.txt"
    text.write_text("a b c\n")
    return ["chrf", "--hyp", str(text), "--ref", str(text)]


def pairwise_args(tmp_path, capsys):
    return pairwise_files(
        tmp_path, segment_rows("de-en", level_scores((0, 0.5, 2), 5)))


def subword_train_args(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(SUBWORD_CORPUS)
    return ["subword", "train", "--corpus", str(corpus), "--vocab-size", "30",
            "-o", str(tmp_path / "model.tsv")]


def subword_sample_args(tmp_path, capsys):
    model = subword_model(tmp_path, capsys)
    text = tmp_path / "input.txt"
    text.write_text("lowest\n")
    return ["subword", "sample", "--model", model, "--input", str(text),
            "-o", str(tmp_path / "sample")]


@pytest.mark.parametrize("command, option, value, got", [
    (chrf_args, "--beta", "nan", "nan"),
    (chrf_args, "--beta", "inf", "inf"),
    (pairwise_args, "--alpha", "nan", "nan"),
    (pairwise_args, "--alpha", "0", "0.0"),
    (pairwise_args, "--alpha", "-1", "-1.0"),
    (pairwise_args, "--alpha", "2", "2.0"),
    (subword_train_args, "--max-piece-len", "0", "0"),
    (subword_train_args, "--rounds", "-1", "-1"),
    (subword_train_args, "--rounds", "0", "0"),
    (subword_train_args, "--min-count", "0", "0"),
    (subword_sample_args, "--k", "0", "0"),
    (subsample_args, "--draws", "0", "0"),
    (toy_scorer_train_args, "--iterations", "0", "0"),
], ids=lambda p: p.__name__[:-5] if callable(p) else p)
def test_bad_numeric_argument_is_one_error_line(tmp_path, capsys, command,
                                                option, value, got):
    args = command(tmp_path, capsys)
    assert cli.main([*args, option, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"error: [^\n]* got {re.escape(got)}\n", captured.err)


def other_token_samples(tmp_path):
    """Samples a and b with the same tokens; d tokenizes segment 2 unlike
    them, c every segment."""
    return (write_samples(tmp_path / "a.jsonl",
                          [[-0.25, -0.25], [-2.0], [-0.75, -0.75], [-0.5]]),
            write_samples(tmp_path / "b.jsonl",
                          [[-1.75, -1.75], [-0.5], [-0.25, -0.25], [-1.5]]),
            write_samples(tmp_path / "c.jsonl",
                          [[-0.5], [-1.0, -1.0], [-1.5], [-2.0, -2.0]]),
            write_samples(tmp_path / "d.jsonl",
                          [[-1.75, -1.75], [-0.5], [-0.25], [-1.5]]))


# per segment, regularize(group, "segment", length_normalize=method != "sum")
@pytest.mark.parametrize("files, method, score", [
    ("ac", "sum", "-1.5625"),
    ("ac", "mean", "-1.0416666666666665"),
    ("ac", "threshold", "-0.25"),
    ("ad", "sum", "-1.28125"),
    ("ad", "mean", "-0.9583333333333334"),
    ("ad", "threshold", "0.0"),
    ("abd", "sum", "-1.3541666666666667"),
    ("abd", "mean", "-0.9666666666666668"),
    ("abd", "threshold", "-0.25"),
])
def test_score_averages_whole_segments_when_tokens_differ(
        tmp_path, capsys, files, method, score):
    paths = dict(zip("abcd", other_token_samples(tmp_path)))
    assert cli.main(["score", "--samples", *(paths[f] for f in files),
                     "--method", method]) == 0
    assert capsys.readouterr().out == (
        "system\tlang_pair\tscore\tn_segments\n"
        f"system\txx-yy\t{score}\t4\n")


def test_score_whole_segment_averaging_checks_the_method(tmp_path, capsys):
    a, b, c, d = other_token_samples(tmp_path)
    for samples, seg_id, other in (([a, c], 0, c), ([a, d], 2, d),
                                   ([a, b, d], 2, d), ([b, a, c], 0, c)):
        for method in ("median", "min", "negstd"):
            assert cli.main(["score", "--samples", *samples,
                             "--method", method]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: segment {seg_id}: {samples[0]} and {other} tokenize "
                "it differently, so whole segments are averaged, which "
                f"supports sum, mean, threshold; got {method}\n")
    # one sample, or samples with the same tokens, take any method
    for samples in ([a], [c], [a, b], [a, b, a]):
        for method in ("median", "min", "negstd"):
            assert cli.main(["score", "--samples", *samples,
                             "--method", method]) == 0
            capsys.readouterr()


# aggregate_segments over regularize(group, "token"), or over e alone
SAME_TOKEN_SCORES = {
    1: {"sum": -3.2916666666666665, "mean": -1.0625,
        "median": -0.8541666666666666, "min": -2.1666666666666665,
        "negstd": -0.8179476447852179, "threshold": -0.6666666666666666},
    2: {"sum": -3.0625, "mean": -0.9895833333333334,
        "median": -0.8854166666666666, "min": -1.5416666666666667,
        "negstd": -0.38896023310151095, "threshold": -0.3333333333333333},
    3: {"sum": -2.9861111111111107, "mean": -0.9652777777777777,
        "median": -0.923611111111111, "min": -1.402777777777778,
        "negstd": -0.3241995260299167, "threshold": -0.3333333333333333},
}


@pytest.mark.parametrize("method", ["sum", "mean", "median", "min",
                                    "negstd", "threshold"])
def test_score_averages_per_token_when_tokens_agree(tmp_path, capsys,
                                                     method):
    e = write_samples(tmp_path / "e.jsonl", [
        [-0.25, -1.5, -0.5], [-2.0, -0.125], [-0.75, -3.0, -0.5, -1.25]])
    f = write_samples(tmp_path / "f.jsonl", [
        [-1.0, -0.5, -0.75], [-0.25, -1.5], [-0.5, -2.0, -0.25, -1.75]])
    for samples in ([e], [e, f], [e, f, f]):
        assert cli.main(["score", "--samples", *samples,
                         "--method", method]) == 0
        score, n_segments = system_score_of(capsys)
        assert n_segments == "3"
        assert float(score) == pytest.approx(
            SAME_TOKEN_SCORES[len(samples)][method], rel=1e-12, abs=0)


def test_score_names_the_first_sample_file_over_other_seg_ids(
        tmp_path, capsys):
    a = write_samples(tmp_path / "a.jsonl", [[-0.5], [-1.0], [-1.5]])
    b = write_samples(tmp_path / "b.jsonl", [[-0.25], [-0.5], [-0.75]])
    c = str(tmp_path / "c.jsonl")
    write_token_scores(c, [TokenScoredSegment(i, ["t0"], [-1.0])
                           for i in (0, 1, 3)])
    d = str(tmp_path / "d.jsonl")
    write_token_scores(d, [TokenScoredSegment(i, ["t0"], [-1.0])
                           for i in (0, 1)])
    # e tokenizes segment 0 unlike a: seg ids are checked before tokens
    e = write_samples(tmp_path / "e.jsonl", [[-0.5, -0.5], [-1.0], [-1.5]])
    for samples, bad in (([a, b, c], c), ([a, c, d], c), ([a, d], d),
                         ([a, e, c], c), ([a, e, d], d)):
        for method in ("mean", "median"):
            assert cli.main(["score", "--samples", *samples,
                             "--method", method]) == 1
            assert capsys.readouterr().err == (
                f"error: {bad} and {a} cover different segments\n")


@pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\rb"])
@pytest.mark.parametrize("to_file", [True, False])
def test_score_refuses_a_system_name_its_tsv_cannot_hold(tmp_path, capsys,
                                                         name, to_file):
    a = write_samples(tmp_path / "a.jsonl", [[-0.5], [-1.0]])
    out = tmp_path / "out.tsv"
    output = ["-o", str(out)] if to_file else []
    assert cli.main(["score", "--samples", a, "--method", "mean",
                     "--system", name, *output]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # the row, line 2 of the output file, is named with the file
    where = f"{out}:2: " if to_file else ""
    assert captured.err == \
        f"error: {where}field {name!r} not representable in TSV\n"
    assert not out.exists()


def test_score_table_of_any_system_name_reads_back(tmp_path):
    # spaces, other control characters and backslashes are names a score
    # TSV holds
    a = write_samples(tmp_path / "a.jsonl", [[-0.5], [-1.0]])
    for name in ("a b", "ü\x0bv", "x\\ty"):
        out = tmp_path / "out.tsv"
        assert cli.main(["score", "--samples", a, "--method", "mean",
                         "--system", name, "-o", str(out)]) == 0
        (row,) = read_score_table(out, SYSTEM_KEYS).items()
        assert row == (("xx-yy", name), -0.75)


def test_cross_bleu_refuses_a_basename_its_tsv_cannot_hold(tmp_path,
                                                           capsys):
    good = tmp_path / "good.txt"
    bad = tmp_path / "a\tb.txt"
    for path in (good, bad):
        path.write_text("the cat sat\n")
    out = tmp_path / "out.tsv"
    assert cli.main(["cross-bleu", "--outputs", str(good), str(bad),
                     "-o", str(out)]) == 1
    # the basename is a column of the header, line 1
    assert capsys.readouterr().err == \
        f"error: {out}:1: field 'a\\tb' not representable in TSV\n"
    assert not out.exists()


def test_score_on_an_empty_sample_is_an_error(tmp_path, capsys):
    a = write_samples(tmp_path / "a.jsonl", [[-0.5], [-1.0]])
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    for samples in ([str(empty)], [a, str(empty)]):
        assert cli.main(["score", "--samples", *samples,
                         "--method", "mean"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {empty}: no token-score records\n"


def misaligned_rows(lang_pair):
    """Systems A and C on segments 0-11, B on segments 0-10."""
    scores = level_scores((0, 0.5, 2), 5)
    rows = segment_rows(lang_pair, scores)
    return "".join(row for row in rows.splitlines(keepends=True)
                   if not row.startswith(f"{lang_pair}\tB\t11\t"))


def test_pairwise_system_on_other_segments_is_an_error(tmp_path, capsys):
    args = pairwise_files(tmp_path, misaligned_rows("de-en"))
    assert cli.main(args) == 1
    assert capsys.readouterr().err == (
        f"error: {args[-1]}: de-en: B and A cover different segments\n")
    # no system of a pair that only the metric file has counts, so a
    # misaligned one is the pair without human scores
    args = pairwise_files(
        tmp_path, segment_rows("de-en", level_scores((0, 0.5, 2), 5))
        + misaligned_rows("fr-en"))
    assert cli.main(args) == 1
    assert capsys.readouterr().err == (
        f"error: {args[-1]}: fr-en: no human scores\n")


def test_pairwise_files_on_other_segments_is_an_error(tmp_path, capsys):
    # human segments 0-11, metric segments 100-111: nothing is paired
    shifted = "".join(
        f"de-en\t{system}\t{seg + 100}\t{value!r}\n"
        for system, values in zip(SYSTEMS, level_scores((0, 0.5, 2), 5))
        for seg, value in enumerate(values))
    args = pairwise_files(tmp_path, shifted)
    assert cli.main(args) == 1
    assert capsys.readouterr().err == (
        f"error: de-en: {args[-3]} and {args[-1]} cover different segments\n")


def test_pairwise_checks_alpha_when_no_pair_has_two_systems(tmp_path, capsys):
    seg_header = "lang_pair\tsystem\tseg\tscore\n"
    human = tmp_path / "human-seg.tsv"
    human.write_text(seg_header + segment_rows("de-en", [[0.5, 1, 1.5, 2]]))
    metric = tmp_path / "metric-seg.tsv"
    metric.write_text(seg_header + segment_rows("de-en", [[-2, -1, -3, -4]]))
    args = ["pairwise", "--human-seg", str(human), "--metric-seg", str(metric)]
    assert cli.main([*args, "--alpha", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: alpha must be in (0, 1), got nan\n"
    assert cli.main([*args, "--alpha", "0.1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "de-en\t0\t0\t0\t0\t0\t0",
        "[all]\t0\t0\t0\t0\t0\t0",
        "[xx-en]\t0\t0\t0\t0\t0\t0",
    ]


def test_subsample_system_on_other_segments_is_an_error(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN))
    metric = tmp_path / "metric-seg.tsv"
    metric.write_text("lang_pair\tsystem\tseg\tscore\n"
                      + misaligned_rows("de-en"))
    assert cli.main(["subsample", "--human", str(human), "--metric-seg",
                     str(metric), "--sizes", "4"]) == 1
    assert capsys.readouterr().err == (
        f"error: {metric}: de-en: B and A cover different segments\n")


def write_metric_inputs(root, systems, short=""):
    """Human scores for A-E, and metric scores for ``systems`` in every
    metric input that meta-eval, subsample, pairwise and tune-thresholds
    read. X, if given, scores best of all on every metric. The systems in
    ``short`` lack the last segment of each segment-level input."""
    root.mkdir()
    levels = dict(zip(SYSTEMS, METRIC), X=5.0)
    seg_levels = dict(zip(SYSTEMS, (0, 0.5, 0.25, 1.5, 2)), X=9.0)
    seg_header = "lang_pair\tsystem\tseg\tscore\n"
    (root / "human.tsv").write_text(HEADER + rows("de-en", HUMAN))
    (root / "human-seg.tsv").write_text(seg_header + segment_rows(
        "de-en", level_scores((0, 0.25, 1, 1.25, 2.5), 7)))
    (root / "scores.tsv").write_text(HEADER + "".join(
        f"de-en\t{s}\t{levels[s]!r}\n" for s in systems))
    (root / "baseline.tsv").write_text(HEADER + "".join(
        f"de-en\t{s}\t{-levels[s] ** 2!r}\n" for s in systems))
    (root / "metric-seg.tsv").write_text(seg_header + "".join(
        f"de-en\t{s}\t{seg}\t{v!r}\n" for s in systems
        for seg, v in enumerate(level_scores([seg_levels[s]], 5)[0])
        if not (s in short and seg == 11)))
    (root / "scores" / "de-en").mkdir(parents=True)
    for s in systems:
        samples = [[-0.5 - levels[s] / 10], [-1.5 - levels[s] / 10], [-0.25]]
        write_samples(root / "scores" / "de-en" / f"{s}.jsonl",
                      samples[:-1] if s in short else samples)
    return root


METRIC_INPUT_COMMANDS = {
    "meta-eval": (["meta-eval", "--human", "human.tsv", "--scores",
                   "scores.tsv", "--baseline", "baseline.tsv", "-o", "out"],
                  "scores.tsv"),
    "subsample": (["subsample", "--human", "human.tsv", "--metric-seg",
                   "metric-seg.tsv", "--sizes", "4,12", "--draws", "3",
                   "-o", "out"], "metric-seg.tsv"),
    "pairwise": (["pairwise", "--human-seg", "human-seg.tsv", "--metric-seg",
                  "metric-seg.tsv", "-o", "out"], "metric-seg.tsv"),
    "tune-thresholds": (["tune-thresholds", "--human", "human.tsv",
                         "--scores-dir", "scores", "--grid=-2:0:5"],
                        "scores"),
}


def run_in(root, args, capsys):
    """Exit code, stdout, stderr and -o file of ``args``, whose file names
    are relative to ``root``."""
    names = {"human.tsv", "human-seg.tsv", "scores.tsv", "baseline.tsv",
             "metric-seg.tsv", "scores", "out"}
    code = cli.main([str(root / a) if a in names else a for a in args])
    captured = capsys.readouterr()
    out = root / "out"
    return code, captured.out, captured.err, \
        out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("command", sorted(METRIC_INPUT_COMMANDS))
def test_a_system_without_human_scores_changes_nothing(tmp_path, capsys,
                                                       command):
    # the human scores name the systems, as in WMT, where metrics score
    # more systems than humans judge
    args, _ = METRIC_INPUT_COMMANDS[command]
    without_x = run_in(write_metric_inputs(tmp_path / "a", SYSTEMS), args,
                       capsys)
    with_x = run_in(write_metric_inputs(tmp_path / "b", SYSTEMS + "X"), args,
                    capsys)
    # nor does it have to cover the segments the others cover
    with_short_x = run_in(write_metric_inputs(tmp_path / "c", SYSTEMS + "X",
                                              short="X"), args, capsys)
    assert without_x[0] == 0 and without_x[2] == ""
    assert with_x == without_x
    assert with_short_x == without_x


def test_tune_thresholds_system_on_other_segments_is_an_error(tmp_path,
                                                              capsys):
    # named with the directory, as pairwise and subsample name their file
    args, blamed = METRIC_INPUT_COMMANDS["tune-thresholds"]
    root = write_metric_inputs(tmp_path / "inputs", SYSTEMS, short="B")
    assert run_in(root, args, capsys) == (
        1, "", f"error: {root / blamed}: de-en: B and A cover different "
        "segments\n", None)


@pytest.mark.parametrize("command", sorted(METRIC_INPUT_COMMANDS))
def test_a_human_system_without_metric_scores_is_named(tmp_path, capsys,
                                                       command):
    args, blamed = METRIC_INPUT_COMMANDS[command]
    root = write_metric_inputs(tmp_path / "inputs", SYSTEMS[:-1])
    assert run_in(root, args, capsys) == (
        1, "", f"error: {root / blamed}: de-en: no metric score for E\n", None)


TOY_SCORE = ["toy-scorer", "score", "--model", "table.tsv", "--source", "s.txt",
             "--target", "t.txt", "-o", "out.jsonl"]
TOY_INPUTS = {"s.txt": "a\nb\n", "t.txt": "x\nx\n"}


@pytest.mark.parametrize("args, inputs, message", [
    (["cross-bleu", "--outputs", "a/sys.txt", "b/sys.txt"],
     {"a/sys.txt": "a b\n", "b/sys.txt": "a c\n"},
     "output files must have distinct basenames"),
    (["subsample", "--human", "human.tsv", "--metric-seg", "m.tsv",
      "--sizes", ","], {}, "no sizes given"),
    (["tune-thresholds", "--human", "human.tsv", "--scores-dir", "s",
      "--grid", "1:2"], {}, "bad grid spec '1:2', expected lo:hi:n"),
    (["tune-thresholds", "--human", "human.tsv", "--scores-dir", "s",
      "--grid=-3:0:1"], {}, "grid size 1 below 2"),
    (TOY_SCORE + ["--ids", "ids.txt"],
     {"table.tsv": "x\t<NULL>\t1.0\n", "ids.txt": "0\nx\n", **TOY_INPUTS},
     "ids.txt:2: bad segment id 'x'"),
    (TOY_SCORE, {"table.tsv": "x\t<NULL>\n", **TOY_INPUTS},
     "table.tsv:1: expected target<TAB>source<TAB>prob"),
    (TOY_SCORE, {"table.tsv": "x\t<NULL>\tx\n", **TOY_INPUTS},
     "table.tsv:1: bad probability 'x'"),
    (TOY_SCORE, {"table.tsv": "\n", **TOY_INPUTS},
     "table.tsv: empty lexical table"),
    (["subword", "nbest", "--model", "model.tsv", "--text", ""],
     {"model.tsv": "a\t-1.0\n"}, "cannot segment empty text"),
    (["subword", "nbest", "--model", "model.tsv", "--text", "a"],
     {"model.tsv": "a\tx\n"}, "model.tsv:1: bad log-prob 'x'"),
    (["subword", "train", "--corpus", "corpus.txt", "--vocab-size", "9",
      "-o", "model.tsv"], {"corpus.txt": "\n\n"}, "empty training corpus"),
    (["subword", "train", "--corpus", "corpus.txt", "--vocab-size", "2",
      "-o", "model.tsv"], {"corpus.txt": "abc cab\n"},
     "vocab_size 2 below alphabet size 3"),
], ids=["cross-bleu-basenames", "subsample-no-sizes", "grid-spec",
        "grid-size", "toy-score-id", "lexical-table-fields",
        "lexical-table-probability", "lexical-table-empty", "nbest-empty",
        "subword-model-log-prob", "subword-train-empty",
        "subword-train-vocab-size"])
def test_bad_input_is_one_error_line(tmp_path, capsys, monkeypatch, args,
                                     inputs, message):
    monkeypatch.chdir(tmp_path)
    for name, text in inputs.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    assert cli.main(args) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
