"""The command line, run in-process through ``cli.main``."""

import json

import pytest

from peereval import cli, synthetic
from peereval.data import TokenScoredSegment, write_token_scores


def test_toy_scorer_to_meta_eval(tmp_path):
    bench = synthetic.make_noise_benchmark(n_segments=200)
    paths = synthetic.write_benchmark_files(bench, tmp_path)
    lp = str(bench.lang_pair)
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
    assert cli.main(["meta-eval", "--human", paths["human"],
                     "--scores", str(metric), "--format", "json",
                     "-o", str(report)]) == 0
    (pair,) = json.loads(report.read_text())["per_pair"]
    assert pair["lang_pair"] == lp
    assert pair["n_systems"] == len(bench.system_outputs)
    assert pair["r"] > 0.99


def test_missing_hyp_is_an_error(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    ref.write_text("a b\n")
    missing = tmp_path / "missing.txt"
    assert cli.main(["bleu", "--hyp", str(missing), "--ref", str(ref)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


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
    # segment mode: mean sum / mean length gives -1/3, -4/3, -1 (boundary),
    # -1.5 -> +1, -1, 0, -1
    assert cli.main(["score", "--samples", a, c, "--method", "threshold",
                     "--sample-mode", "segment"]) == 0
    assert system_score_of(capsys) == ["-0.25", "4"]
    assert cli.main(["score", "--samples", a, "--method", "threshold",
                     "--low", "-0.6", "--high", "-1.0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(-0.6, -1.0)" in err


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
    err = capsys.readouterr().err
    assert err.startswith("error: de-en: ") and err.rstrip().endswith("E")


def test_tune_thresholds_system_without_scores_is_an_error(tmp_path, capsys):
    human = tmp_path / "human.tsv"
    human.write_text(HEADER + rows("de-en", HUMAN))
    (tmp_path / "de-en").mkdir()
    for i, system in enumerate(SYSTEMS[:-1]):
        write_samples(tmp_path / "de-en" / f"{system}.jsonl",
                      [[-0.5 * (i + 1)], [-0.25]])
    assert cli.main(["tune-thresholds", "--human", str(human),
                     "--scores-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: de-en: ") and err.rstrip().endswith("E")


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
