"""The command line, run in-process through ``cli.main``."""

import json

from peereval import cli, synthetic


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
