#!/usr/bin/env python3
"""Run a fixed CLI chain and freeze every output it produces.

The chain runs ``peereval.cli.main`` in-process on the files of
``synthetic.make_noise_benchmark(n_segments=200, seed=0)``:

  - ``toy-scorer train`` on the sources and references, with 10 and with 3
    EM iterations;
  - ``toy-scorer score`` of two systems, one of them with tokens the table
    has never seen, and of the other again with an ``--ids`` sidecar;
  - ``score`` with each of the six ``--method``s; token-mode regularization
    over one system scored by both tables (two samples with the same
    tokens); segment-mode regularization over the two scored systems as two
    samples, and over one sample;
  - ``toy-scorer score`` and ``score --lang-pair xa-xb`` (mean and median)
    of all six systems, the rows joined into two system score TSVs;
  - ``meta-eval`` (tsv and json, the median TSV as ``--baseline``) and
    ``outliers`` against human system scores;
  - ``pairwise`` and ``subsample`` over a metric segment TSV (per-segment
    mean log-probs) and a human segment TSV;
  - ``tune-thresholds`` over the ``<lang pair>/<system>.jsonl`` files;
  - ``subword train`` on the references with a vocabulary smaller than
    their 60 distinct words, ``subword nbest`` of one word, and ``subword
    sample`` of one system into two files, at a non-default ``--alpha``
    (the two samples differ);
  - on a small Unicode/CJK text set (a reference and two hypotheses):
    ``bleu`` with each of the three tokenizers, with ``--smoothing
    exp-floor`` and with ``--max-order 2``; ``chrf``; ``cross-bleu`` of the
    two hypotheses as a pair, with ``--both``, and of all three files with
    ``--matrix``; ``cross-bleu`` pair mode with ``--both`` and ``-o``;
  - ``tune-thresholds`` and ``subsample`` over two language pairs, from a
    human TSV, a metric segment TSV and a scores directory of their own
    under ``two-pairs/``: the first pair is the one above, the second has 5
    of its systems with human scores from which the MAD filter keeps 3, so
    it is left out of every average.

The human score of a segment is the share of its hypothesis tokens equal
to the reference token at the same position; a system's human score is the
mean over its segments. The script writes both, and both segment TSVs and
the joined system TSVs, with plain Python arithmetic.

Every stdout and every output file is stored, as text, in
``tests/data/e2e_golden.json``; ``tests/test_e2e.py`` re-runs the chain and
compares text exactly and floats at 1e-12 relative.

Usage:
  PYTHONPATH=src python scripts/gen_e2e_golden.py           # write the golden
  PYTHONPATH=src python scripts/gen_e2e_golden.py --digest  # one SHA-256 per output

``--digest`` writes nothing: it prints ``<output name><TAB><sha256>`` for each
output, so two commits can be compared bit for bit with ``diff``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile

from peereval import cli, synthetic
from peereval.data import write_lines

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "tests", "data",
                      "e2e_golden.json")

METHODS = ("sum", "mean", "median", "min", "negstd", "threshold")
SEGMENT_MODE_METHODS = ("sum", "mean", "threshold")
# a band inside the spread of the segment means, so that the threshold
# score mixes -1, 0 and +1 segments
BAND = ["--low", "-5.0", "--high", "-2.0"]
LANG_PAIR = "xa-xb"
# fewer pieces than the references' 60 distinct words, so that words split
# into several pieces and sampling has segmentations to choose between
SUBWORD_VOCAB = 30
SCORES_DIR = "scores"
# The multi-pair steps read files of their own, so that adding them left
# every one-pair output as it was.
TWO_PAIRS_DIR = "two-pairs"
SECOND_PAIR = "xc-xb"
# median 0.8, MAD 0.04: the two low systems lie over 10 scaled MADs away.
# The 3 kept systems rank against the metric: were the pair let into the
# average, tune-thresholds-two-pairs would print (-4, -3), not (-5, -2).
SECOND_PAIR_HUMAN = {"sys-noise00": 0.8, "sys-noise10": 0.82,
                     "sys-noise20": 0.84, "sys-noise40": 0.15,
                     "sys-noise50": 0.1}

# Lines for the n-gram baselines: digit-adjacent separators, Unicode
# punctuation and symbols (astral ones too), CJK, full-width forms,
# combining marks and non-ASCII digits, as in gen_tokenize_oracle.py.
UNICODE_REF = [
    "«Bonjour», dit-il. C'est l'été: 25°C, à 10h30.",
    "中文，测试。我们今天去公园。",
    "pi is 3.14, e is 2.718; 1,000,000 and 1.000.000!",
    "¿Qué? ¡Sí! “quoted” ‘single’ „low“",
    "【注意】「かぎ」『二重』ひらがなカタカナ",
    "price: 5€/kg ±0.5 © 2021 ®™ °C ≤ ∞ ≠ √2",
    "🚀 launch 🚀🚀 a🚀b 😀.😀 𝄞 music",
    "한국어 텍스트 ＡＢＣ１２３ 全角！？",
    "em—dash – en-dash ‐ hyphen a·b•c …",
    "Mr. Smith's e-mail: john@example.com (2021-03-04)!",
    "𠀀𠀁 ext-b 㐀 ext-a 豈 compat",
    "e\u0301te\u0301 n\u0303 ٣.٤ १,२३४.५ ²³.¼ Ⅻ.",
]
UNICODE_HYP_A = [
    "«Bonjour» , dit-il. C'est l'été : 25 °C, à 10h30 .",
    "中文测试。我们明天去公园。",
    "pi is 3.14 , e is 2.718 ; 1,000,000 and 1.000.000",
    "¿Qué? ¡Sí! \"quoted\" ‘single’ „low“",
    "【注意】「かぎ」『二重』カタカナ",
    "price: 5 €/kg ±0.5 © 2021 ®™ °C ≤ ∞ ≠ √2",
    "🚀 launch 🚀 a🚀b 😀 . 😀 𝄞 music",
    "한국어 텍스트 ABC123 全角！?",
    "em—dash – en-dash - hyphen a·b•c ...",
    "Mr. Smith's email: john@example.com (2021-03-04) !",
    "𠀀𠀁 ext-b 㐀 ext-a 豈 compat",
    "e\u0301te\u0301 n\u0303 ٣.٤ १,२३४.५ ²³.¼",
]
UNICODE_HYP_B = [
    "Bonjour, il dit. C'est l'ete: 25 C à 10:30.",
    "中，文。我们今天去学校",
    "pi is 3,14 and e is 2.718!",
    "Que? Si! «quoted» 'single' low",
    "「注意」かぎ 二重 ひらがな",
    "price 5 EUR per kg, © 2021 °C < ∞",
    "launch 🚀🚀🚀 😀😀 music 𝄞",
    "한국어 ＡＢＣ 全角",
    "em-dash en-dash hyphen a.b.c",
    "Mr Smith e-mail john@example.com 2021-03-04",
    "𠀀 ext-b 㐀 豈",
    "ete n ٣ १२३४ ²³",
]


def _with_unseen(lines, every, token):
    """Replace every ``every``-th token, counted over the corpus, by ``token``."""
    out, k = [], 0
    for line in lines:
        words = []
        for word in line:
            k += 1
            words.append(token if k % every == 0 else word)
        out.append(" ".join(words))
    return out


def _system_path(system):
    return os.path.join(SCORES_DIR, LANG_PAIR, f"{system}.jsonl")


def _write_inputs(bench):
    n = len(bench.sources)
    write_lines("src.txt", (" ".join(s) for s in bench.sources))
    write_lines("ref.txt", (" ".join(r) for r in bench.references))
    write_lines("hyp_a.txt", (" ".join(h) for h in bench.system_outputs["sys-noise30"]))
    # system b meets tokens the table has never seen, on both sides: its
    # unseen target tokens hit the probability floor
    write_lines("src_b.txt", _with_unseen(bench.sources, 11, "s-unseen"))
    write_lines("hyp_b.txt", _with_unseen(bench.system_outputs["sys-noise50"],
                                          7, "t-unseen"))
    # unique ids, not in line order
    write_lines("ids.txt", (str(1000 + (7 * i) % 211) for i in range(n)))
    seg_rows, sys_rows = [], []
    for system, outputs in sorted(bench.system_outputs.items()):
        write_lines(f"{system}.txt", (" ".join(h) for h in outputs))
        shares = [sum(h == r for h, r in zip(hyp, ref)) / len(hyp)
                  for hyp, ref in zip(outputs, bench.references)]
        seg_rows += [f"{LANG_PAIR}\t{system}\t{seg}\t{share!r}"
                     for seg, share in enumerate(shares)]
        sys_rows.append(f"{LANG_PAIR}\t{system}\t{sum(shares) / n!r}")
    write_lines("human-seg.tsv", ["lang_pair\tsystem\tseg\tscore", *seg_rows])
    write_lines("human-sys.tsv", ["lang_pair\tsystem\tscore", *sys_rows])
    os.makedirs(os.path.join(SCORES_DIR, LANG_PAIR))
    for name, lines in (("uni_ref", UNICODE_REF), ("uni_a", UNICODE_HYP_A),
                        ("uni_b", UNICODE_HYP_B)):
        write_lines(f"{name}.txt", lines)


def _join_system_scores(systems):
    """The script step between scoring and meta-evaluation: one system TSV
    per method from the per-system ``score`` files, and the metric segment
    TSV of per-segment mean log-probs."""
    for method in ("mean", "median"):
        rows = []
        for system in systems:
            with open(f"{method}-{system}.tsv", encoding="utf-8") as fh:
                header, row = fh.read().splitlines()
            rows.append(row)
        write_lines(f"{method}-sys.tsv", [header, *rows])
    seg_rows = []
    for system in systems:
        with open(_system_path(system), encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                mean = sum(record["logp"]) / len(record["logp"])
                seg_rows.append(f"{LANG_PAIR}\t{system}\t{record['seg']}\t{mean!r}")
    write_lines("metric-seg.tsv", ["lang_pair\tsystem\tseg\tscore", *seg_rows])


def _write_two_pairs(systems):
    """The inputs of the multi-pair steps: the first pair's human rows,
    metric segment rows and token scores, and for the second pair the same
    token scores and metric rows of ``SECOND_PAIR_HUMAN``'s systems."""
    def rows(path):
        with open(path, encoding="utf-8") as fh:
            header, *body = fh.read().splitlines()
        return header, body

    for lp, members in ((LANG_PAIR, systems), (SECOND_PAIR, SECOND_PAIR_HUMAN)):
        os.makedirs(os.path.join(TWO_PAIRS_DIR, SCORES_DIR, lp))
        for system in members:
            with open(_system_path(system), encoding="utf-8") as fh:
                write_lines(os.path.join(TWO_PAIRS_DIR, SCORES_DIR, lp,
                                         f"{system}.jsonl"),
                            fh.read().splitlines())
    header, human_rows = rows("human-sys.tsv")
    human_rows += [f"{SECOND_PAIR}\t{system}\t{score!r}"
                   for system, score in SECOND_PAIR_HUMAN.items()]
    write_lines(os.path.join(TWO_PAIRS_DIR, "human-sys.tsv"),
                [header, *human_rows])
    header, seg_rows = rows("metric-seg.tsv")
    seg_rows += [row.replace(LANG_PAIR, SECOND_PAIR, 1) for row in seg_rows
                 if row.split("\t")[1] in SECOND_PAIR_HUMAN]
    write_lines(os.path.join(TWO_PAIRS_DIR, "metric-seg.tsv"),
                [header, *seg_rows])


def _steps(systems):
    """(name, action, output files) for every step of the chain.

    ``action`` is CLI argv, or a callable for a step the script does itself;
    a callable's files are inputs to later steps, not outputs.
    """
    steps = [
        ("toy-train", ["toy-scorer", "train", "--source", "src.txt",
                       "--target", "ref.txt", "-o", "model.tsv"],
         ["model.tsv"]),
        ("toy-train-3", ["toy-scorer", "train", "--source", "src.txt",
                         "--target", "ref.txt", "--iterations", "3",
                         "-o", "model3.tsv"],
         ["model3.tsv"]),
    ]
    for name, model, src, hyp, extra in (
            ("toy-score-a", "model.tsv", "src.txt", "hyp_a.txt", []),
            ("toy-score-b", "model.tsv", "src_b.txt", "hyp_b.txt", []),
            ("toy-score-a-ids", "model.tsv", "src.txt", "hyp_a.txt",
             ["--ids", "ids.txt"]),
            ("toy-score-a3", "model3.tsv", "src.txt", "hyp_a.txt", [])):
        out = f"{name}.jsonl"
        steps.append((name, ["toy-scorer", "score", "--model", model,
                             "--source", src, "--target", hyp,
                             *extra, "-o", out], [out]))
    for method in METHODS:
        band = BAND if method == "threshold" else []
        steps.append((f"score-{method}",
                      ["score", "--samples", "toy-score-a.jsonl",
                       "--method", method, *band, "--system", "sys-noise30"],
                      []))
    for method in SEGMENT_MODE_METHODS:
        band = BAND if method == "threshold" else []
        steps.append((f"score-segment-{method}",
                      ["score", "--samples", "toy-score-a.jsonl",
                       "toy-score-b.jsonl", "--sample-mode", "segment",
                       "--method", method, *band], []))
    for method in METHODS:
        band = BAND if method == "threshold" else []
        steps.append((f"score-token-{method}",
                      ["score", "--samples", "toy-score-a.jsonl",
                       "toy-score-a3.jsonl", "--method", method, *band], []))
    for method in SEGMENT_MODE_METHODS:
        band = BAND if method == "threshold" else []
        steps.append((f"score-segment1-{method}",
                      ["score", "--samples", "toy-score-b.jsonl",
                       "--sample-mode", "segment", "--method", method, *band],
                      []))
    for system in systems:
        out = _system_path(system)
        steps.append((f"toy-score-{system}",
                      ["toy-scorer", "score", "--model", "model.tsv",
                       "--source", "src.txt", "--target", f"{system}.txt",
                       "-o", out], [out]))
        for method in ("mean", "median"):
            out = f"{method}-{system}.tsv"
            steps.append((f"score-{method}-{system}",
                          ["score", "--samples", _system_path(system),
                           "--method", method, "--system", system,
                           "--lang-pair", LANG_PAIR, "-o", out], [out]))
    steps += [
        ("join", lambda: _join_system_scores(systems), []),
        ("meta-eval-tsv", ["meta-eval", "--human", "human-sys.tsv",
                           "--scores", "mean-sys.tsv",
                           "--baseline", "median-sys.tsv",
                           "-o", "meta-eval.tsv"], ["meta-eval.tsv"]),
        ("meta-eval-json", ["meta-eval", "--human", "human-sys.tsv",
                            "--scores", "mean-sys.tsv",
                            "--baseline", "median-sys.tsv",
                            "--format", "json", "-o", "meta-eval.json"],
         ["meta-eval.json"]),
        ("outliers", ["outliers", "--human", "human-sys.tsv"], []),
        ("pairwise", ["pairwise", "--human-seg", "human-seg.tsv",
                      "--metric-seg", "metric-seg.tsv", "-o", "pairwise.tsv"],
         ["pairwise.tsv"]),
        # an alpha small enough that some system pairs are not significant
        ("pairwise-alpha", ["pairwise", "--human-seg", "human-seg.tsv",
                            "--metric-seg", "metric-seg.tsv",
                            "--alpha", "1e-10"], []),
        ("subsample", ["subsample", "--human", "human-sys.tsv",
                       "--metric-seg", "metric-seg.tsv",
                       "--sizes", "25,50,100,200", "--draws", "5",
                       "--seed", "3", "-o", "subsample.tsv"],
         ["subsample.tsv"]),
        ("tune-thresholds", ["tune-thresholds", "--human", "human-sys.tsv",
                             "--scores-dir", SCORES_DIR,
                             "--grid=-6:-1:11"], []),
        ("subword-train", ["subword", "train", "--corpus", "ref.txt",
                           "--vocab-size", str(SUBWORD_VOCAB), "--rounds", "4",
                           "-o", "subword.tsv"], ["subword.tsv"]),
        ("subword-nbest", ["subword", "nbest", "--model", "subword.tsv",
                           "--text", "t051", "--n", "4"], []),
        ("subword-sample", ["subword", "sample", "--model", "subword.tsv",
                            "--input", "hyp_a.txt", "--k", "2", "--seed", "5",
                            "--alpha", "0.5", "-o", "sample"],
         ["sample.1.txt", "sample.2.txt"]),
    ]
    uni = ["--hyp", "uni_a.txt", "--ref", "uni_ref.txt"]
    for tokenizer in ("intl", "whitespace", "char-for-zh"):
        steps.append((f"bleu-{tokenizer}",
                      ["bleu", *uni, "--tokenizer", tokenizer,
                       "-o", f"bleu-{tokenizer}.tsv"],
                      [f"bleu-{tokenizer}.tsv"]))
    pair = ["--outputs", "uni_a.txt", "uni_b.txt"]
    steps += [
        # split at whitespace only, hypothesis b shares no 3- or 4-gram
        # with the reference, so the score without smoothing is 0
        ("bleu-exp-floor", ["bleu", "--hyp", "uni_b.txt", "--ref",
                            "uni_ref.txt", "--tokenizer", "whitespace",
                            "--smoothing", "exp-floor"], []),
        ("bleu-max-order-2", ["bleu", *uni, "--max-order", "2"], []),
        ("chrf", ["chrf", *uni, "-o", "chrf.tsv"], ["chrf.tsv"]),
        ("cross-bleu-pair", ["cross-bleu", *pair], []),
        ("cross-bleu-both", ["cross-bleu", *pair, "--both",
                             "--tokenizer", "char-for-zh"], []),
        ("cross-bleu-matrix", ["cross-bleu", "--outputs", "uni_ref.txt",
                               "uni_a.txt", "uni_b.txt", "--matrix",
                               "-o", "cross-bleu.tsv"], ["cross-bleu.tsv"]),
        ("cross-bleu-pair-o", ["cross-bleu", *pair, "--both",
                               "-o", "cross-bleu-pair.tsv"],
         ["cross-bleu-pair.tsv"]),
    ]
    two_human = os.path.join(TWO_PAIRS_DIR, "human-sys.tsv")
    two_subsample = os.path.join(TWO_PAIRS_DIR, "subsample.tsv")
    steps += [
        ("two-pairs", lambda: _write_two_pairs(systems), []),
        ("tune-thresholds-two-pairs",
         ["tune-thresholds", "--human", two_human,
          "--scores-dir", os.path.join(TWO_PAIRS_DIR, SCORES_DIR),
          "--grid=-5,-4,-3.5,-3,-2.5,-2,-1"], []),
        ("subsample-two-pairs",
         ["subsample", "--human", two_human,
          "--metric-seg", os.path.join(TWO_PAIRS_DIR, "metric-seg.tsv"),
          "--sizes", "10,50,200", "--draws", "4", "--seed", "7",
          "-o", two_subsample], [two_subsample]),
    ]
    return steps


def run_chain(workdir):
    """Run the chain in ``workdir``; return ``{output name: text}``."""
    bench = synthetic.make_noise_benchmark(n_segments=200, seed=0)
    outputs = {}
    # os.chdir, not contextlib.chdir: the package supports Python 3.10
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        _write_inputs(bench)
        for name, action, files in _steps(sorted(bench.system_outputs)):
            if callable(action):
                action()
                continue
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(action)
            if code != 0:
                raise RuntimeError(f"{name}: exit {code}")
            outputs[f"{name}:stdout"] = stdout.getvalue()
            for path in files:
                with open(path, encoding="utf-8") as fh:
                    outputs[f"{name}:{path}"] = fh.read()
    finally:
        os.chdir(cwd)
    return outputs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--digest", action="store_true",
                        help="print one SHA-256 per output; write nothing")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        outputs = run_chain(workdir)
    if args.digest:
        for name, text in outputs.items():
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            print(f"{name}\t{digest}")
        return
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(outputs, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"{GOLDEN}: {len(outputs)} outputs")


if __name__ == "__main__":
    main()
