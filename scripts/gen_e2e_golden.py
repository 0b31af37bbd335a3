#!/usr/bin/env python3
"""Run a fixed CLI chain and freeze every output it produces.

The chain runs ``peereval.cli.main`` in-process on the files of
``synthetic.make_noise_benchmark(n_segments=200, seed=0)``:

  - ``toy-scorer train`` on the sources and references;
  - ``toy-scorer score`` of two systems, one of them with tokens the table
    has never seen, and of the other again with an ``--ids`` sidecar;
  - ``score`` with each of the six ``--method``s, and segment-mode
    regularization over the two scored systems as two samples.

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


def _steps():
    """(name, argv, output files) for every CLI call of the chain."""
    steps = [
        ("toy-train", ["toy-scorer", "train", "--source", "src.txt",
                       "--target", "ref.txt", "-o", "model.tsv"],
         ["model.tsv"]),
    ]
    for name, src, hyp, extra in (
            ("toy-score-a", "src.txt", "hyp_a.txt", []),
            ("toy-score-b", "src_b.txt", "hyp_b.txt", []),
            ("toy-score-a-ids", "src.txt", "hyp_a.txt", ["--ids", "ids.txt"])):
        out = f"{name}.jsonl"
        steps.append((name, ["toy-scorer", "score", "--model", "model.tsv",
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
    return steps


def run_chain(workdir):
    """Run the chain in ``workdir``; return ``{output name: text}``."""
    bench = synthetic.make_noise_benchmark(n_segments=200, seed=0)
    outputs = {}
    with contextlib.chdir(workdir):
        _write_inputs(bench)
        for name, argv, files in _steps():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"{name}: exit {code}")
            outputs[f"{name}:stdout"] = stdout.getvalue()
            for path in files:
                with open(path, encoding="utf-8") as fh:
                    outputs[f"{name}:{path}"] = fh.read()
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
