"""Command-line interface.

Subcommands wire ingestion -> scoring -> meta-evaluation:

  score            token-score files -> system score TSV; K samples are
                   averaged per token, or per segment (sum, mean and
                   threshold only) when some segment's tokens differ
  meta-eval        metric scores vs human judgments, per-pair + group report
  pairwise         pairwise ranking agreement tally
  bleu / chrf      corpus metrics over plain-text files
  cross-bleu       proximity matrix between system outputs
  subsample        correlation versus test-set size
  tune-thresholds  grid search for the confidence-threshold band
  subword          train / nbest / sample for the unigram segmenter
  toy-scorer       train / score for the lexical-table scorer

Everything is deterministic for a fixed seed; machine-readable outputs keep
full float precision, printed tables use 3 decimals.

Each subcommand imports scoring, metaeval, model1, subword or numpy itself,
so that only a subcommand that runs numpy loads it: the text subcommands
(bleu, chrf, cross-bleu) and meta-eval, whose system-level statistics run
on the standard library, never do; score, pairwise, subsample,
tune-thresholds, subword and toy-scorer do. The
CLI's own import loads no dataclasses (records are namedtuples) and no json
(only the JSONL reader and writer and ``meta-eval --format json`` use it).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Optional

from . import ngram
from .data import (
    SEGMENT_KEYS,
    SYSTEM_KEYS,
    HumanJudgments,
    LanguagePair,
    SegmentPair,
    SystemOutput,
    assemble_dataset,
    load_token_scores,
    read_lines_with_ids,
    read_score_table,
    same_segments,
    scores_by_pair,
    tsv_line,
    write_lines,
    write_token_scores,
)
from .errors import (
    AlignmentError,
    ConfigError,
    DomainError,
    InsufficientDataError,
    PeerEvalError,
)


def _read_text(path) -> list:
    return [text for _, text in read_lines_with_ids(path)]


def _write_rows(path, header, rows):
    """A TSV to ``path``, or to stdout when ``path`` is None. A field the
    TSV cannot hold is a DomainError naming ``path:line`` of its row, as
    ``write_lines`` names a line it cannot encode."""
    lines = []
    try:
        for row in (header, *rows):
            lines.append(tsv_line(row))
    except DomainError as exc:
        if path is None:
            raise
        raise DomainError(f"{path}:{len(lines) + 1}: {exc}") from None
    if path is None:
        print("\n".join(lines))
    else:
        write_lines(path, lines)


def _parse_number(kind, token: str, what: str):
    """``kind(token)``, or a ConfigError naming the bad token."""
    try:
        return kind(token)
    except ValueError:
        raise ConfigError(f"bad {what} {token!r}") from None


@contextlib.contextmanager
def _blame(path, kinds=(InsufficientDataError,)):
    """Prefix an error of ``kinds`` raised inside with ``path``, the file or
    directory at fault."""
    try:
        yield
    except kinds as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _read_segment_scores(path, named=None):
    """A segment score TSV as ``({lp: {system: scores in seg order}},
    {lp: sorted seg ids})``.

    The systems of a pair that count must cover the same segments, the
    pair's ids: every system, or with ``named`` (the human scores,
    ``{lp: systems}``) those it names, as ``metaeval.scored_systems``
    counts them. A pair where no system counts gets no ids, and
    ``scored_systems`` names it.
    """
    nested = {}
    for (lp, system, seg), score in read_score_table(path,
                                                     SEGMENT_KEYS).items():
        nested.setdefault(lp, {}).setdefault(system, {})[seg] = score
    aligned, seg_ids = {}, {}
    for lp, per_system in nested.items():
        counted = {system: scores for system, scores in per_system.items()
                   if named is None or system in named.get(lp, ())}
        if counted:
            seg_ids[lp] = same_segments(counted, f"{path}: {lp}: ")
        aligned[lp] = {system: [scores[i] for i in sorted(scores)]
                       for system, scores in per_system.items()}
    return aligned, seg_ids


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

SEGMENT_MODE_METHODS = ("sum", "mean", "threshold")


def _cmd_score(args) -> int:
    from . import scoring

    lang_pair = str(LanguagePair.parse(args.lang_pair))
    method = args.method
    # each file is sorted by seg_id and has no repeated id
    samples = [load_token_scores(p) for p in args.samples]
    seg_ids = same_segments({path: [s.seg_id for s in sample]
                             for path, sample in zip(args.samples, samples)})
    groups = list(zip(*samples))
    differ = next(((g[0].seg_id, path) for g in groups for path, s in
                   zip(args.samples, g) if s.tokens != g[0].tokens), None)
    if differ is None:
        merged = samples[0] if len(samples) == 1 else [
            scoring.regularize(group, "token") for group in groups]
        values = [s.value for s in scoring.aggregate_segments(
            merged, "mean" if method == "threshold" else method)]
    elif method in SEGMENT_MODE_METHODS:
        values = [scoring.regularize(group, "segment",
                                     length_normalize=method != "sum").value
                  for group in groups]
    else:
        raise ConfigError(
            f"segment {differ[0]}: {args.samples[0]} and {differ[1]} tokenize "
            "it differently, so whole segments are averaged, which supports "
            f"{', '.join(SEGMENT_MODE_METHODS)}; got {method}")
    if method == "threshold":
        values = scoring.threshold_value(values, args.low, args.high)
    sys_score = scoring.system_score(
        [scoring.SegmentScore(i, float(v)) for i, v in zip(seg_ids, values)],
        args.system, lang_pair, method)
    _write_rows(args.output,
                ["system", "lang_pair", "score", "n_segments"],
                [[sys_score.system_name, sys_score.lang_pair,
                  repr(sys_score.value), sys_score.n_segments]])
    return 0


# ---------------------------------------------------------------------------
# meta-eval
# ---------------------------------------------------------------------------

def _format_r(value) -> str:
    return "-" if value is None else f"{value:.3f}"


def _repr_r(value) -> str:
    return "-" if value is None else repr(value)


def _cmd_meta_eval(args) -> int:
    from . import metaeval

    human = scores_by_pair(read_score_table(args.human, SYSTEM_KEYS))
    metric_scores = read_score_table(args.scores, SYSTEM_KEYS)
    # each InsufficientDataError is the score file's: a kept system it lacks,
    # a pair it scores that has no human scores, or no pair at all
    with _blame(args.scores):
        report = metaeval.metric_report(human, metric_scores)

    comparisons = {}
    if args.baseline:
        baseline_scores = read_score_table(args.baseline, SYSTEM_KEYS)
        with _blame(args.baseline):
            comparisons = {comp.lang_pair: comp for comp in
                           metaeval.compare_metrics(human, metric_scores,
                                                    baseline_scores)}

    print("lang_pair\tr\tn_systems\toutliers"
          + ("\tbaseline_r\twilliams_p" if args.baseline else ""))
    for res in report.per_pair:
        row = (f"{res.lang_pair}\t{_format_r(res.r)}\t{res.n_systems}\t"
               f"{','.join(res.outliers) or '-'}")
        if args.baseline:
            comp = comparisons.get(res.lang_pair)
            row += (f"\t{comp.r_second:.3f}\t{comp.p:.3f}"
                    if comp else "\t-\t-")
        if res.r is None:
            row += "\t(degenerate: constant scores)"
        if not res.reliable:
            row += "\t(unreliable: <4 systems)"
        print(row)
    print()
    print("group\taverage")
    for group in metaeval.GROUPS:
        print(f"{group}\t{_format_r(report.group_averages[group])}")

    if args.output:
        if args.format == "json":
            import json

            payload = {
                "per_pair": [
                    {"lang_pair": res.lang_pair, "r": res.r,
                     "n_systems": res.n_systems,
                     "outliers": list(res.outliers)}
                    for res in report.per_pair
                ],
                "group_averages": report.group_averages,
            }
            write_lines(args.output, json.dumps(payload, indent=2,
                                                sort_keys=True).splitlines())
        else:
            rows = [[res.lang_pair, _repr_r(res.r), res.n_systems,
                     ",".join(res.outliers) or "-"]
                    for res in report.per_pair]
            rows += [[group, _repr_r(avg), "-", "-"]
                     for group, avg in report.group_averages.items()]
            _write_rows(args.output,
                        ["lang_pair", "r", "n_systems", "outliers"], rows)
    return 0


# ---------------------------------------------------------------------------
# pairwise
# ---------------------------------------------------------------------------

def _cmd_pairwise(args) -> int:
    from . import metaeval

    human, human_ids = _read_segment_scores(args.human_seg)
    metric, metric_ids = _read_segment_scores(args.metric_seg, human)
    if not metric:
        raise AlignmentError(f"{args.metric_seg}: no segment scores")

    tallies = {}
    # a pair one file lacks, or where no system counts, is pairwise_compare's
    # error
    with _blame(args.metric_seg):
        for lp in metaeval.scored_pairs(metric, human):
            if lp in metric_ids and lp in human_ids:
                same_segments({args.metric_seg: metric_ids[lp],
                               args.human_seg: human_ids[lp]}, f"{lp}: ")
            tallies[lp] = metaeval.pairwise_compare(
                metric.get(lp, {}), human.get(lp, {}), alpha=args.alpha,
                lang_pair=lp)

    def tally_row(name, tally):
        return [name, tally.sig_correct, tally.sig_incorrect,
                tally.sig_metric_ns, tally.ns_correct, tally.ns_incorrect,
                tally.ns_metric_ns]

    rows = [tally_row(lp, tally) for lp, tally in tallies.items()]
    for group, members in metaeval.group_members(list(tallies)).items():
        if members:
            combined = sum((tallies[lp] for lp in members),
                           metaeval.PairwiseTally())
            rows.append(tally_row(f"[{group}]", combined))
    _write_rows(args.output,
                ["pair", "human_s_correct", "human_s_incorrect",
                 "human_s_metric_ns", "human_ns_correct",
                 "human_ns_incorrect", "human_ns_metric_ns"], rows)
    return 0


# ---------------------------------------------------------------------------
# bleu / chrf / cross-bleu
# ---------------------------------------------------------------------------

def _cmd_bleu(args) -> int:
    cfg = ngram.BleuConfig(max_order=args.max_order, smoothing=args.smoothing,
                           tokenizer=args.tokenizer)
    value = ngram.bleu(_read_text(args.hyp), _read_text(args.ref), cfg)
    print(f"{value:.3f}")
    if args.output:
        _write_rows(args.output, ["metric", "score"], [["bleu", repr(value)]])
    return 0


def _cmd_chrf(args) -> int:
    cfg = ngram.ChrfConfig(char_order=args.char_order, beta=args.beta)
    value = ngram.chrf(_read_text(args.hyp), _read_text(args.ref), cfg)
    print(f"{value:.3f}")
    if args.output:
        _write_rows(args.output, ["metric", "score"], [["chrf", repr(value)]])
    return 0


def _cmd_cross_bleu(args) -> int:
    cfg = ngram.BleuConfig(max_order=args.max_order, tokenizer=args.tokenizer)
    texts = {os.path.splitext(os.path.basename(p))[0]: _read_text(p)
             for p in args.outputs}
    if len(texts) != len(args.outputs):
        raise ConfigError("output files must have distinct basenames")
    names, matrix, averages = ngram.cross_bleu_matrix(texts, cfg)
    rows = [[name] + [repr(v) for v in row]
            for name, row in zip(names, matrix)]
    rows += [["[average]"] + [repr(a) for a in averages]]
    _write_rows(args.output, ["hyp\\ref"] + names, rows)
    return 0


# ---------------------------------------------------------------------------
# subsample
# ---------------------------------------------------------------------------

def _cmd_subsample(args) -> int:
    from . import metaeval

    sizes = [_parse_number(int, s, "size") for s in args.sizes.split(",") if s]
    if not sizes:
        raise ConfigError("no sizes given")
    human = scores_by_pair(read_score_table(args.human, SYSTEM_KEYS))
    metric, _ = _read_segment_scores(args.metric_seg, human)

    with _blame(args.metric_seg):
        curves = [metaeval.subsample_correlations(
            human.get(lp, {}), metric.get(lp, {}), sizes, draws=args.draws,
            seed=args.seed, lang_pair=lp)
            for lp in metaeval.scored_pairs(human, metric)]
    rows = [[curve[size].lang_pair, size, _repr_r(curve[size].r)]
            for curve in curves for size in sizes]
    for size in sizes:
        results = [curve[size] for curve in curves]
        avg = metaeval.average_correlations(results)
        rows.append(["[all]", size, _repr_r(avg)])
        line = f"{size}\t{_format_r(avg)}"
        degenerate = [res.lang_pair for res in results if res.r is None]
        unreliable = [res.lang_pair for res in results if not res.reliable]
        if degenerate:
            line += ("\t(degenerate: constant scores: "
                     + ",".join(degenerate) + ")")
        if unreliable:
            line += "\t(unreliable: <4 systems: " + ",".join(unreliable) + ")"
        print(line)
    _write_rows(args.output, ["lang_pair", "size", "mean_r"], rows)
    return 0


# ---------------------------------------------------------------------------
# tune-thresholds
# ---------------------------------------------------------------------------

def _parse_grid(text: str) -> list:
    if ":" in text:
        import numpy as np

        from .scoring import check_grid

        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad grid spec {text!r}, expected lo:hi:n")
        # linspace warns on a non-finite end or a step beyond the float range
        lo, hi = check_grid(_parse_number(float, v, "grid point")
                            for v in parts[:2])
        n = _parse_number(int, parts[2], "grid size")
        if n < 2:
            raise ConfigError(f"grid size {n} below 2")
        return list(np.linspace(lo, hi, n))
    return [_parse_number(float, v, "grid point")
            for v in text.split(",") if v]


def _cmd_tune_thresholds(args) -> int:
    from . import metaeval, scoring

    grid = None if args.grid is None else _parse_grid(args.grid)
    table = read_score_table(args.human, SYSTEM_KEYS)
    human = HumanJudgments(table)
    dirs = {}   # language pair -> its directory
    for name in sorted(os.listdir(args.scores_dir)):
        lp_dir = os.path.join(args.scores_dir, name)
        if not os.path.isdir(lp_dir):
            continue
        try:
            lp = str(LanguagePair.parse(name))
        except DomainError as exc:
            raise DomainError(f"{lp_dir}: {exc}") from None
        if lp in dirs:
            raise ConfigError(f"{dirs[lp]} and {lp_dir} hold the same "
                              f"language pair {lp}")
        dirs[lp] = lp_dir
    datasets = []
    # a pair's files that do not line up are the directory's fault too
    with _blame(args.scores_dir, (InsufficientDataError, AlignmentError)):
        for lp in metaeval.scored_pairs(scores_by_pair(table), dirs):
            lp_dir = dirs.get(lp)
            files = [] if lp_dir is None else sorted(
                f for f in os.listdir(lp_dir) if f.endswith(".jsonl"))
            if not files:
                raise InsufficientDataError(f"{lp}: no token-score files")
            lang_pair = LanguagePair.parse(lp)
            outputs = []
            for fname in files:
                token_scores = load_token_scores(os.path.join(lp_dir, fname))
                segments = tuple(SegmentPair(s.seg_id, "", "")
                                 for s in token_scores)
                outputs.append(SystemOutput(fname[:-len(".jsonl")], lang_pair,
                                            segments, tuple(token_scores)))
            datasets.append(assemble_dataset(outputs, human))
        low, high = scoring.tune_thresholds(datasets, grid)
    print(f"low\t{low!r}")
    print(f"high\t{high!r}")
    return 0


# ---------------------------------------------------------------------------
# subword
# ---------------------------------------------------------------------------

def _cmd_subword_train(args) -> int:
    from . import subword

    tokens = []
    for line in _read_text(args.corpus):
        tokens.extend(line.split())
    model = subword.train_unigram(tokens, args.vocab_size, rounds=args.rounds,
                                  max_piece_len=args.max_piece_len,
                                  min_count=args.min_count)
    subword.save_unigram_model(model, args.output)
    print(f"vocabulary size\t{len(model.vocab)}")
    return 0


def _cmd_subword_nbest(args) -> int:
    from . import subword

    model = subword.load_unigram_model(args.model)
    for seg in subword.nbest_segmentations(model, args.text, args.n):
        print(f"{seg.score:.3f}\t{' '.join(seg.pieces)}")
    return 0


def _cmd_subword_sample(args) -> int:
    import numpy as np

    from . import subword

    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    model = subword.load_unigram_model(args.model)
    lines = _read_text(args.input)
    # all samples are built first: an error leaves no sample file behind
    samples = []
    for k in range(1, args.k + 1):
        rng = np.random.default_rng([args.seed, k])
        samples.append([
            " ".join(piece for token in line.split()
                     for piece in subword.sample_segmentation(
                         model, token, n=args.n, alpha=args.alpha,
                         rng=rng).pieces)
            for line in lines
        ])
    for k, sample in enumerate(samples, start=1):
        path = f"{args.output}.{k}.txt"
        write_lines(path, sample)
        print(path)
    return 0


# ---------------------------------------------------------------------------
# toy-scorer
# ---------------------------------------------------------------------------

def _cmd_toy_train(args) -> int:
    from . import model1

    sources = [line.split() for line in _read_text(args.source)]
    targets = [line.split() for line in _read_text(args.target)]
    if len(sources) != len(targets):
        raise AlignmentError(
            f"{len(sources)} source lines vs {len(targets)} target lines"
        )
    table = model1.train_model1(list(zip(sources, targets)),
                                iterations=args.iterations)
    model1.save_lexical_table(table, args.output)
    print(f"targets\t{len(table.target_index)}")
    print(f"sources\t{len(table.source_index)}")
    return 0


def _cmd_toy_score(args) -> int:
    from . import model1

    table = model1.load_lexical_table(args.model)
    sources = read_lines_with_ids(args.source, args.ids)
    targets = read_lines_with_ids(args.target, args.ids)
    same_segments({args.source: [i for i, _ in sources],
                   args.target: [i for i, _ in targets]})
    segments = model1.score_corpus(
        table, [(src.split(), tgt.split())
                for (_, src), (_, tgt) in zip(sources, targets)],
        [seg_id for seg_id, _ in sources])
    write_token_scores(args.output, segments)
    print(args.output)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peereval",
        description="Reference-free MT scoring and metric meta-evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="aggregate token scores into a system score")
    p.add_argument("--samples", nargs="+", required=True,
                   help="token-score JSONL files, one per regularization "
                        "sample, averaged per token, or per segment (sum, "
                        "mean, threshold) when some segment's tokens differ")
    p.add_argument("--method", required=True,
                   choices=["sum", "mean", "median", "min", "negstd",
                            "threshold"])
    p.add_argument("--low", type=float, default=-1.0,
                   help="lower confidence threshold (default -1.0)")
    p.add_argument("--high", type=float, default=-0.6,
                   help="upper confidence threshold (default -0.6)")
    p.add_argument("--system", default="system")
    p.add_argument("--lang-pair", default="xx-yy",
                   help="written in lower case (DE-EN as de-en)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("meta-eval",
                       help="correlate metric scores with human judgments")
    p.add_argument("--human", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--baseline", default=None,
                   help="second metric score TSV for the significance test")
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_meta_eval)

    p = sub.add_parser("pairwise",
                       help="pairwise ranking agreement with human decisions")
    p.add_argument("--human-seg", required=True)
    p.add_argument("--metric-seg", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_pairwise)

    p = sub.add_parser("bleu", help="corpus BLEU")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--tokenizer", choices=sorted(ngram.TOKENIZERS),
                   default="intl")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--smoothing", choices=["none", "exp-floor"],
                   default="none")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_bleu)

    p = sub.add_parser("chrf", help="corpus chrF")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--char-order", type=int, default=6)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_chrf)

    p = sub.add_parser("cross-bleu",
                       help="BLEU between system outputs (proximity)")
    p.add_argument("--outputs", nargs="+", required=True)
    p.add_argument("--tokenizer", choices=sorted(ngram.TOKENIZERS),
                   default="intl")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_cross_bleu)

    p = sub.add_parser("subsample",
                       help="correlation versus subsampled test-set size")
    p.add_argument("--human", required=True)
    p.add_argument("--metric-seg", required=True)
    p.add_argument("--sizes", default="100,200,400,800")
    p.add_argument("--draws", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_subsample)

    p = sub.add_parser("tune-thresholds",
                       help="grid-search the confidence-threshold band")
    p.add_argument("--human", required=True)
    p.add_argument("--scores-dir", required=True,
                   help="directory with <lang-pair>/<system>.jsonl files")
    p.add_argument("--grid",
                   help="lo:hi:n for a linear grid, or comma-separated points "
                        "(default -3:0:16)")
    p.set_defaults(func=_cmd_tune_thresholds)

    p = sub.add_parser("subword", help="unigram subword model")
    sw = p.add_subparsers(dest="subword_command", required=True)

    q = sw.add_parser("train")
    q.add_argument("--corpus", required=True)
    q.add_argument("--vocab-size", type=int, required=True)
    q.add_argument("--rounds", type=int, default=10)
    q.add_argument("--max-piece-len", type=int, default=8)
    q.add_argument("--min-count", type=int, default=2)
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=_cmd_subword_train)

    q = sw.add_parser("nbest")
    q.add_argument("--model", required=True)
    q.add_argument("--text", required=True)
    q.add_argument("--n", type=int, default=10)
    q.set_defaults(func=_cmd_subword_nbest)

    q = sw.add_parser("sample")
    q.add_argument("--model", required=True)
    q.add_argument("--input", required=True)
    q.add_argument("--k", type=int, required=True,
                   help="number of sample files to emit")
    q.add_argument("--alpha", type=float, default=1.0)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--n", type=int, default=10)
    q.add_argument("-o", "--output", required=True,
                   help="output prefix; files are <prefix>.<k>.txt")
    q.set_defaults(func=_cmd_subword_sample)

    p = sub.add_parser("toy-scorer", help="lexical-table scorer")
    ts = p.add_subparsers(dest="toy_command", required=True)

    q = ts.add_parser("train")
    q.add_argument("--source", required=True)
    q.add_argument("--target", required=True)
    q.add_argument("--iterations", type=int, default=10)
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=_cmd_toy_train)

    q = ts.add_parser("score")
    q.add_argument("--model", required=True)
    q.add_argument("--source", required=True)
    q.add_argument("--target", required=True)
    q.add_argument("--ids", default=None,
                   help="sidecar id file (default: 0-based line numbers)")
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=_cmd_toy_score)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PeerEvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
