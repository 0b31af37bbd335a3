"""The benchmark's workloads, run in a fresh interpreter per run.

    PYTHONPATH=src python3 perfbench/workloads.py --workload NAME --seed N \
        --seconds S --trace 0|1

Builds the seeded fixture (untimed), then repeats the workload's pass, one
operation at a time, while another pass still fits in ``--seconds``. Every
pass checks its outputs. Every time is scaled by the host's speed, sampled
during the pass (see ``hostspeed``). The last stdout line is one JSON object with the
measured values; ``perfbench/run.py`` turns it into the benchmark result.

With ``--trace 1`` the passes alternate between untraced and traced ones.
Traced passes wrap the public functions listed in ``traced_functions`` at
the module attribute their callers look them up through. Left unwrapped,
because they run per segment, per token or per candidate and a wrapper
would swamp them: ``scoring.threshold_value`` (per segment per threshold
candidate), ``scoring.regularize`` and ``model1.score_tokens`` (per
segment; timed through their callers), the ``subword`` segmenters (per
token) and ``ngram.tokenize_intl`` when called from inside
``tokenize_char_zh`` (the ``TOKENIZERS`` entries are wrapped).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from peereval import data, kernels, metaeval, model1, ngram, scoring, subword
from peereval.data import HumanJudgments, LanguagePair, SegmentPair, SystemOutput
from peereval.errors import PeerEvalError

import fixture
import hostspeed
from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, "_work")

SIZES = {
    "peer-corpus": {"short": 400, "long": 120, "subword_segments": 80,
                    "subword_train": 150, "samples": 3},
    "baselines": {"segments": 100},
    "cli-fanout": {"segments": 300},
}
# Small, but large enough that the ranking checks hold for any seed.
TINY_SIZES = {
    "peer-corpus": {"short": 200, "long": 60, "subword_segments": 30,
                    "subword_train": 30, "samples": 2},
    "baselines": {"segments": 100},
    "cli-fanout": {"segments": 100},
}
SUBWORD_VOCAB = 100
SUBSAMPLE_FRACTIONS = (8, 4, 2)   # test-set sizes n/8, n/4, n/2
AGGREGATIONS = tuple(scoring.Aggregation)
FLOOR_LOGP = math.log(model1.UNSEEN_PROB_FLOOR)
HOST = hostspeed.HostSpeed()


def traced_functions():
    """``(owner, key, name)`` for every function a traced pass wraps."""
    functions = {
        kernels: ("segment_stats", "model1_em_step"),
        model1: ("train_model1", "score_corpus"),
        data: ("load_token_scores", "write_token_scores",
               "read_lines_with_ids", "assemble_dataset"),
        subword: ("train_unigram",),
        scoring: ("aggregate_segments", "mean_token_logprobs",
                  "system_score", "tune_thresholds"),
        metaeval: ("metric_report", "compare_metrics", "pairwise_compare",
                   "subsample_correlations", "mad_outliers", "pearson",
                   "fisher_weighted_average", "williams_test"),
        ngram: ("bleu", "chrf", "cross_bleu", "cross_bleu_matrix"),
    }
    targets = []
    for module, names in functions.items():
        layer = module.__name__.rsplit(".", 1)[1]
        targets += [(module, name, f"{layer}.{name}") for name in names]
    targets += [(ngram.TOKENIZERS, key, f"ngram.tokenize.{key}")
                for key in sorted(ngram.TOKENIZERS)]
    return targets


# ---------------------------------------------------------------------------
# One pass: timers, counters and checks
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    times: dict = field(default_factory=lambda: defaultdict(float))
    samples: dict = field(default_factory=lambda: defaultdict(list))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    quality: float = float("nan")
    refs: list = field(default_factory=list)    # host speed samples (s)
    wall: float = 0.0
    scale: float = 1.0                          # set by ``summarize``
    tracer: Tracer = None

    @contextmanager
    def op(self, timer):
        """One operation: counted as attempted, its time added to ``timer``.
        An exception ends the pass and counts as the failed operation."""
        self.attempted += 1
        start = HOST.clock()
        try:
            yield
        finally:
            self.times[timer] += HOST.clock() - start

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def count_scored(self, segments):
        for seg in segments:
            self.counts["model1.tokens_scored"] += len(seg.logprobs)
            self.counts["model1.floor_hits"] += sum(v <= FLOOR_LOGP for v in seg.logprobs)


def ranked_by_noise(scores: dict, noise: dict) -> bool:
    """Metric order equals the order of increasing noise rate."""
    by_metric = sorted(scores, key=lambda s: -scores[s])
    by_noise = sorted(scores, key=lambda s: noise[s])
    return by_metric == by_noise and len(set(scores.values())) == len(scores)


# ---------------------------------------------------------------------------
# peer-corpus: the reference-free pipeline in one process
# ---------------------------------------------------------------------------

@dataclass
class PeerFixture:
    pairs: tuple
    human_segments: dict   # lang pair -> {system: [score]}
    far_off: str           # lang pair holding the far-off system
    subword_pair: str
    sizes: dict
    seed: int
    workdir: str


def build_peer(seed, sizes, workdir):
    pairs = (
        fixture.make_pair("en-de", seed, 0, sizes["short"], far_off=True),
        fixture.make_pair("cs-en", seed, 1, sizes["short"]),
        fixture.make_pair("de-fr", seed, 2, sizes["long"], min_len=10, max_len=60),
    )
    return PeerFixture(pairs, {p.lang_pair: p.human_segments() for p in pairs},
                       "en-de", "cs-en", sizes, seed, workdir)


def peer_pass(fx: PeerFixture, p: Pass):
    human_by_pair, datasets = {}, []
    metric = {m: {} for m in AGGREGATIONS}
    seg_means = {}
    for pair in fx.pairs:
        lp = pair.lang_pair
        with p.op("model1.train_s"):
            table = model1.train_model1(list(zip(pair.sources, pair.references)))
        outputs, seg_means[lp] = [], {}
        for name in sorted(pair.systems):
            with p.op("model1.score_s"):
                scored = model1.score_corpus(
                    table, list(zip(pair.sources, pair.systems[name])))
            p.count_scored(scored)
            path = os.path.join(fx.workdir, f"{lp}.{name}.jsonl")
            with p.op("data.write_token_scores_s"):
                data.write_token_scores(path, scored)
            with p.op("data.load_token_scores_s"):
                loaded = data.load_token_scores(path)
            p.counts["data.token_rows"] += len(loaded)
            p.check(loaded == scored, f"{lp}/{name}: JSONL round trip changed scores")
            for method in AGGREGATIONS:
                with p.op("scoring.aggregate_s"):
                    seg_scores = scoring.aggregate_segments(loaded, method)
                    value = scoring.system_score(seg_scores, name, lp, method.value).value
                metric[method][(lp, name)] = value
                if method is scoring.Aggregation.MEAN:
                    seg_means[lp][name] = [s.value for s in seg_scores]
            outputs.append(SystemOutput(
                name, LanguagePair.parse(lp),
                tuple(SegmentPair(s.seg_id, "", "") for s in loaded), tuple(loaded)))
        human_by_pair[lp] = pair.human_system()
        judgments = HumanJudgments({(lp, s): v for s, v in human_by_pair[lp].items()})
        with p.op("data.assemble_s"):
            datasets.append(data.assemble_dataset(outputs, judgments))
        if lp == fx.subword_pair:
            subword_step(fx, pair, p)

    with p.op("scoring.tune_thresholds_s"):
        low, high = scoring.tune_thresholds(datasets)
    grid = len(scoring.DEFAULT_THRESHOLD_GRID)
    p.counts["scoring.tune_candidates"] += grid * (grid - 1) // 2 * len(datasets)
    p.check(low < high, f"tune_thresholds returned low={low} >= high={high}")

    reports = {}
    for method in AGGREGATIONS:
        with p.op("metaeval.report_s"):
            reports[method] = metaeval.metric_report(human_by_pair, metric[method])
    with p.op("metaeval.report_s"):
        metaeval.compare_metrics(human_by_pair, metric[scoring.Aggregation.MEAN],
                                 metric[scoring.Aggregation.MEDIAN])
    for pair in fx.pairs:
        lp = pair.lang_pair
        with p.op("metaeval.pairwise_s"):
            metaeval.pairwise_compare(seg_means[lp], fx.human_segments[lp])
        with p.op("metaeval.subsample_s"):
            metaeval.subsample_correlations(
                human_by_pair[lp], seg_means[lp],
                [len(pair.sources) // f for f in SUBSAMPLE_FRACTIONS], seed=fx.seed)

    mean_report = reports[scoring.Aggregation.MEAN]
    p.counts["metaeval.outliers"] += sum(len(r.outliers) for r in mean_report.per_pair)
    p.counts["metaeval.unreliable_pairs"] += sum(not r.reliable for r in mean_report.per_pair)
    p.quality = mean_report.weighted_average

    for pair in fx.pairs:
        lp = pair.lang_pair
        far = [s for s, rate in pair.noise.items() if rate == fixture.FAR_OFF_RATE]
        outliers = mean_report.result_for(lp).outliers
        if lp == fx.far_off:
            p.check(outliers == tuple(far), f"{lp}: MAD filter flagged {outliers}, not {far}")
        kept = [s for s in pair.systems if s not in outliers]
        for method in (scoring.Aggregation.MEAN, scoring.Aggregation.SUM):
            scores = {s: metric[method][(lp, s)] for s in kept}
            p.check(ranked_by_noise(scores, pair.noise),
                    f"{lp}: {method.value} does not rank systems by noise")


def subword_step(fx: PeerFixture, pair, p: Pass):
    """K-sample subword regularization on the first segments of one pair."""
    n, k = fx.sizes["subword_segments"], fx.sizes["samples"]
    lp = pair.lang_pair
    words = [w for ref in pair.references[:fx.sizes["subword_train"]] for w in ref]
    with p.op("subword.train_s"):
        sw_model = subword.train_unigram(words, SUBWORD_VOCAB)

    def pieces(tokens, rng=None):
        out = []
        for word in tokens:
            if rng is None:
                out += subword.viterbi_segmentation(sw_model, word).pieces
            else:
                out += subword.sample_segmentation(sw_model, word, rng=rng).pieces
        return tuple(out)

    sources = pair.sources[:n]
    with p.op("subword.sample_s"):
        references = [pieces(ref) for ref in pair.references[:n]]
    with p.op("model1.train_s"):
        table = model1.train_model1(list(zip(sources, references)))
    regularized = {}
    for index, name in enumerate(sorted(pair.systems)):
        samples = []
        with p.op("subword.sample_s"):
            for draw in range(k):
                rng = np.random.default_rng([fx.seed, index, draw])
                samples.append([pieces(hyp, rng) for hyp in pair.systems[name][:n]])
        p.counts["subword.samples"] += k * n
        scored = []
        for sample in samples:
            with p.op("model1.score_s"):
                scored.append(model1.score_corpus(table, list(zip(sources, sample))))
            p.count_scored(scored[-1])
        with p.op("scoring.regularize_s"):
            seg_scores = [scoring.regularize([s[i] for s in scored], "segment",
                                             length_normalize=True)
                          for i in range(n)]
            regularized[name] = scoring.system_score(seg_scores, name, lp,
                                                     "regularized").value
    cleanest = min(regularized, key=pair.noise.get)
    noisiest = max(regularized, key=pair.noise.get)
    p.check(regularized[cleanest] > regularized[noisiest],
            f"{lp}: regularized score prefers {noisiest} to {cleanest}")


def pass_quality(fx, passes):
    return passes[0].quality


def peer_segments(fx):
    return sum(len(pr.systems) * len(pr.sources) for pr in fx.pairs)


# ---------------------------------------------------------------------------
# baselines: BLEU, chrF and cross-BLEU from files
# ---------------------------------------------------------------------------

BASELINE_PAIRS = (("en-fr", "ascii", "intl"), ("en-zh", "cjk", "char-for-zh"))
# Every segment has this many tokens, so that the amount of text, and with
# it the time, does not change with the seed (lengths drawn from 4 to 14
# moved it by about 4 % between seeds).
BASELINE_SEGMENT_LEN = 9


@dataclass
class BaselineFixture:
    pairs: tuple           # (Pair, tokenizer, {key: path})
    workdir: str


def build_baselines(seed, sizes, workdir):
    pairs = []
    for index, (lp, script, tokenizer) in enumerate(BASELINE_PAIRS):
        pair = fixture.make_pair(lp, seed, index, sizes["segments"],
                                 min_len=BASELINE_SEGMENT_LEN, max_len=BASELINE_SEGMENT_LEN,
                                 script=script, rates=fixture.WIDE_NOISE_RATES)
        paths = fixture.write_pair_files(pair, os.path.join(workdir, lp))
        pairs.append((pair, tokenizer, paths))
    return BaselineFixture(tuple(pairs), workdir)


def baselines_pass(fx: BaselineFixture, p: Pass):
    for pair, tokenizer, paths in fx.pairs:
        lp = pair.lang_pair
        texts = {}
        for key in ["reference", *sorted(pair.systems)]:
            with p.op("data.read_lines_s"):
                texts[key] = [text for _, text in data.read_lines_with_ids(paths[key])]
            p.counts["ngram.lines"] += len(texts[key])
        reference = texts.pop("reference")
        cfg = ngram.BleuConfig(tokenizer=tokenizer)
        bleu, chrf = {}, {}
        for name in sorted(pair.systems):
            with p.op(f"ngram.bleu_s.{tokenizer}"):
                bleu[name] = ngram.bleu(texts[name], reference, cfg)
            with p.op("ngram.chrf_s"):
                chrf[name] = ngram.chrf(texts[name], reference)
        with p.op(f"ngram.cross_bleu_s.{tokenizer}"):
            names, matrix, _ = ngram.cross_bleu_matrix(texts, cfg)
        for metric, scores in (("BLEU", bleu), ("chrF", chrf)):
            p.check(abs(scores["sys-noise00"] - 100.0) < 1e-9,
                    f"{lp}: {metric} of sys-noise00 is {scores['sys-noise00']}")
            p.check(ranked_by_noise(scores, pair.noise),
                    f"{lp}: {metric} does not fall strictly with noise")
        p.check(all(matrix[i][i] == 100.0 for i in range(len(names))),
                f"{lp}: cross-BLEU diagonal is not 100")


def baselines_warm_up(fx):
    ngram.bleu(["a ."], ["a ."])   # builds the intl tables, as run.py's setup spawn does


def baselines_quality(fx, passes):
    """The peer correlation on this fixture, computed untimed and untraced."""
    human, metric = {}, {}
    for pair, _, _ in fx.pairs:
        lp = pair.lang_pair
        table = model1.train_model1(
            [(src, pair.tokens(ref)) for src, ref in zip(pair.sources, pair.references)])
        for name, out in pair.systems.items():
            scored = model1.score_corpus(
                table, [(src, pair.tokens(hyp)) for src, hyp in zip(pair.sources, out)])
            seg_scores = scoring.aggregate_segments(scored, scoring.Aggregation.MEAN)
            metric[(lp, name)] = scoring.system_score(seg_scores, name, lp, "mean").value
        human[lp] = pair.human_system()
    return metaeval.metric_report(human, metric).weighted_average


def baselines_segments(fx):
    return sum(len(pair.systems) * len(pair.sources) for pair, _, _ in fx.pairs)


# ---------------------------------------------------------------------------
# cli-fanout: one process per step, as the CLI is used today
# ---------------------------------------------------------------------------

CLI_PAIR = "de-en"
CLI_SYSTEMS = 5
CLI_TIMEOUT_S = 60


@dataclass
class CliFixture:
    pair: object
    paths: dict
    scores_dir: str
    library_scores: dict   # system -> mean system score from the library
    library_bleu: dict     # system -> corpus BLEU from the library
    cli_system: str        # the system the timed score and bleu calls read
    roundtrip_failures: int
    workdir: str


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_cli(args, workdir, tag):
    """Run ``python -m peereval.cli ARGS``; returns the exit code."""
    with open(os.path.join(workdir, f"{tag}.out"), "wb") as out, \
            open(os.path.join(workdir, f"{tag}.err"), "wb") as err:
        return subprocess.run([sys.executable, "-m", "peereval.cli", *args],
                              stdout=out, stderr=err, env=cli_env(), cwd=ROOT,
                              timeout=CLI_TIMEOUT_S).returncode


def build_cli(seed, sizes, workdir):
    pair = fixture.make_pair(CLI_PAIR, seed, 0, sizes["segments"])
    systems = sorted(pair.systems, key=pair.noise.get)[:CLI_SYSTEMS]
    pair = fixture.Pair(pair.lang_pair, pair.sources, pair.references,
                        {s: pair.systems[s] for s in systems},
                        {s: pair.noise[s] for s in systems},
                        fixture.surface_forms("ascii", fixture.derive_seed(seed, 0)))
    paths = fixture.write_pair_files(pair, workdir)
    # Token scores, segment and system scores and BLEU come from the library,
    # untimed; the timed calls read them.
    table = model1.train_model1(
        [(src, pair.tokens(ref)) for src, ref in zip(pair.sources, pair.references)])
    scores_dir = os.path.join(workdir, "scores")
    os.makedirs(os.path.join(scores_dir, CLI_PAIR))
    library_scores, seg_rows = {}, ["lang_pair\tsystem\tseg\tscore"]
    for name in systems:
        scored = model1.score_corpus(
            table, [(src, pair.tokens(hyp)) for src, hyp in zip(pair.sources, pair.systems[name])])
        path = os.path.join(scores_dir, CLI_PAIR, f"{name}.jsonl")
        data.write_token_scores(path, scored)
        paths[f"{name}.jsonl"] = path
        seg_scores = scoring.aggregate_segments(data.load_token_scores(path),
                                                scoring.Aggregation.MEAN)
        library_scores[name] = scoring.system_score(seg_scores, name, CLI_PAIR, "mean").value
        seg_rows += [f"{CLI_PAIR}\t{name}\t{s.seg_id}\t{s.value!r}" for s in seg_scores]
    library_bleu = {name: ngram.bleu([pair.text(h) for h in pair.systems[name]],
                                     [pair.text(r) for r in pair.references])
                    for name in systems}
    tables = {
        "metric_seg": ("metric-seg.tsv", seg_rows),
        "mean_scores": ("mean-scores.tsv", system_rows(library_scores)),
        "bleu_scores": ("bleu-scores.tsv", system_rows(library_bleu)),
    }
    for key, (filename, rows) in tables.items():
        paths[key] = os.path.join(workdir, filename)
        with open(paths[key], "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(row + "\n" for row in rows)
    return CliFixture(pair, paths, scores_dir, library_scores, library_bleu,
                      systems[-1], cli_roundtrip_failures(paths, workdir), workdir)


def system_rows(scores):
    return ["lang_pair\tsystem\tscore"] + [f"{CLI_PAIR}\t{name}\t{value!r}"
                                          for name, value in sorted(scores.items())]


def cli_roundtrip_failures(paths, workdir) -> int:
    """``toy-scorer train`` then ``score``; 1 if either exits non-zero."""
    table = os.path.join(workdir, "lexical-table.tsv")
    steps = (
        ["toy-scorer", "train", "--source", paths["source"], "--target",
         paths["reference"], "-o", table],
        ["toy-scorer", "score", "--model", table, "--source", paths["source"],
         "--target", paths["sys-noise00"], "-o", os.path.join(workdir, "toy.jsonl")],
    )
    for i, args in enumerate(steps):
        if run_cli(args, workdir, f"roundtrip{i}") != 0:
            return 1
    return 0


def cli_pass(fx: CliFixture, p: Pass):
    wd = fx.workdir

    def call(subcommand, args, tag):
        with p.op("cli.call_s"):
            start = HOST.clock()
            code = run_cli([subcommand, *args], wd, tag)
            p.samples[f"cli.call_ms.{subcommand}"].append(1000 * (HOST.clock() - start))
        p.counts["cli.calls"] += 1
        p.check(code == 0, f"{subcommand} ({tag}) exited with {code}")
        return code == 0

    def read_cell(path, column):
        with open(path, encoding="utf-8") as fh:
            return float(fh.read().splitlines()[1].split("\t")[column])

    name = fx.cli_system
    out = os.path.join(wd, "score.tsv")
    if call("score", ["--samples", fx.paths[f"{name}.jsonl"], "--method", "mean",
                      "--system", name, "--lang-pair", CLI_PAIR, "-o", out], "score"):
        value = read_cell(out, 2)
        p.check(value == fx.library_scores[name],
                f"score {name}: CLI {value!r} != library {fx.library_scores[name]!r}")
    out = os.path.join(wd, "bleu.tsv")
    if call("bleu", ["--hyp", fx.paths[name], "--ref", fx.paths["reference"],
                     "-o", out], "bleu"):
        value = read_cell(out, 1)
        p.check(value == fx.library_bleu[name],
                f"bleu {name}: CLI {value!r} != library {fx.library_bleu[name]!r}")
    report = os.path.join(wd, "report.json")
    if call("meta-eval", ["--human", fx.paths["human_sys"], "--scores", fx.paths["mean_scores"],
                          "--baseline", fx.paths["bleu_scores"], "--format", "json",
                          "-o", report], "meta-eval"):
        with open(report, encoding="utf-8") as fh:
            p.quality = json.load(fh)["group_averages"]["all"]
    call("pairwise", ["--human-seg", fx.paths["human_seg"],
                      "--metric-seg", fx.paths["metric_seg"]], "pairwise")
    call("tune-thresholds", ["--human", fx.paths["human_sys"],
                             "--scores-dir", fx.scores_dir], "tune-thresholds")


def cli_segments(fx):
    return len(fx.pair.systems) * len(fx.pair.sources)


# ---------------------------------------------------------------------------
# Timed phase and result
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    build: object
    run_pass: object
    system_segments: object
    quality: object = pass_quality
    warm_up: object = lambda fx: None


WORKLOADS = {
    "peer-corpus": Workload(build_peer, peer_pass, peer_segments),
    "baselines": Workload(build_baselines, baselines_pass, baselines_segments,
                          baselines_quality, baselines_warm_up),
    "cli-fanout": Workload(build_cli, cli_pass, cli_segments),
}


def run_pass(workload, fx, traced):
    p = Pass()
    first = len(HOST.samples)
    start = HOST.clock()
    try:
        if traced:
            p.tracer = Tracer(clock=HOST.clock)
            with p.tracer.installed(traced_functions()):
                workload.run_pass(fx, p)
        else:
            workload.run_pass(fx, p)
    except Exception as exc:  # a failed op ends the pass; the run goes on
        if not isinstance(exc, PeerEvalError):
            traceback.print_exc()
        p.failed += 1
        p.failures.append(f"{type(exc).__name__}: {exc}")
    p.wall = HOST.clock() - start
    HOST.sample()
    p.refs = HOST.samples[max(0, first - 1):]
    return p


def timed_phase(workload, fx, seconds, trace):
    """Passes while another one fits in ``seconds`` (at least one; with
    ``trace`` alternating untraced and traced, at least one of each)."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        want_traced = trace and len(traced) < len(untraced)
        p = run_pass(workload, fx, want_traced)
        (traced if want_traced else untraced).append(p)
        if p.failed:
            break
        if trace and not traced:
            continue
        per_pass = statistics.median(q.wall for q in untraced + traced)
        if time.perf_counter() - start + per_pass > seconds:
            break
    return untraced, traced


def median_of(passes, get):
    return statistics.median(get(p) for p in passes)


def summarize(name, workload, fx, untraced, traced, fixture_s):
    first = untraced[0]
    if name == "cli-fanout":
        values = {"cli.roundtrip_failures": fx.roundtrip_failures}
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        values = {}
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passes = untraced + traced
    for p in passes:
        p.scale = hostspeed.scale(p.refs)
    wall = median_of(untraced, lambda p: p.wall * p.scale)
    values.update({
        "wall_s": wall,
        "wall_unscaled_s": median_of(untraced, lambda p: p.wall),
        "host.loop_ms": 1000 * statistics.median(r for p in passes for r in p.refs),
        "seg_per_s": workload.system_segments(fx) / wall,
        "peak_rss_mb": peak_kb / 1024.0,
        "peer_r_all": workload.quality(fx, untraced),
    })
    for timer in {t for p in untraced for t in p.times}:
        values[timer] = median_of(untraced, lambda p: p.times.get(timer, 0.0) * p.scale)
    for key in {k for p in untraced for k in p.samples}:
        values[key] = statistics.median(v * p.scale for p in untraced for v in p.samples[key])
    values.update(first.counts)
    tokens = first.counts.get("model1.tokens_scored", 0)
    values["model1.floor_ratio"] = first.counts.get("model1.floor_hits", 0) / tokens if tokens else 0.0

    table = {}
    if traced:
        values["trace.overhead_ratio"] = median_of(traced, lambda p: p.wall * p.scale) / wall - 1.0
        stats = [(p.tracer.stats, p.scale) for p in traced]
        for fn in sorted({fn for s, _ in stats for fn in s}):
            table[fn] = [stats[0][0].get(fn, [0])[0]] + [
                statistics.median(s.get(fn, [0, 0.0, 0.0])[i] * k for s, k in stats)
                for i in (1, 2)]

        def calls(fn):
            return table.get(fn, [0])[0]

        def total(fn):
            return table.get(fn, [0, 0.0])[1]

        for fn in ("kernels.segment_stats", "kernels.model1_em_step"):
            values[f"{fn}_s"], values[f"{fn}_calls"] = total(fn), calls(fn)
        for key in ngram.TOKENIZERS:
            values[f"ngram.tokenize_s.{key}"] = total(f"ngram.tokenize.{key}")
            values[f"ngram.tokenize_calls.{key}"] = calls(f"ngram.tokenize.{key}")
        lines = first.counts.get("ngram.lines", 0)
        tokenized = sum(calls(f"ngram.tokenize.{key}") for key in ngram.TOKENIZERS)
        values["ngram.tokenize_per_line"] = tokenized / lines if lines else 0.0

    return {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "failures": sorted({f for p in passes for f in p.failures}),
        "values": values,
        "trace_table": table,
        "meta": {"fixture_s": fixture_s, "passes": len(untraced),
                 "pass_walls": [round(p.wall, 4) for p in untraced],
                 "traced_passes": len(traced), "system_segments": workload.system_segments(fx)},
    }


def run(name, seed, seconds, trace, sizes=None):
    """Build the fixture, run the timed phase; returns the summary dict."""
    workload = WORKLOADS[name]
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    try:
        start = time.perf_counter()
        fx = workload.build(seed, sizes or SIZES[name], workdir)
        fixture_s = time.perf_counter() - start
        workload.warm_up(fx)
        with HOST.sampling():
            untraced, traced = timed_phase(workload, fx, seconds, trace)
        return summarize(name, workload, fx, untraced, traced, fixture_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
