"""peereval: reference-free MT scoring and metric meta-evaluation.

Turns token-level log-probabilities from any translation model into segment
and system quality scores, and meta-evaluates metric scores against human
judgments with outlier-filtered, Fisher-weighted correlations and
significance analysis.
"""

from .data import (
    EvalDataset,
    HumanJudgments,
    LanguagePair,
    SegmentPair,
    SystemOutput,
    TokenScoredSegment,
    assemble_dataset,
    load_human_scores,
    load_token_scores,
    write_token_scores,
)
from .errors import (
    AlignmentError,
    ConfigError,
    CoverageError,
    DomainError,
    InsufficientDataError,
    ParseError,
    PeerEvalError,
    StructureError,
)
from .metaeval import (
    CorrelationResult,
    MetricReport,
    PairwiseTally,
    compare_metrics,
    fisher_weighted_average,
    mad_outliers,
    metric_report,
    pairwise_compare,
    pearson,
    subsample_correlations,
    wilcoxon_ranksum,
    williams_test,
)
from .model1 import LexicalTable, score_corpus, train_model1
from .ngram import BleuConfig, ChrfConfig, bleu, chrf, cross_bleu
from .scoring import (
    Aggregation,
    SegmentScore,
    SystemScore,
    aggregate_segments,
    regularize,
    system_score,
    tune_thresholds,
)
from .subword import (
    Segmentation,
    UnigramSubwordModel,
    nbest_segmentations,
    sample_segmentation,
    train_unigram,
)

__version__ = "0.1.0"
