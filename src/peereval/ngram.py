"""Reference-based n-gram baselines: corpus BLEU, chrF, and cross-BLEU.

BLEU follows the de-facto standard corpus formulation: clipped modified
n-gram precisions accumulated over the corpus, geometric mean over the
orders that produced any hypothesis n-grams, times the brevity penalty.
chrF is the character n-gram F-beta with whitespace removed before n-gram
extraction. Cross-BLEU scores one system's output against another's to
measure proximity between systems.

The ``intl`` tokenizer (also behind ``char-for-zh``) splits at Unicode
punctuation and symbols. Those classes are a frozen table,
``_unicode_classes``, generated by ``scripts/gen_unicode_classes.py``, so
tokenization follows the table's Unicode version, not the running
interpreter's, and no process scans the code points.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from . import _unicode_classes
from .errors import AlignmentError, ConfigError, DomainError


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _intl_regexes():
    """The three regexes of ``tokenize_intl``, compiled on first use.

    Their punctuation and symbol classes are the frozen bodies in
    ``_unicode_classes`` (Unicode ``UNIDATA_VERSION``), written by
    ``scripts/gen_unicode_classes.py``; nothing here reads the running
    interpreter's Unicode database. Compiling takes a few milliseconds, so
    it waits for the first tokenization rather than the import.
    """
    punct, symbols = _unicode_classes.PUNCT, _unicode_classes.SYMBOLS
    return (
        re.compile(rf"([^\d])([{punct}])"),
        re.compile(rf"([{punct}])([^\d])"),
        re.compile(rf"([{symbols}])"),
    )


def tokenize_intl(line: str) -> List[str]:
    """International tokenization: split on punctuation and symbols except
    digit-adjacent punctuation (decimal and thousands separators)."""
    nondigit_punct, punct_nondigit, symbol = _intl_regexes()
    line = nondigit_punct.sub(r"\1 \2 ", line)
    line = punct_nondigit.sub(r" \1 \2", line)
    line = symbol.sub(r" \1 ", line)
    return line.split()


def tokenize_whitespace(line: str) -> List[str]:
    return line.split()


def _is_cjk(ch: str) -> bool:
    code = ord(ch)
    return (
        0x3400 <= code <= 0x4DB5
        or 0x4E00 <= code <= 0x9FBB
        or 0xF900 <= code <= 0xFAD9
        or 0x20000 <= code <= 0x2A6D6
        or 0x2F800 <= code <= 0x2FA1D
        or 0xFF00 <= code <= 0xFFEF
    )


def tokenize_char_zh(line: str) -> List[str]:
    """Split CJK characters individually, tokenize the rest as intl."""
    spaced = "".join(f" {ch} " if _is_cjk(ch) else ch for ch in line)
    return tokenize_intl(spaced)


TOKENIZERS = {
    "intl": tokenize_intl,
    "whitespace": tokenize_whitespace,
    "char-for-zh": tokenize_char_zh,
}


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BleuConfig:
    max_order: int = 4
    smoothing: str = "none"  # "none" or "exp-floor"
    tokenizer: str = "intl"

    def __post_init__(self):
        if self.max_order < 1:
            raise ConfigError(f"max_order must be >= 1, got {self.max_order}")
        if self.smoothing not in ("none", "exp-floor"):
            raise ConfigError(f"unknown smoothing {self.smoothing!r}")
        if self.tokenizer not in TOKENIZERS:
            raise ConfigError(f"unknown tokenizer {self.tokenizer!r}")


def _ngram_counts(tokens: Sequence[str], max_order: int) -> Counter:
    counts = Counter()
    for n in range(1, max_order + 1):
        counts.update(zip(*(tokens[k:] for k in range(n))))
    return counts


def _corpus_counts(lines: Iterable[str],
                   cfg: BleuConfig) -> Iterator[Tuple[int, Counter]]:
    """Per segment, in order: its token count and its n-gram counts."""
    tok = TOKENIZERS[cfg.tokenizer]
    for line in lines:
        tokens = tok(line)
        yield len(tokens), _ngram_counts(tokens, cfg.max_order)


class _BleuStats:
    """Clipped n-gram matches and lengths of one hypothesis/reference pair,
    added up segment by segment."""

    def __init__(self, max_order: int):
        self.correct = [0] * max_order
        self.total = [0] * max_order
        self.hyp_len = 0
        self.ref_len = 0

    def add(self, hyp: Tuple[int, Counter], ref: Tuple[int, Counter]) -> None:
        (hyp_n, hyp_counts), (ref_n, ref_counts) = hyp, ref
        self.hyp_len += hyp_n
        self.ref_len += ref_n
        correct, total = self.correct, self.total
        for ngram, count in hyp_counts.items():
            n = len(ngram)
            total[n - 1] += count
            correct[n - 1] += min(count, ref_counts.get(ngram, 0))


def _bleu_score(stats: _BleuStats, cfg: BleuConfig) -> float:
    """Corpus BLEU in [0, 100] from the summed segment statistics."""
    correct, total = stats.correct, stats.total
    hyp_len, ref_len = stats.hyp_len, stats.ref_len
    if ref_len == 0:
        raise DomainError("reference corpus has no tokens")
    if hyp_len == 0:
        return 0.0

    # Orders beyond the hypothesis n-gram supply are skipped rather than
    # zeroing the score; a missing numerator at a populated order still
    # zeroes it unless exp-floor smoothing is on.
    log_precisions = []
    zero_run = 0
    for n in range(cfg.max_order):
        if total[n] == 0:
            continue
        if correct[n] > 0:
            log_precisions.append(math.log(correct[n] / total[n]))
        elif cfg.smoothing == "exp-floor":
            zero_run += 1
            log_precisions.append(math.log(1.0 / (2 ** zero_run * total[n])))
        else:
            return 0.0
    if not log_precisions:
        return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(sum(log_precisions) / len(log_precisions))


def bleu(hypotheses: Sequence[str], references: Sequence[str],
         cfg: BleuConfig = BleuConfig()) -> float:
    """Corpus BLEU in [0, 100] of hypotheses against aligned references."""
    if len(hypotheses) != len(references):
        raise AlignmentError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise DomainError("empty corpus")
    # Both generators advance one segment at a time: nothing is kept.
    stats = _BleuStats(cfg.max_order)
    for hyp, ref in zip(_corpus_counts(hypotheses, cfg),
                        _corpus_counts(references, cfg)):
        stats.add(hyp, ref)
    return _bleu_score(stats, cfg)


# ---------------------------------------------------------------------------
# chrF
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChrfConfig:
    char_order: int = 6
    beta: float = 2.0

    def __post_init__(self):
        if self.char_order < 1:
            raise ConfigError(f"char_order must be >= 1, got {self.char_order}")
        if not 0 < self.beta < math.inf:   # also false for nan
            raise ConfigError(f"beta must be finite and > 0, got {self.beta}")


_WHITESPACE = re.compile(r"\s+")


def _char_ngrams(text: str, n: int) -> Counter:
    return Counter(text[i:i + n] for i in range(len(text) - n + 1))


def chrf(hypotheses: Sequence[str], references: Sequence[str],
         cfg: ChrfConfig = ChrfConfig()) -> float:
    """Corpus chrF in [0, 100]: character n-gram F-beta averaged over orders."""
    if len(hypotheses) != len(references):
        raise AlignmentError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise DomainError("empty corpus")
    hyp_totals = [0] * cfg.char_order
    ref_totals = [0] * cfg.char_order
    matches = [0] * cfg.char_order
    for hyp, ref in zip(hypotheses, references):
        hyp = _WHITESPACE.sub("", hyp)
        ref = _WHITESPACE.sub("", ref)
        for n in range(1, cfg.char_order + 1):
            hyp_counts = _char_ngrams(hyp, n)
            ref_counts = _char_ngrams(ref, n)
            hyp_totals[n - 1] += sum(hyp_counts.values())
            ref_totals[n - 1] += sum(ref_counts.values())
            matches[n - 1] += sum((hyp_counts & ref_counts).values())
    if sum(ref_totals) == 0:
        raise DomainError("reference corpus is empty after whitespace removal")

    beta_sq = cfg.beta ** 2
    f_scores = []
    for n in range(cfg.char_order):
        if hyp_totals[n] == 0 and ref_totals[n] == 0:
            continue
        precision = matches[n] / hyp_totals[n] if hyp_totals[n] else 0.0
        recall = matches[n] / ref_totals[n] if ref_totals[n] else 0.0
        if precision + recall == 0.0:
            f_scores.append(0.0)
        else:
            f_scores.append((1 + beta_sq) * precision * recall
                            / (beta_sq * precision + recall))
    if not f_scores:
        return 0.0
    return 100.0 * sum(f_scores) / len(f_scores)


# ---------------------------------------------------------------------------
# Cross-BLEU
# ---------------------------------------------------------------------------

def cross_bleu(output_a: Sequence[str], output_b: Sequence[str],
               cfg: BleuConfig = BleuConfig()) -> float:
    """BLEU of output_a against output_b as the reference (asymmetric)."""
    return bleu(output_a, output_b, cfg)


def cross_bleu_matrix(outputs: Dict[str, Sequence[str]],
                      cfg: BleuConfig = BleuConfig()):
    """All-pairs cross-BLEU.

    Returns (names, matrix, averages): matrix[i][j] scores system i as the
    hypothesis against system j as the reference; averages[i] is system i's
    mean over the other systems (its proximity to the field). Each output
    is tokenized and counted once, and every cell reuses those counts; the
    outputs advance together one segment at a time, so only one segment's
    counts per system are kept.
    """
    names = sorted(outputs)
    if len(names) < 2:
        raise DomainError("cross-BLEU matrix needs at least 2 systems")
    lengths = {len(outputs[name]) for name in names}
    if len(lengths) > 1:
        raise AlignmentError("cross-BLEU needs equal-length outputs, got "
                             + ", ".join(f"{name}: {len(outputs[name])}"
                                         for name in names))
    if lengths == {0}:
        raise DomainError("empty corpus")
    size = len(names)
    cells = {(i, j): _BleuStats(cfg.max_order)
             for i in range(size) for j in range(size) if i != j}
    streams = [_corpus_counts(outputs[name], cfg) for name in names]
    for segment in zip(*streams):
        for (i, j), stats in cells.items():
            stats.add(segment[i], segment[j])
    matrix = [[100.0] * size for _ in range(size)]
    for (i, j), stats in cells.items():
        if stats.ref_len == 0:
            raise DomainError(f"system {names[j]!r} has no tokens")
        matrix[i][j] = _bleu_score(stats, cfg)
    averages = [
        sum(matrix[i][j] for j in range(size) if j != i) / (size - 1)
        for i in range(size)
    ]
    return names, matrix, averages
