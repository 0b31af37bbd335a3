"""Reference-based n-gram baselines: corpus BLEU, chrF, and cross-BLEU.

One engine computes the statistic all three rest on: per order n, the
clipped n-gram matches of hypothesis against reference and the n-gram
totals, summed over the corpus. ``_ngram_counts`` keys every n-gram of a
sequence by its n-tuple; a sequence of length L has max(L - n + 1, 0)
n-grams of order n, so the totals follow from the lengths. BLEU feeds the
engine tokens; chrF feeds it each segment's characters with whitespace
removed, so its n-grams are n-tuples of characters.

BLEU follows the de-facto standard corpus formulation: clipped modified
n-gram precisions accumulated over the corpus, geometric mean over the
orders that produced any hypothesis n-grams, times the brevity penalty.
chrF is the character n-gram F-beta averaged over orders. Cross-BLEU scores
one system's output against another's to measure proximity between
systems.

The ``intl`` tokenizer (also behind ``char-for-zh``) splits at Unicode
punctuation and symbols. Those classes are a frozen table,
``_unicode_classes``, generated by ``scripts/gen_unicode_classes.py``, so
tokenization follows the table's Unicode version, not the running
interpreter's, and no process scans the code points. The tokenizers spend
their time in the regex engine: each class tries its astral ranges only
for astral characters (``_guarded_class``), the spacing is built by plain
functions and ``split``/``join`` rather than ``re.sub`` templates, and
``char-for-zh`` spaces its CJK characters with one regex split. The regexes
compile on first use, the CJK class only on the first ``char-for-zh`` call.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from . import _unicode_classes
from .errors import AlignmentError, ConfigError, DomainError


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

# Every code point beyond the Basic Multilingual Plane.
_ASTRAL = "\U00010000-\U0010FFFF"
# The CJK blocks ``char-for-zh`` splits into characters, as in sacreBLEU.
_CJK = ("\u3400-\u4DB5\u4E00-\u9FBB\uF900-\uFAD9\uFF00-\uFFEF"
        "\U00020000-\U0002A6D6\U0002F800-\U0002FA1D")


def _guarded_class(body: str) -> str:
    """A regex matching exactly the code points of ``[body]``, in which a
    BMP character never tests the astral ranges.

    ``sre`` keeps the BMP part of a class as a bitmap but tests every
    astral range one at a time, so a character outside ``[body]`` would walk
    all of them. ``body`` is sorted by code point and no range in it crosses
    U+FFFF (``scripts/gen_unicode_classes.py`` ends every run there), so it
    splits at its first astral character into a BMP class and an astral
    class, and the astral class is tried only behind one range test.
    """
    cut = next(i for i, ch in enumerate(body) if ch > "\uffff")
    return f"(?:[{body[:cut]}]|(?=[{_ASTRAL}])[{body[cut:]}])"


@functools.lru_cache(maxsize=None)
def _intl_regexes():
    """The three regexes of ``tokenize_intl``, compiled on first use.

    Their punctuation and symbol classes are the frozen bodies in
    ``_unicode_classes`` (Unicode ``UNIDATA_VERSION``), written by
    ``scripts/gen_unicode_classes.py`` and guarded by ``_guarded_class``;
    nothing here reads the running interpreter's Unicode database.
    Compiling takes a few milliseconds, so it waits for the first
    tokenization rather than the import. The CJK class of ``char-for-zh``
    is not here but in ``_cjk_regex``, so BLEU with ``intl`` never pays
    for it.
    """
    punct = _guarded_class(_unicode_classes.PUNCT)
    symbols = _guarded_class(_unicode_classes.SYMBOLS)
    return (
        re.compile(rf"([^\d])({punct})"),
        re.compile(rf"({punct})([^\d])"),
        re.compile(rf"({symbols})"),
    )


@functools.lru_cache(maxsize=None)
def _cjk_regex():
    """One CJK character as a group, compiled on the first ``char-for-zh``
    call: ``sre`` fills its BMP bitmap in a Python loop (about 2 ms)."""
    return re.compile(f"([{_CJK}])")


# ``re.sub`` expands a template such as r"\1 \2 " in Python once per match;
# these build the same strings directly.
def _space_after(match: re.Match) -> str:
    return f"{match[1]} {match[2]} "


def _space_before(match: re.Match) -> str:
    return f" {match[1]} {match[2]}"


def _space_around(regex: re.Pattern, line: str) -> str:
    r"""``regex.sub(r" \1 ", line)`` for a regex with one group: its split
    alternates text and matches, so single spaces between the parts put
    one on each side of every match."""
    return " ".join(regex.split(line))


def tokenize_intl(line: str) -> List[str]:
    """International tokenization: split on punctuation and symbols except
    digit-adjacent punctuation (decimal and thousands separators)."""
    nondigit_punct, punct_nondigit, symbol = _intl_regexes()
    line = nondigit_punct.sub(_space_after, line)
    line = punct_nondigit.sub(_space_before, line)
    return _space_around(symbol, line).split()


def tokenize_whitespace(line: str) -> List[str]:
    return line.split()


def tokenize_char_zh(line: str) -> List[str]:
    """Split CJK characters individually, tokenize the rest as intl."""
    return tokenize_intl(_space_around(_cjk_regex(), line))


TOKENIZERS = {
    "intl": tokenize_intl,
    "whitespace": tokenize_whitespace,
    "char-for-zh": tokenize_char_zh,
}


# ---------------------------------------------------------------------------
# The n-gram statistics engine
# ---------------------------------------------------------------------------

def _ngram_counts(seq: Sequence, max_order: int) -> Counter:
    """Every n-gram of orders 1..max_order in a token list or a string."""
    counts = Counter()
    for n in range(1, max_order + 1):
        counts.update(zip(*(seq[k:] for k in range(n))))
    return counts


class _NgramStats:
    """Clipped n-gram matches, n-gram totals per order and lengths of one
    hypothesis/reference pair, added up segment by segment."""

    def __init__(self, max_order: int):
        self.matches = [0] * max_order
        self.hyp_total = [0] * max_order
        self.ref_total = [0] * max_order
        self.hyp_len = 0
        self.ref_len = 0

    def add(self, hyp: Tuple[int, Counter], ref: Tuple[int, Counter]) -> None:
        (hyp_n, hyp_counts), (ref_n, ref_counts) = hyp, ref
        self.hyp_len += hyp_n
        self.ref_len += ref_n
        for n in range(len(self.matches)):
            self.hyp_total[n] += max(hyp_n - n, 0)
            self.ref_total[n] += max(ref_n - n, 0)
        matches, get = self.matches, ref_counts.get
        for ngram, count in hyp_counts.items():
            matches[len(ngram) - 1] += min(count, get(ngram, 0))


def _corpus_stats(texts: Sequence[Sequence[str]], cells,
                  split: Callable[[str], Sequence],
                  max_order: int) -> Dict[Tuple[int, int], _NgramStats]:
    """The statistics of each ``(i, j)`` cell, ``texts[i]`` as hypothesis
    against ``texts[j]`` as reference. The texts advance together: each
    segment is split and counted once, and only its counts are kept."""
    stats = {cell: _NgramStats(max_order) for cell in cells}
    for segment in zip(*texts):
        counted = [(len(seq), _ngram_counts(seq, max_order))
                   for seq in map(split, segment)]
        for (i, j), cell in stats.items():
            cell.add(counted[i], counted[j])
    return stats


def _pair_stats(hypotheses: Sequence[str], references: Sequence[str],
                split: Callable, max_order: int) -> _NgramStats:
    """The statistics of aligned hypotheses against references."""
    if len(hypotheses) != len(references):
        raise AlignmentError(f"{len(hypotheses)} hypotheses vs "
                             f"{len(references)} references")
    if not hypotheses:
        raise DomainError("empty corpus")
    return _corpus_stats([hypotheses, references], [(0, 1)], split,
                         max_order)[0, 1]


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


def _bleu_score(stats: _NgramStats, cfg: BleuConfig) -> float:
    """Corpus BLEU in [0, 100] from the summed segment statistics."""
    correct, total = stats.matches, stats.hyp_total
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
    stats = _pair_stats(hypotheses, references, TOKENIZERS[cfg.tokenizer],
                        cfg.max_order)
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


_strip_whitespace = functools.partial(re.compile(r"\s+").sub, "")


def chrf(hypotheses: Sequence[str], references: Sequence[str],
         cfg: ChrfConfig = ChrfConfig()) -> float:
    """Corpus chrF in [0, 100]: character n-gram F-beta averaged over orders."""
    stats = _pair_stats(hypotheses, references, _strip_whitespace,
                        cfg.char_order)
    if stats.ref_len == 0:
        raise DomainError("reference corpus is empty after whitespace removal")
    matches, hyp_totals, ref_totals = \
        stats.matches, stats.hyp_total, stats.ref_total
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
    return 100.0 * sum(f_scores) / len(f_scores) if f_scores else 0.0


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
    is tokenized and counted once, and every cell reuses those counts.
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
    cells = [(i, j) for i in range(size) for j in range(size) if i != j]
    stats = _corpus_stats([outputs[name] for name in names], cells,
                          TOKENIZERS[cfg.tokenizer], cfg.max_order)
    matrix = [[100.0] * size for _ in range(size)]
    for (i, j), cell in stats.items():
        if cell.ref_len == 0:
            raise DomainError(f"system {names[j]!r} has no tokens")
        matrix[i][j] = _bleu_score(cell, cfg)
    averages = [
        sum(matrix[i][j] for j in range(size) if j != i) / (size - 1)
        for i in range(size)
    ]
    return names, matrix, averages
