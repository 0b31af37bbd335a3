"""Reference-based n-gram baselines: corpus BLEU, chrF, and cross-BLEU.

One engine computes the two facts all three rest on: each text's segment
lengths, and per order n the clipped n-gram matches of two texts, summed
over the corpus. ``_ngram_counts`` counts a sequence's n-grams into one
plain dict per order with ``collections._count_elements``, the C loop
behind ``Counter.update``, each n-gram keyed by a string: the concatenation
of its characters for chrF, which feeds the engine each segment with
whitespace removed, and of its tokens joined by single spaces for BLEU.
Every tokenizer ends in ``str.split``, so no token holds whitespace and two
different token n-grams never share a key. A sequence of length L has
max(L - n + 1, 0) n-grams of order n, so ``_totals`` computes a text's
n-gram totals once, from its lengths. Clipped matches, the sum over shared
n-grams of the smaller count, are summed per order in C, with no Python
step per n-gram: where one side repeats no n-gram of that order (its dict
has a key per n-gram), each shared n-gram clips to 1 and the sum is the
size of the key intersection; elsewhere min(a, b) = (a + b - |a - b|) / 2
makes it sums of counts and of absolute differences. The counts are
integers, so the sums are exact. Clipped matches are symmetric in
hypothesis and reference, so they are taken once per unordered pair of
texts: one pair for BLEU and chrF, every pair of systems for the
cross-BLEU matrix.

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
import operator
import re
from collections import _count_elements, namedtuple
from itertools import permutations, repeat
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

def _ngram_counts(seq: Sequence, max_order: int) -> List[Dict[str, int]]:
    """One dict per order 1..max_order, from each n-gram of a string (its
    characters) or a whitespace-free token list, keyed by a string, to its
    count; ``_count_elements`` counts each order in C.

    Order 1 counts the characters or tokens; each order n + 1 appends a tail
    to each n-gram of order n: the next character, or a space and the next
    token.
    """
    grams = list(seq)
    tails = seq if isinstance(seq, str) else [" " + token for token in seq]
    counts = [{} for _ in range(max_order)]
    _count_elements(counts[0], grams)
    for n in range(1, max_order):
        grams = list(map(operator.add, grams, tails[n:]))
        _count_elements(counts[n], grams)
    return counts


def _clipped_matches(h_counts: List[Dict[str, int]],
                     r_counts: List[Dict[str, int]]) -> List[int]:
    """Per order, the sum over n-grams of min(count in h, count in r),
    summed in C. It is symmetric in ``h_counts`` and ``r_counts``.

    Each side's length is the sum of its order-1 counts, so its number of
    n-grams at order index n is max(length - n, 0). A side with that many
    keys repeats no n-gram there: every shared n-gram clips to 1 and the
    sum is the size of the key intersection. Otherwise min(a, b) =
    (a + b - |a - b|) / 2, summed over the keys of h.
    """
    h_length = sum(h_counts[0].values())
    r_length = sum(r_counts[0].values())
    matches = []
    for n, (h, r) in enumerate(zip(h_counts, r_counts)):
        h_total = max(h_length - n, 0)
        if len(h) == h_total or len(r) == max(r_length - n, 0):
            matches.append(len(h.keys() & r.keys()))
        else:
            r_values = list(map(r.get, h, repeat(0)))
            differences = map(abs, map(operator.sub, h.values(), r_values))
            matches.append(
                (h_total + sum(r_values) - sum(differences)) // 2)
    return matches


def _corpus_stats(texts: Sequence[Sequence[str]],
                  split: Callable[[str], Sequence], max_order: int
                  ) -> Tuple[List[List[int]],
                             Dict[Tuple[int, int], List[int]]]:
    """``(lengths, matches)`` of aligned texts: ``lengths[i]`` holds the
    segment lengths of ``texts[i]``, and ``matches[a, b]``, for every
    ``a < b``, the per-order clipped matches of ``texts[a]`` and
    ``texts[b]`` summed over the segments. The texts advance together: each
    segment is split and counted once, and only its counts are kept."""
    lengths = [[] for _ in texts]
    matches = {(a, b): [0] * max_order
               for b in range(len(texts)) for a in range(b)}
    for segment in zip(*texts):
        seqs = list(map(split, segment))
        for seq, text_lengths in zip(seqs, lengths):
            text_lengths.append(len(seq))
        counts = [_ngram_counts(seq, max_order) for seq in seqs]
        for (a, b), summed in matches.items():
            summed[:] = map(operator.add, summed,
                            _clipped_matches(counts[a], counts[b]))
    return lengths, matches


def _totals(lengths: Sequence[int], max_order: int) -> List[int]:
    """Per order n, the number of n-grams in segments of these lengths."""
    return [sum(max(length - n, 0) for length in lengths)
            for n in range(max_order)]


def _pair_stats(hypotheses: Sequence[str], references: Sequence[str],
                split: Callable, max_order: int
                ) -> Tuple[List[int], List[int], List[int]]:
    """The hypothesis and reference segment lengths and the per-order
    clipped matches of aligned hypotheses against references."""
    if len(hypotheses) != len(references):
        raise AlignmentError(f"{len(hypotheses)} hypotheses vs "
                             f"{len(references)} references")
    if not hypotheses:
        raise DomainError("empty corpus")
    (hyp_lengths, ref_lengths), matches = _corpus_stats(
        [hypotheses, references], split, max_order)
    return hyp_lengths, ref_lengths, matches[0, 1]


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

class BleuConfig(namedtuple("BleuConfig", "max_order smoothing tokenizer")):
    __slots__ = ()

    def __new__(cls, max_order: int = 4,
                smoothing: str = "none",  # "none" or "exp-floor"
                tokenizer: str = "intl"):
        if max_order < 1:
            raise ConfigError(f"max_order must be >= 1, got {max_order}")
        if smoothing not in ("none", "exp-floor"):
            raise ConfigError(f"unknown smoothing {smoothing!r}")
        if tokenizer not in TOKENIZERS:
            raise ConfigError(f"unknown tokenizer {tokenizer!r}")
        return super().__new__(cls, max_order, smoothing, tokenizer)


def _bleu_score(correct: List[int], total: List[int], hyp_len: int,
                ref_len: int, cfg: BleuConfig) -> float:
    """Corpus BLEU in [0, 100] from the per-order clipped matches and
    hypothesis n-gram totals and the two corpus lengths in tokens."""
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
    hyp_lengths, ref_lengths, matches = _pair_stats(
        hypotheses, references, TOKENIZERS[cfg.tokenizer], cfg.max_order)
    return _bleu_score(matches, _totals(hyp_lengths, cfg.max_order),
                       sum(hyp_lengths), sum(ref_lengths), cfg)


# ---------------------------------------------------------------------------
# chrF
# ---------------------------------------------------------------------------

class ChrfConfig(namedtuple("ChrfConfig", "char_order beta")):
    __slots__ = ()

    def __new__(cls, char_order: int = 6, beta: float = 2.0):
        if char_order < 1:
            raise ConfigError(f"char_order must be >= 1, got {char_order}")
        if not 0 < beta < math.inf:   # also false for nan
            raise ConfigError(f"beta must be finite and > 0, got {beta}")
        return super().__new__(cls, char_order, beta)


_strip_whitespace = functools.partial(re.compile(r"\s+").sub, "")


def chrf(hypotheses: Sequence[str], references: Sequence[str],
         cfg: ChrfConfig = ChrfConfig()) -> float:
    """Corpus chrF in [0, 100]: character n-gram F-beta averaged over orders."""
    hyp_lengths, ref_lengths, matches = _pair_stats(
        hypotheses, references, _strip_whitespace, cfg.char_order)
    if sum(ref_lengths) == 0:
        raise DomainError("reference corpus is empty after whitespace removal")
    hyp_totals = _totals(hyp_lengths, cfg.char_order)
    ref_totals = _totals(ref_lengths, cfg.char_order)
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
    is tokenized and counted once; its n-gram totals and length are
    computed once from its segment lengths. Clipping is symmetric, so the
    matches are taken once per unordered pair and serve both (i, j) and
    (j, i).
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
    seg_lengths, matches = _corpus_stats(
        [outputs[name] for name in names], TOKENIZERS[cfg.tokenizer],
        cfg.max_order)
    totals = [_totals(text_lengths, cfg.max_order)
              for text_lengths in seg_lengths]
    corpus_lengths = list(map(sum, seg_lengths))
    matrix = [[100.0] * size for _ in range(size)]
    for i, j in permutations(range(size), 2):
        if corpus_lengths[j] == 0:
            raise DomainError(f"system {names[j]!r} has no tokens")
        matrix[i][j] = _bleu_score(matches[min(i, j), max(i, j)], totals[i],
                                   corpus_lengths[i], corpus_lengths[j], cfg)
    averages = [
        sum(matrix[i][j] for j in range(size) if j != i) / (size - 1)
        for i in range(size)
    ]
    return names, matrix, averages
