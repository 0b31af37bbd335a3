"""Unigram-LM subword segmentation: n-best search, temperature sampling,
and a small self-contained trainer.

The n-best search is exact beam-per-prefix dynamic programming: the i-th
best path into any prefix extends one of the top-i paths into a shorter
prefix, so per-prefix hypothesis lists of size n yield the true global
top-n for additive scores.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .data import read_lines, tsv_line, write_lines
from .errors import ConfigError, CoverageError, DomainError, ParseError


class Segmentation(namedtuple("Segmentation", "pieces score")):
    __slots__ = ()

    def __new__(cls, pieces, score: float):
        return super().__new__(cls, tuple(pieces), score)


def _logp_problem(logp: float) -> Optional[str]:
    """Why ``logp`` is not a piece log-prob, or None if it is one."""
    if not math.isfinite(logp):
        return f"log-prob {logp} is not finite"
    if logp > 0.0:
        return f"log-prob {logp} > 0"
    return None


class UnigramSubwordModel(namedtuple("UnigramSubwordModel", "vocab")):
    """Subword vocabulary with unigram log-probabilities (nats).

    The model is immutable: ``vocab`` is a read-only mapping. So each model
    memoizes its n-best lists and sampling CDFs per word, and every
    repeated word or draw reuses them. The class has no ``__slots__``:
    ``max_piece_len`` and the memo live in the instance ``__dict__``.
    """

    def __new__(cls, vocab: Mapping):
        vocab = dict(vocab)
        if not vocab:
            raise DomainError("empty subword vocabulary")
        total = 0.0
        for piece, logp in vocab.items():
            if not piece:
                raise DomainError("empty piece in vocabulary")
            problem = _logp_problem(logp)
            if problem:
                raise DomainError(f"piece {piece!r}: {problem}")
            total += math.exp(logp)
        if total > 1.0 + 1e-6:
            raise DomainError(f"vocabulary probabilities sum to {total} > 1")
        self = super().__new__(cls, MappingProxyType(vocab))
        self.max_piece_len = max(len(p) for p in vocab)
        # (text, n) -> n-best list; (text, n, alpha) -> (n-best, CDF), at
        # most MEMO_ENTRIES in insertion order. Not a field, so ==, hash and
        # repr ignore it.
        self._memo = {}
        return self


def _nbest(vocab: dict, max_len: int, text: str, n: int,
           skip_full_span: Optional[str] = None) -> list:
    """Up to n best (score, pieces) paths over ``text``, best first; exact
    ties go to the lexicographically smaller piece sequence.

    ``skip_full_span`` forbids covering the whole text with that one piece
    (training prices a piece's removal with it).
    """
    # ends[i] holds up to n (cost, pieces) hypotheses covering text[:i],
    # cost = -score, so plain tuple order ranks them
    ends = [[] for _ in range(len(text) + 1)]
    ends[0].append((0.0, ()))
    for i in range(1, len(text) + 1):
        cands = []
        for j in range(max(0, i - max_len), i):
            piece = text[j:i]
            logp = vocab.get(piece)
            if logp is None or (j == 0 and i == len(text)
                                and piece == skip_full_span):
                continue
            for cost, pieces in ends[j]:
                cands.append((cost - logp, pieces + (piece,)))
        # an empty list is kept: a longer piece may still bridge position i
        cands.sort()
        ends[i] = cands[:n]
    # 0.0 - cost, not -cost: a zero score stays +0.0
    return [(0.0 - cost, pieces) for cost, pieces in ends[len(text)]]


# Most entries one model memoizes, n-best lists and sampling CDFs together.
# A sampled word of 4-10 characters takes two entries, about 2.8 KB at
# n = 10, so the memo stays under about 50 MB however many distinct words a
# model meets. A miss on a full memo evicts the oldest entry.
MEMO_ENTRIES = 1 << 15

# Generator.choice's tolerance on the sum of its probabilities.
_PROB_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _remember(model: UnigramSubwordModel, key, value):
    """Store ``value`` in the model's memo, first evicting the oldest entry
    when the memo is full; called on a miss only."""
    memo = model._memo
    if len(memo) >= MEMO_ENTRIES:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


def nbest_segmentations(model: UnigramSubwordModel, text: str,
                        n: int) -> list:
    """Up to n distinct segmentations of ``text``, best score first."""
    found = model._memo.get((text, n))
    if found is not None:
        return list(found)
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if not text:
        raise DomainError("cannot segment empty text")
    final = _nbest(model.vocab, model.max_piece_len, text, n)
    if not final:
        bad = next((ch for ch in text if ch not in model.vocab), None)
        detail = f"character {bad!r} not in vocabulary" if bad else "no path"
        raise CoverageError(f"cannot segment {text!r}: {detail}")
    found = [Segmentation(pieces, score) for score, pieces in final]
    return list(_remember(model, (text, n), found))


def viterbi_segmentation(model: UnigramSubwordModel, text: str) -> Segmentation:
    return nbest_segmentations(model, text, 1)[0]


def sample_segmentation(model: UnigramSubwordModel, text: str, n: int = 10,
                        alpha: float = 1.0, *,
                        rng: np.random.Generator) -> Segmentation:
    """Sample from the n-best list with weights exp(alpha * score).

    alpha = 0 is uniform over the list; large alpha collapses to the top
    segmentation. Each call draws one ``rng.random()`` from the caller-owned
    ``rng`` and looks it up in the list's memoized CDF. That is what
    ``rng.choice(len(candidates), p=probs)`` computes, so the index and the
    generator state after the draw are the ones ``choice`` would give.
    """
    found = model._memo.get((text, n, alpha))
    if found is None:
        if not (math.isfinite(alpha) and alpha >= 0):
            raise ConfigError(f"alpha must be a finite number >= 0, "
                              f"got {alpha}")
        candidates = nbest_segmentations(model, text, n)
        # an alpha so large that every weight overflows leaves nan, which
        # the check below turns into the error
        with np.errstate(over="ignore", invalid="ignore"):
            weights = alpha * np.array([c.score for c in candidates])
            weights -= weights.max()
            probs = np.exp(weights)
            probs /= probs.sum()
        # the checks choice makes on every call, made once; nan fails both
        if not (probs.min() >= 0.0
                and abs(math.fsum(probs) - 1.0) <= _PROB_SUM_ATOL):
            raise DomainError(f"alpha {alpha} gives {text!r} no sampling "
                              "distribution")
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        found = _remember(model, (text, n, alpha), (candidates, cdf))
    candidates, cdf = found
    return candidates[int(cdf.searchsorted(rng.random(), side="right"))]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _substring_counts(words: Counter, max_piece_len: int) -> Counter:
    """Occurrences of every substring up to ``max_piece_len`` characters,
    each distinct word counted once and weighted by its multiplicity."""
    counts = Counter()
    for word, mult in words.items():
        for i in range(len(word)):
            for ln in range(1, min(max_piece_len, len(word) - i) + 1):
                counts[word[i:i + ln]] += mult
    return counts


# Probability assigned to characters the Viterbi pass stopped using; keeps
# every string segmentable without disturbing the ML estimates of used pieces.
_CHAR_FLOOR_LOGP = math.log(1e-100)


def train_unigram(corpus: Sequence[str], vocab_size: int, rounds: int = 10,
                  max_piece_len: int = 8,
                  min_count: int = 2) -> UnigramSubwordModel:
    """Train a unigram subword model by Viterbi EM with utility pruning.

    Seeds the vocabulary with all substrings up to ``max_piece_len`` seen at
    least ``min_count`` times plus every character, then alternates Viterbi
    re-segmentation and count re-estimation, pruning the lowest-utility
    pieces each round until ``vocab_size`` is reached. Characters are never
    pruned. Each distinct word is segmented once per round and counted
    with its multiplicity; all counts are integers, so the result does not
    depend on the corpus order.
    """
    for name, value in (("rounds", rounds), ("max_piece_len", max_piece_len),
                        ("min_count", min_count)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    words = Counter(line for line in corpus if line)
    if not words:
        raise DomainError("empty training corpus")
    alphabet = sorted({ch for word in words for ch in word})
    if vocab_size < len(alphabet):
        raise ConfigError(
            f"vocab_size {vocab_size} below alphabet size {len(alphabet)}"
        )

    counts = _substring_counts(words, max_piece_len)
    pieces = {p for p, c in counts.items() if len(p) == 1 or c >= min_count}
    pieces.update(alphabet)
    # keep the seed bounded; characters always survive
    cap = max(vocab_size * 10, 1000)
    if len(pieces) > cap:
        multi = sorted((p for p in pieces if len(p) > 1),
                       key=lambda p: (-counts[p], p))
        pieces = set(alphabet) | set(multi[:cap - len(alphabet)])

    total = sum(counts[p] for p in pieces)
    vocab = {p: math.log(counts[p] / total) for p in sorted(pieces)}

    for rnd in range(rounds):
        max_len = max(len(p) for p in vocab)
        # E-step: Viterbi-segment the corpus, collect piece counts
        piece_counts = Counter()
        for word, mult in words.items():
            ((_, segs),) = _nbest(vocab, max_len, word, 1)
            for piece in segs:
                piece_counts[piece] += mult
        used_total = sum(piece_counts.values())
        new_vocab = {}
        for p in vocab:
            c = piece_counts[p]
            if c > 0:
                new_vocab[p] = math.log(c / used_total)
            elif len(p) == 1:
                new_vocab[p] = _CHAR_FLOOR_LOGP
            # unused multi-character pieces drop out here
        vocab = new_vocab

        # Pruning: walk down to vocab_size on a linear schedule
        excess = len(vocab) - vocab_size
        if excess > 0:
            if rnd == rounds - 1:
                quota = excess
            else:
                quota = math.ceil(excess * 0.5)
            max_len = max(len(p) for p in vocab)
            utilities = []
            for p in vocab:
                if len(p) == 1:
                    continue
                ((alt, _),) = _nbest(vocab, max_len, p, 1, skip_full_span=p)
                loss = piece_counts[p] * (vocab[p] - alt)
                utilities.append((loss, piece_counts[p], p))
            utilities.sort()
            for _, _, p in utilities[:quota]:
                del vocab[p]

    return UnigramSubwordModel(vocab)


# ---------------------------------------------------------------------------
# Model files: TSV piece<TAB>logprob
# ---------------------------------------------------------------------------

def save_unigram_model(model: UnigramSubwordModel, path) -> None:
    """A piece that holds a tab or a line break is a DomainError, and no
    file is written."""
    write_lines(path, (tsv_line((piece, repr(model.vocab[piece])), "piece")
                       for piece in sorted(model.vocab)))


def load_unigram_model(path) -> UnigramSubwordModel:
    vocab = {}
    for lineno, raw in read_lines(path):
        if not raw:
            continue
        fields = raw.split("\t")
        if len(fields) != 2:
            raise ParseError("expected piece<TAB>logprob", path, lineno)
        piece, text = fields
        if not piece:
            raise ParseError("empty piece", path, lineno)
        if piece in vocab:
            raise ParseError(f"duplicate piece {piece!r}", path, lineno)
        try:
            logp = float(text)
        except ValueError as exc:
            raise ParseError(f"bad log-prob {text!r}", path,
                             lineno) from exc
        problem = _logp_problem(logp)
        if problem:
            raise ParseError(f"piece {piece!r}: {problem}", path, lineno)
        vocab[piece] = logp
    try:
        return UnigramSubwordModel(vocab)
    except DomainError as exc:   # empty file, or probabilities sum past 1
        raise ParseError(str(exc), path) from exc
