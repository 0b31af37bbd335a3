"""Seeded inputs for the benchmark workloads.

Every corpus comes from ``peereval.synthetic.make_noise_benchmark``. On top
of it this module adds what the workloads need and the generator lacks:
per-pair seeds derived from the run's seed, surface forms for the target
vocabulary (ASCII words with punctuation and digits, or CJK text), human
system and segment scores, and the files the CLI workload reads. The same
seed always gives byte-identical files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from peereval import synthetic

VOCAB_SIZE = 60
# Close rates, so that a far-off system stands out under the MAD filter.
NOISE_RATES = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25)
FAR_OFF_RATE = 0.95
# Few systems with wide gaps, so that BLEU and chrF order them on short
# corpora and the cross-BLEU matrix (one call per ordered pair) stays short.
WIDE_NOISE_RATES = (0.0, 0.15, 0.30, 0.45)

_ASCII_PUNCT = (",", ".", "!", "?", ";", ":")
_FULLWIDTH_PUNCT = ("，", "。", "、", "！", "？")
_ACCENTED = "éèñüöçåâ"
_ASTRAL = ("\U0001f600", "\U0001f680", "\U0001d11e", "\U0001f34e")


def derive_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for one part of the fixture, derived from the run's."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


# Form lengths follow the target id, not the seed, so that every seed gives
# the tokenizers about the same number of characters; only letters and
# digits are drawn.
def _letters(rng, alphabet, n):
    return "".join(alphabet[int(c)] for c in rng.integers(0, len(alphabet), n))


def _ascii_form(i: int, rng) -> str:
    word = _letters(rng, "abcdefghijklmnopqrstuvwxyz", 2 + i % 4)
    kind = i % 6
    if kind == 1:
        return word + _ASCII_PUNCT[int(rng.integers(len(_ASCII_PUNCT)))]
    if kind == 2:
        return f"({word})"
    if kind == 3:
        return f"{int(rng.integers(1, 10))},{int(rng.integers(100, 1000))}.{int(rng.integers(0, 10))}"
    if kind == 4:
        return f"{word}-{word[::-1]}"
    if kind == 5:
        return f'"{word}"'
    return word


def _cjk_form(i: int, rng) -> str:
    han = "".join(chr(int(c)) for c in rng.integers(0x4E00, 0x9FA5, 1 + i % 3))
    kind = i % 6
    if kind == 1:
        return han + _FULLWIDTH_PUNCT[int(rng.integers(len(_FULLWIDTH_PUNCT)))]
    if kind == 2:
        return _letters(rng, "abcdefghijklmnopqrstuvwxyz" + _ACCENTED, 3 + i % 4)
    if kind == 3:
        return han + _ASTRAL[int(rng.integers(len(_ASTRAL)))]
    if kind == 4:
        return "".join(chr(int(c)) for c in rng.integers(0xFF21, 0xFF3B, 2))
    return han


def surface_forms(script: str, seed: int) -> tuple:
    """Distinct surface strings for target ids 0..VOCAB_SIZE-1."""
    make = {"ascii": _ascii_form, "cjk": _cjk_form}[script]
    rng = np.random.default_rng([seed, 31])
    forms, seen = [], set()
    for i in range(VOCAB_SIZE):
        form = make(i, rng)
        while form in seen:
            form = make(i, rng)
        seen.add(form)
        forms.append(form)
    return tuple(forms)


@dataclass(frozen=True)
class Pair:
    """One language pair: a parallel corpus and noise systems over it."""

    lang_pair: str
    sources: tuple          # token tuples
    references: tuple       # token tuples, aligned with sources
    systems: dict           # system name -> token tuples
    noise: dict             # system name -> noise rate
    surface: Optional[tuple] = None  # target id -> surface form

    def tokens(self, toks) -> tuple:
        """Target tokens in their surface forms (unchanged without a mapping)."""
        if self.surface is None:
            return tuple(toks)
        return tuple(self.surface[int(t[1:])] for t in toks)

    def text(self, toks) -> str:
        return " ".join(self.tokens(toks))

    def human_system(self) -> dict:
        """Human system score: the negated noise rate."""
        return {name: -rate for name, rate in self.noise.items()}

    def human_segments(self) -> dict:
        """Human segment score: share of hypothesis tokens equal to the
        reference token at the same position."""
        return {
            name: [sum(h == r for h, r in zip(hyp, ref)) / len(ref)
                   for hyp, ref in zip(out, self.references)]
            for name, out in self.systems.items()
        }


def make_pair(lang_pair: str, seed: int, index: int, n_segments: int,
              min_len: int = 4, max_len: int = 14, far_off: bool = False,
              script: Optional[str] = None, rates=NOISE_RATES) -> Pair:
    rates = tuple(rates) + ((FAR_OFF_RATE,) if far_off else ())
    pair_seed = derive_seed(seed, index)
    bench = synthetic.make_noise_benchmark(
        n_segments, rates, vocab_size=VOCAB_SIZE, min_len=min_len,
        max_len=max_len, seed=pair_seed)
    surface = surface_forms(script, pair_seed) if script else None
    return Pair(lang_pair, bench.sources, bench.references,
                dict(bench.system_outputs), dict(bench.noise_rates), surface)


def write_pair_files(pair: Pair, directory) -> dict:
    """Write source, reference and system texts plus human score TSVs.

    Returns {"source", "reference", "human_sys", "human_seg", <system>: path}.
    """
    os.makedirs(directory, exist_ok=True)
    paths = {}

    def write(key, filename, lines):
        path = os.path.join(directory, filename)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(line + "\n" for line in lines)
        paths[key] = path

    write("source", "source.txt", (" ".join(s) for s in pair.sources))
    write("reference", "reference.txt", (pair.text(r) for r in pair.references))
    for name in sorted(pair.systems):
        write(name, f"{name}.txt", (pair.text(h) for h in pair.systems[name]))
    lp = pair.lang_pair
    human = pair.human_system()
    write("human_sys", "human-sys.tsv",
          ["lang_pair\tsystem\tscore"]
          + [f"{lp}\t{name}\t{float(human[name])!r}" for name in sorted(human)])
    seg_rows = ["lang_pair\tsystem\tseg\tscore"]
    for name, scores in sorted(pair.human_segments().items()):
        seg_rows += [f"{lp}\t{name}\t{i}\t{float(v)!r}" for i, v in enumerate(scores)]
    write("human_seg", "human-seg.tsv", seg_rows)
    return paths
