"""Synthetic noise benchmark.

Builds a controllable end-to-end fixture: a toy parallel corpus with a
deterministic word-for-word lexicon, plus "MT systems" produced by
corrupting the reference translations with token-replacement noise at
chosen rates. Higher noise means worse output, so scorer quality can be
checked against the known ordering.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

import numpy as np

from .data import LanguagePair


def _vocabulary(n_words: int, prefix: str) -> list:
    return [f"{prefix}{i:03d}" for i in range(n_words)]


class NoiseBenchmark(namedtuple("NoiseBenchmark", "lang_pair sources "
                                "references system_outputs noise_rates")):
    """Parallel corpus plus noise-corrupted system outputs: ``sources`` and
    ``references`` are aligned tuples of token lists, ``system_outputs``
    maps a system name to a tuple of token lists and ``noise_rates`` to its
    rate."""

    __slots__ = ()


def make_noise_benchmark(n_segments: int = 1000,
                         noise_rates: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
                         vocab_size: int = 60,
                         min_len: int = 4, max_len: int = 14,
                         seed: int = 0) -> NoiseBenchmark:
    """Generate the benchmark corpus and systems.

    Each source token ``s###`` translates deterministically to ``t###``; the
    system at rate r replaces each reference token with a uniformly random
    target-vocabulary token with probability r.
    """
    rng = np.random.default_rng([seed, 2025])
    src_vocab = _vocabulary(vocab_size, "s")
    tgt_vocab = _vocabulary(vocab_size, "t")
    sources, references = [], []
    for _ in range(n_segments):
        length = int(rng.integers(min_len, max_len + 1))
        ids = rng.integers(0, vocab_size, size=length)
        sources.append(tuple(src_vocab[i] for i in ids))
        references.append(tuple(tgt_vocab[i] for i in ids))

    system_outputs = {}
    rates = {}
    for k, rate in enumerate(noise_rates):
        name = f"sys-noise{int(round(rate * 100)):02d}"
        sys_rng = np.random.default_rng([seed, 77, k])
        outputs = []
        for ref in references:
            toks = list(ref)
            for i in range(len(toks)):
                if sys_rng.random() < rate:
                    toks[i] = tgt_vocab[int(sys_rng.integers(0, vocab_size))]
            outputs.append(tuple(toks))
        system_outputs[name] = tuple(outputs)
        rates[name] = float(rate)

    return NoiseBenchmark(
        LanguagePair("xa", "xb"),
        tuple(sources), tuple(references), system_outputs, rates,
    )
