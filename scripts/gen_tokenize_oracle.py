#!/usr/bin/env python3
"""Generate the frozen tokenizer characterization table.

Runs every tokenizer in ``peereval.ngram.TOKENIZERS`` over a fixed,
Unicode-heavy line set and writes the tokens to
``tests/data/tokenize_oracle.json``. The table pins the tokenizers' current
behaviour, so that a faster implementation can be checked token for token:
regenerate it only when a change of tokenization is intended, or when the
Python in use ships a different Unicode database (the character classes
come from ``unicodedata``, whose version the table records).

The line set holds hand-picked cases (digit-adjacent separators, Unicode
punctuation, symbols, CJK, combining marks, non-ASCII digits, whitespace)
and seeded random lines drawn across the whole code space.

Usage: PYTHONPATH=src python scripts/gen_tokenize_oracle.py
"""

import json
import os
import random
import sys
import unicodedata

from peereval.ngram import TOKENIZERS

OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "tests", "data",
                        "tokenize_oracle.json")

HAND_LINES = [
    # digit-adjacent "." and ","
    "3.14", "1,000.5", "a.b", "end.", "pi is 3.14, e is 2.718.",
    "1,000,000 and 1.000.000", ".5 and 5. and ,5 and 5,", "x1.y2,z3",
    "v2.0-rc.1", "(1,2)", "...", "a..b", "3..4",
    # Unicode punctuation
    "«Bonjour», dit-il.", "中文，测试。", "一、二、三", "¿Qué? ¡Sí!",
    "“quoted” ‘single’ „low“", "em—dash – en-dash ‐ hyphen", "a·b•c", "…",
    "【注意】「かぎ」『二重』", "§ 12 ¶ 3", "٪ ؟ ،",
    # symbols, ASCII and astral
    "€5 and $5 and 5$", "±0.5 © 2021 ®™", "a+b=c<d>e^f|g~h`i",
    "price: 5€/kg", "°C ≤ ∞ ≠ √2", "🚀 launch 🚀🚀", "a🚀b", "😀.😀",
    "𝄞 music", "←↑→↓", "♠♥♦♣",
    # CJK: BMP, Ext-A, Ext-B, compatibility, full-width forms
    "中文", "中文abc中文", "𠀀𠀁 ext-b", "㐀 ext-a", "豈 compat",
    "ＡＢＣ１２３", "全角！？", "ｶﾀｶﾅ half-width", "한국어 텍스트", "ひらがなカタカナ",
    # combining marks
    "e\u0301te\u0301", "n\u0303", "a\u0308.", "\u0301.", "\u093e\u093c",
    "x\u20dd", "\u0915\u094d\u0937",
    # non-ASCII digits
    "٣.٤", "𝟘.𝟙", "१,२३४.५", "٣,٤", "²³.¼", "Ⅻ.",
    # tabs and other whitespace
    "a\tb", "a\t.\tb", "a\u00a0b", "a\u3000b", "a\u2009b", "a\x1cb",
    "a\x85b", "a\u2028b", "a\u200bb", "  leading and trailing  ", "\t",
    "", " ", "line\r", "a\nb",
    # mixed
    "Mr. Smith's e-mail: john@example.com (2021-03-04)!",
    "C'est l'été: 25°C, à 10h30.", "URL https://x.org/a?b=1&c=2#d",
]

# Pools for the random lines, weighted toward the classes that matter.
POOLS = [
    (0.30, [(0x20, 0x7E)]),                      # printable ASCII
    (0.10, [(0x30, 0x39), (0x2C, 0x2E)]),        # digits, "," "-" "."
    (0.10, [(0x20, 0x20), (0x09, 0x09)]),        # space, tab
    (0.15, [(0xA0, 0xFFFF)]),                    # rest of the BMP
    (0.10, [(0x3000, 0x303F), (0x4E00, 0x9FFF), (0xFF00, 0xFFEF)]),
    (0.10, [(0x2000, 0x2BFF)]),                  # punctuation, symbols
    (0.15, [(0x10000, 0x10FFFF)]),               # astral
]
N_RANDOM = 200


def random_char(rng):
    while True:
        r = rng.random()
        for weight, ranges in POOLS:
            if r < weight:
                break
            r -= weight
        lo, hi = rng.choice(ranges)
        ch = chr(rng.randint(lo, hi))
        if unicodedata.category(ch) != "Cs":   # no lone surrogates
            return ch


def random_lines(seed=20210411):
    rng = random.Random(seed)
    return ["".join(random_char(rng) for _ in range(rng.randint(0, 30)))
            for _ in range(N_RANDOM)]


def main():
    cases = [{"line": line,
              "tokens": {key: TOKENIZERS[key](line) for key in sorted(TOKENIZERS)}}
             for line in HAND_LINES + random_lines()]
    with open(OUT_PATH, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('{"unidata_version": '
                 + json.dumps(unicodedata.unidata_version) + ',\n"cases": [\n')
        fh.write(",\n".join(json.dumps(case, ensure_ascii=False)
                            for case in cases))
        fh.write("\n]}\n")
    print(f"wrote {len(cases)} cases to {os.path.normpath(OUT_PATH)}")


if __name__ == "__main__":
    sys.exit(main())
