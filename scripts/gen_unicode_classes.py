#!/usr/bin/env python3
"""Generate the intl tokenizer's frozen Unicode class table.

``peereval.ngram.tokenize_intl`` splits at Unicode punctuation (categories
P*) and symbols (S*). Finding those characters means asking
``unicodedata.category`` about every code point, about 0.3 s per process,
so the scan runs here, once, and its two regex class bodies are committed
as literals in ``src/peereval/_unicode_classes.py`` together with the
version of the Unicode database they came from (``UNIDATA_VERSION``).
Tokenization is therefore pinned to that version, whatever Python runs it.

``tests/data/tokenize_oracle.json`` (``scripts/gen_tokenize_oracle.py``)
records tokens made with these classes and the same version: regenerate
both files together, this one first, and only when a change of the Unicode
version is intended.

Usage:
  python scripts/gen_unicode_classes.py          # write the module
  python scripts/gen_unicode_classes.py --check  # compare; write nothing

``--check`` exits 1 with a summary of the differences when the committed
module differs from what the running interpreter's ``unicodedata`` gives,
and 0 when it matches.
"""

import argparse
import os
import re
import sys
import unicodedata
from typing import Tuple

MODULE = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "..", "src", "peereval", "_unicode_classes.py"))
# code points per source line of a class body literal
LINE_CHARS = 48
# code points a --check summary lists per class and direction
SHOWN = 8
# the first code point beyond the Basic Multilingual Plane; no run crosses it
FIRST_ASTRAL = 0x10000


def _category_classes() -> Tuple[str, str]:
    """Regex class bodies matching Unicode punctuation (P*) and symbols (S*).

    One pass over the code points collects each class as runs of
    consecutive code points, in code-point order, and each run becomes one
    ``a-b`` range. ``sre`` holds a class's BMP code points as a bitmap, one
    lookup per character, but tests its astral ranges one at a time, so
    ``peereval.ngram`` cuts each body at its first astral character and
    tries the astral part only for astral characters. Every run ends at
    U+FFFF, so that cut never splits a range.
    """
    runs = {"P": [], "S": []}
    for code in range(sys.maxunicode):
        class_runs = runs.get(unicodedata.category(chr(code))[0])
        if class_runs is None:
            continue
        if (class_runs and class_runs[-1][1] == code - 1
                and code != FIRST_ASTRAL):
            class_runs[-1][1] = code
        else:
            class_runs.append([code, code])

    def body(major: str) -> str:
        return "".join(
            re.escape(chr(first)) if first == last
            else f"{re.escape(chr(first))}-{re.escape(chr(last))}"
            for first, last in runs[major]
        )

    return body("P"), body("S")


def _literal(name: str, body: str) -> str:
    """``name = (...)``: the body as adjacent string literals, one per line."""
    chunks = [body[i:i + LINE_CHARS] for i in range(0, len(body), LINE_CHARS)]
    return f"{name} = (\n" + "".join(f"    {c!r}\n" for c in chunks) + ")\n"


def render(version: str, punct: str, symbols: str) -> str:
    """The source text of ``_unicode_classes.py``."""
    return (
        '"""Regex class bodies of Unicode punctuation (P*) and symbols (S*).\n'
        "\n"
        "Generated by scripts/gen_unicode_classes.py from the Unicode "
        "database\nnamed by UNIDATA_VERSION; do not edit. The intl tokenizer "
        "compiles its\nregexes from these, so tokenization follows this "
        "version, not the\nrunning interpreter's.\n"
        '"""\n'
        "\n"
        f"UNIDATA_VERSION = {version!r}\n"
        "\n"
        + _literal("PUNCT", punct)
        + _literal("SYMBOLS", symbols)
    )


def _code_points(body: str) -> set:
    """The code points a class body matches, found by the regex itself."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    return {ord(ch) for ch in re.findall(f"[{body}]", every)}


def _hex_list(codes) -> str:
    codes = sorted(codes)
    shown = " ".join(f"U+{code:04X}" for code in codes[:SHOWN])
    return shown + (" ..." if len(codes) > SHOWN else "")


def out_of_date(path: str, version: str, punct: str, symbols: str) -> list:
    """Lines describing how the module at ``path`` differs from the given
    classes; empty when its text is exactly what ``render`` gives."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text == render(version, punct, symbols):
        return []
    lines = [f"{path} differs from the classes of Unicode {version}:"]
    held = {}
    exec(compile(text, path, "exec"), held)
    if held["UNIDATA_VERSION"] != version:
        lines.append(f"  UNIDATA_VERSION: {held['UNIDATA_VERSION']!r} "
                     f"-> {version!r}")
    for name, body in (("PUNCT", punct), ("SYMBOLS", symbols)):
        if held[name] == body:
            continue
        old, new = _code_points(held[name]), _code_points(body)
        lines.append(f"  {name}: {len(new - old)} code points to add, "
                     f"{len(old - new)} to remove")
        for sign, codes in (("+", new - old), ("-", old - new)):
            if codes:
                lines.append(f"    {sign} {_hex_list(codes)}")
    if len(lines) == 1:
        lines.append("  same values, different text")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the committed module; write nothing")
    args = parser.parse_args(argv)
    version = unicodedata.unidata_version
    punct, symbols = _category_classes()
    if args.check:
        problems = out_of_date(MODULE, version, punct, symbols)
        if problems:
            print("\n".join(problems))
            print("regenerate with scripts/gen_unicode_classes.py")
            return 1
        print(f"{MODULE}: matches Unicode {version}")
        return 0
    with open(MODULE, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render(version, punct, symbols))
    print(f"wrote {MODULE} (Unicode {version}, "
          f"{len(punct)} + {len(symbols)} class characters)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
