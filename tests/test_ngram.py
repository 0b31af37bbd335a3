"""Corpus BLEU and chrF against the frozen brute-force oracle table and
against brute-force per-order counts on random text, the tokenizers against
their frozen characterization table and against a plain reference
implementation on random text, and cross-BLEU against BLEU."""

import math
import os
import random
import re
import subprocess
import sys
from collections import Counter

import pytest

from peereval import _unicode_classes, ngram
from peereval.errors import AlignmentError, ConfigError, DomainError


def test_bleu_oracle_table(ngram_oracle):
    assert len(ngram_oracle) == 12
    for case in ngram_oracle:
        assert ngram.bleu(case["hyps"], case["refs"]) == \
            pytest.approx(case["bleu"], abs=1e-9)


def test_chrf_oracle_table(ngram_oracle):
    for case in ngram_oracle:
        assert ngram.chrf(case["hyps"], case["refs"]) == \
            pytest.approx(case["chrf"], abs=1e-9)


def test_tokenizers_match_characterization_table(tokenize_oracle):
    # The symbol and punctuation classes come from the frozen table
    # _unicode_classes, not from the interpreter; the oracle must have been
    # made from a table of the same Unicode version.
    assert tokenize_oracle["unidata_version"] == \
        _unicode_classes.UNIDATA_VERSION, (
            "the oracle was made from another Unicode class table; "
            "regenerate it with scripts/gen_tokenize_oracle.py")
    cases = tokenize_oracle["cases"]
    assert len(cases) == 276
    for case in cases:
        assert sorted(case["tokens"]) == sorted(ngram.TOKENIZERS)
        for key, expected in case["tokens"].items():
            assert ngram.TOKENIZERS[key](case["line"]) == expected, \
                (key, case["line"])


# The tokenizers as plain ``re.sub`` templates over the unguarded class
# bodies and a per-character CJK test: the reference for the guarded classes,
# the replacement functions and the CJK split of ``ngram``.

def _reference_is_cjk(ch):
    code = ord(ch)
    return (
        0x3400 <= code <= 0x4DB5
        or 0x4E00 <= code <= 0x9FBB
        or 0xF900 <= code <= 0xFAD9
        or 0x20000 <= code <= 0x2A6D6
        or 0x2F800 <= code <= 0x2FA1D
        or 0xFF00 <= code <= 0xFFEF
    )


def reference_tokenizers():
    punct, symbols = _unicode_classes.PUNCT, _unicode_classes.SYMBOLS
    nondigit_punct = re.compile(rf"([^\d])([{punct}])")
    punct_nondigit = re.compile(rf"([{punct}])([^\d])")
    symbol = re.compile(rf"([{symbols}])")

    def intl(line):
        line = nondigit_punct.sub(r"\1 \2 ", line)
        line = punct_nondigit.sub(r" \1 \2", line)
        return symbol.sub(r" \1 ", line).split()

    def char_zh(line):
        return intl("".join(f" {ch} " if _reference_is_cjk(ch) else ch
                            for ch in line))

    return {"intl": intl, "whitespace": str.split, "char-for-zh": char_zh}


# Pools a random line draws its characters from: ASCII, digits next to "."
# and ",", BMP and astral punctuation and symbols, CJK of both planes,
# combining marks, whitespace, and any code point at all.
TOKENIZER_POOLS = [
    "abcXYZ", "0123456789", ".,.,", "  \t\u3000",
    "«»¿¡—…‰⁂〈〉、。，！＃･", "€$+<=>^`|~©®°×÷←⌘▲☃",
    "𐄀𐎟𑁇𖺗𞥞", "🚀😀𝄞🀄🂡𝟃𞻰",
    "中文测试我们鿻㐀䶵豈ｆＡ", "𠀀𪛖𪚶丽𪘀",
    "\u0300\u0301\u0308\u0327\u20dd\ufe0f",
]


def random_line(rng):
    chars = []
    for _ in range(rng.randint(0, 30)):
        if rng.random() < 0.1:
            chars.append(chr(rng.randrange(sys.maxunicode + 1)))
        else:
            chars.append(rng.choice(rng.choice(TOKENIZER_POOLS)))
    return "".join(chars)


def test_tokenizers_equal_the_reference_on_random_lines():
    rng = random.Random(2104)
    reference = reference_tokenizers()
    assert sorted(reference) == sorted(ngram.TOKENIZERS)
    for _ in range(4000):
        line = random_line(rng)
        for key, tokenize in ngram.TOKENIZERS.items():
            assert tokenize(line) == reference[key](line), (key, line)


@pytest.fixture(scope="module")
def every_code_point():
    return "".join(map(chr, range(sys.maxunicode + 1)))


@pytest.mark.parametrize("name", ["PUNCT", "SYMBOLS"])
def test_guarded_class_matches_the_code_points_of_its_body(name,
                                                           every_code_point):
    body = getattr(_unicode_classes, name)
    assert re.findall(ngram._guarded_class(body), every_code_point) == \
        re.findall(f"[{body}]", every_code_point)


def test_cjk_class_matches_the_cjk_ranges(every_code_point):
    assert ngram._cjk_regex().findall(every_code_point) == \
        [ch for ch in every_code_point if _reference_is_cjk(ch)]


def test_tokenizer_regexes_compile_on_first_use():
    # import peereval.cli compiles no tokenizer regex, and an intl BLEU
    # (the benchmark's set-up call) does not compile the CJK class
    code = ("from peereval import cli, ngram\n"
            "def sizes():\n"
            "    print(ngram._intl_regexes.cache_info().currsize,"
            " ngram._cjk_regex.cache_info().currsize)\n"
            "sizes()\n"
            "ngram.bleu(['a .'], ['a .'])\n"
            "sizes()\n"
            "ngram.tokenize_char_zh('中文')\n"
            "sizes()\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 0\n1 0\n1 1\n"


# Four systems over mixed ASCII, Unicode punctuation and CJK lines, with
# overlaps of every size, so that clipping, the brevity penalty and empty
# higher orders all occur.
OUTPUTS = {
    "a": ["the cat sat on the mat today.", "中文，测试。我们今天去公园。",
          "3.14 is pi, and e is 2.718!", "hello there, my old friend"],
    "b": ["the cat sat on a mat today .", "中文测试。我们明天去公园。",
          "pi is 3.14, and e is 2.718", "hello there my friend"],
    "c": ["a dog sat on the mat today", "中，文。我们今天去学校",
          "«pi» is 3,14 and e is 2.718!", "hello hello, my old friend"],
    "d": ["the the the cat", "测试中文，", "3.14", "world"],
}


@pytest.mark.parametrize("tokenizer", ["intl", "char-for-zh"])
@pytest.mark.parametrize("settings", [
    {}, {"smoothing": "exp-floor"}, {"max_order": 2},
])
def test_cross_bleu_matrix_cells_equal_bleu(tokenizer, settings):
    cfg = ngram.BleuConfig(tokenizer=tokenizer, **settings)
    names, matrix, averages = ngram.cross_bleu_matrix(OUTPUTS, cfg)
    assert names == sorted(OUTPUTS)
    size = len(names)
    for i, a in enumerate(names):
        assert matrix[i][i] == 100.0
        for j, b in enumerate(names):
            if i != j:
                assert matrix[i][j] == ngram.bleu(OUTPUTS[a], OUTPUTS[b], cfg)
                assert matrix[i][j] == ngram.cross_bleu(OUTPUTS[a],
                                                        OUTPUTS[b], cfg)
        others = [matrix[i][j] for j in range(size) if j != i]
        assert averages[i] == sum(others) / (size - 1)
    # the fixture is not trivial: some cells differ from 0 and from each other
    cells = {matrix[i][j] for i in range(size) for j in range(size) if i != j}
    assert len(cells) > size and any(0.0 < v < 100.0 for v in cells)


def test_cross_bleu_matrix_rejects_unequal_lengths():
    with pytest.raises(AlignmentError):
        ngram.cross_bleu_matrix({"a": ["x", "y"], "b": ["x"]})


@pytest.mark.parametrize("outputs", [
    {"a": [], "b": []},
    {"a": ["x y"]},
    {},
])
def test_cross_bleu_matrix_rejects_degenerate_input(outputs):
    with pytest.raises(DomainError):
        ngram.cross_bleu_matrix(outputs)


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), 0.0, -1.0])
def test_chrf_config_rejects_beta_that_is_not_finite_and_positive(beta):
    with pytest.raises(ConfigError, match=f"got {beta}$"):
        ngram.ChrfConfig(beta=beta)


# Exactness on random text: every statistic is an integer, so BLEU and chrF
# must equal, bit for bit, the same score tail fed by brute-force per-order
# counts (a Counter per order, clipped by min for BLEU and by & for chrF).

def brute_bleu(hyps, refs, cfg):
    tok = ngram.TOKENIZERS[cfg.tokenizer]
    correct, total = [0] * cfg.max_order, [0] * cfg.max_order
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp, ref = tok(hyp), tok(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, cfg.max_order + 1):
            hyp_counts = Counter(tuple(hyp[i:i + n])
                                 for i in range(len(hyp) - n + 1))
            ref_counts = Counter(tuple(ref[i:i + n])
                                 for i in range(len(ref) - n + 1))
            total[n - 1] += sum(hyp_counts.values())
            correct[n - 1] += sum(min(c, ref_counts[g])
                                  for g, c in hyp_counts.items())
    if ref_len == 0:
        raise DomainError("reference corpus has no tokens")
    if hyp_len == 0:
        return 0.0
    logs, zero_run = [], 0
    for n in range(cfg.max_order):
        if total[n] == 0:
            continue
        if correct[n]:
            logs.append(math.log(correct[n] / total[n]))
        elif cfg.smoothing == "exp-floor":
            zero_run += 1
            logs.append(math.log(1.0 / (2 ** zero_run * total[n])))
        else:
            return 0.0
    if not logs:
        return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(sum(logs) / len(logs))


def brute_chrf(hyps, refs, cfg):
    order = cfg.char_order
    matches, hyp_totals, ref_totals = [0] * order, [0] * order, [0] * order
    for hyp, ref in zip(hyps, refs):
        hyp, ref = "".join(hyp.split()), "".join(ref.split())
        for n in range(1, order + 1):
            hyp_counts = Counter(hyp[i:i + n] for i in range(len(hyp) - n + 1))
            ref_counts = Counter(ref[i:i + n] for i in range(len(ref) - n + 1))
            hyp_totals[n - 1] += sum(hyp_counts.values())
            ref_totals[n - 1] += sum(ref_counts.values())
            matches[n - 1] += sum((hyp_counts & ref_counts).values())
    if sum(ref_totals) == 0:
        raise DomainError("reference corpus is empty after whitespace removal")
    beta_sq = cfg.beta ** 2
    f_scores = []
    for n in range(order):
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


# Few distinct characters, so that n-grams of every order repeat and match;
# whitespace includes a tab and the ideographic space.
ALPHABET = ("ab12.,-'" "«»“”—…¿¡€°" "中文测试我们。，" "ＡＢ！" "🚀😀"
            + "   \t\u3000")


def random_corpus(rng):
    """(hypotheses, references): 1-4 segments, each hypothesis an edit of
    its reference or unrelated text."""
    hyps, refs = [], []
    for _ in range(rng.randint(1, 4)):
        ref = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 24)))
        if rng.random() < 0.7:
            chars = list(ref)
            for _ in range(rng.randint(0, 4)):
                k = rng.randint(0, len(chars))
                if rng.random() < 0.5 and k < len(chars):
                    del chars[k]
                else:
                    chars.insert(k, rng.choice(ALPHABET))
            hyp = "".join(chars)
        else:
            hyp = "".join(rng.choice(ALPHABET)
                          for _ in range(rng.randint(0, 24)))
        hyps.append(hyp)
        refs.append(ref)
    return hyps, refs


def outcome(score, *args):
    try:
        return score(*args)
    except DomainError as exc:
        return type(exc)


BLEU_SETTINGS = [{}, {"smoothing": "exp-floor"}, {"max_order": 1},
                 {"max_order": 2}]
CHRF_SETTINGS = [(6, 2.0), (3, 1.0), (1, 3.0)]


def test_bleu_and_chrf_equal_brute_force_counts_on_random_text():
    rng = random.Random(20210411)
    corpora = [random_corpus(rng) for _ in range(150)]
    scored = Counter()
    for hyps, refs in corpora:
        for tokenizer in ngram.TOKENIZERS:
            for settings in BLEU_SETTINGS:
                cfg = ngram.BleuConfig(tokenizer=tokenizer, **settings)
                want = outcome(brute_bleu, hyps, refs, cfg)
                assert outcome(ngram.bleu, hyps, refs, cfg) == want, \
                    (hyps, refs, cfg)
                scored["bleu", type(want) is float and 0 < want < 100] += 1
        for order, beta in CHRF_SETTINGS:
            cfg = ngram.ChrfConfig(char_order=order, beta=beta)
            want = outcome(brute_chrf, hyps, refs, cfg)
            assert outcome(ngram.chrf, hyps, refs, cfg) == want, \
                (hyps, refs, cfg)
            scored["chrf", type(want) is float and 0 < want < 100] += 1
    # most cases score strictly between 0 and 100
    assert scored["bleu", True] > scored["bleu", False]
    assert scored["chrf", True] > scored["chrf", False]
