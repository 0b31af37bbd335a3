"""The frozen Unicode class table of the intl tokenizer against the Unicode
database it was generated from, its generator's ``--check`` mode, and the
tokenizers in a process that cannot import ``unicodedata``."""

import importlib.util
import json
import os
import subprocess
import sys
import unicodedata

import pytest

from peereval import _unicode_classes, ngram

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "..", "scripts", "gen_unicode_classes.py")
SRC = os.path.join(HERE, "..", "src")


def load_script():
    spec = importlib.util.spec_from_file_location("gen_unicode_classes",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def generator():
    return load_script()


@pytest.fixture(scope="module")
def scanned(generator):
    """The two class bodies rebuilt from the running ``unicodedata``."""
    assert unicodedata.unidata_version == _unicode_classes.UNIDATA_VERSION, (
        f"the table holds Unicode {_unicode_classes.UNIDATA_VERSION}, this "
        f"interpreter has {unicodedata.unidata_version}; regenerate with "
        "scripts/gen_unicode_classes.py")
    return generator._category_classes()


def test_table_equals_the_unicode_database(generator, scanned):
    punct, symbols = scanned
    assert _unicode_classes.PUNCT == punct
    assert _unicode_classes.SYMBOLS == symbols
    # the committed text is exactly what the generator writes
    assert generator.out_of_date(generator.MODULE,
                                 unicodedata.unidata_version,
                                 punct, symbols) == []


def test_no_run_crosses_into_the_astral_planes(generator, monkeypatch):
    # ngram cuts each body at its first astral character; a run across
    # U+FFFF would leave a dangling "a-" on the BMP side of the cut
    class Category:
        @staticmethod
        def category(ch):
            return "So" if 0xFFF0 <= ord(ch) <= 0x1000F else "Cn"

    monkeypatch.setattr(generator, "unicodedata", Category)
    assert generator._category_classes() == (
        "", "\ufff0-\uffff\U00010000-\U0001000f")


def test_check_mode_passes_on_the_committed_table(generator, capsys):
    assert generator.main(["--check"]) == 0
    assert capsys.readouterr().out.endswith(
        f"matches Unicode {unicodedata.unidata_version}\n")


def test_check_summarizes_a_stale_table(generator, scanned, tmp_path):
    punct, symbols = scanned
    version = unicodedata.unidata_version
    # '!-\#' is the run U+0021..U+0023; '!' alone drops '"' and '#'
    assert punct.startswith("!-\\#")
    stale = tmp_path / "_unicode_classes.py"
    stale.write_text(generator.render("1.0.0", "!" + punct[4:], symbols),
                     encoding="utf-8")
    assert generator.out_of_date(str(stale), version, punct, symbols) == [
        f"{stale} differs from the classes of Unicode {version}:",
        f"  UNIDATA_VERSION: '1.0.0' -> {version!r}",
        "  PUNCT: 2 code points to add, 0 to remove",
        "    + U+0022 U+0023",
    ]
    stale.write_text(generator.render(version, punct, symbols) + "\n",
                     encoding="utf-8")
    assert generator.out_of_date(str(stale), version, punct, symbols)[1:] == [
        "  same values, different text"]


def test_tokenize_oracle_pins_the_table_version(tokenize_oracle):
    # the oracle and the table are regenerated together
    assert tokenize_oracle["unidata_version"] == _unicode_classes.UNIDATA_VERSION


LINE = "«Bonjour», dit-il: 3.14€ et 1,000 中文，测试。🚀 ¿Qué? été."


def test_tokenizers_run_without_the_unicode_database():
    code = ("import json, sys\n"
            "sys.modules['unicodedata'] = None\n"
            "from peereval import ngram\n"
            f"line = json.loads({json.dumps(json.dumps(LINE))})\n"
            "print(json.dumps({key: tokenize(line) for key, tokenize"
            " in sorted(ngram.TOKENIZERS.items())}))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        key: tokenize(LINE) for key, tokenize in ngram.TOKENIZERS.items()}
    assert json.loads(result.stdout)["intl"] == [
        "«", "Bonjour", "»", ",", "dit", "-", "il", ":", "3.14", "€", "et",
        "1,000", "中文", "，", "测试", "。", "🚀", "¿", "Qué", "?",
        "été", "."]
