import json
import re

import pytest

from peereval import model1, subword
from peereval.data import (
    SEGMENT_KEYS,
    SYSTEM_KEYS,
    HumanJudgments,
    LanguagePair,
    SegmentPair,
    SystemOutput,
    TokenScoredSegment,
    assemble_dataset,
    load_human_scores,
    load_token_scores,
    read_lines_with_ids,
    read_score_table,
    scores_by_pair,
    write_lines,
    write_token_scores,
)
from peereval.errors import (
    AlignmentError,
    DomainError,
    ParseError,
    StructureError,
)


def make_output(name, seg_texts, lang="de-en"):
    segments = tuple(SegmentPair(i, f"src {i}", t)
                     for i, t in enumerate(seg_texts))
    return SystemOutput(name, LanguagePair.parse(lang), segments)


class TestLanguagePair:
    def test_parse_and_normalize(self):
        lp = LanguagePair.parse("DE-EN")
        assert (lp.source, lp.target) == ("de", "en")
        assert str(lp) == "de-en"

    def test_same_source_target_rejected(self):
        with pytest.raises(DomainError):
            LanguagePair("en", "en")

    def test_bad_code_rejected(self):
        with pytest.raises(DomainError):
            LanguagePair("e", "de")

    @pytest.mark.parametrize("pair,group", [
        ("en-de", "en-xx"), ("de-en", "xx-en"), ("de-fr", "xx-yy"),
    ])
    def test_group(self, pair, group):
        assert LanguagePair.parse(pair).group == group


class TestTokenScoredSegment:
    def test_construct(self):
        seg = TokenScoredSegment(0, ["a", "b"], [-1.0, -2.0])
        assert len(seg) == 2
        assert seg.logprobs == (-1.0, -2.0)

    def test_length_mismatch(self):
        with pytest.raises(StructureError):
            TokenScoredSegment(0, ["a", "b"], [-1.0])

    def test_positive_logprob(self):
        with pytest.raises(DomainError):
            TokenScoredSegment(0, ["a"], [0.1])

    def test_empty(self):
        with pytest.raises(StructureError):
            TokenScoredSegment(0, [], [])


class TestTokenScoreFile:
    def test_parse_line(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"seg":0,"tokens":["a","b"],"logp":[-1.0,-2.0]}\n')
        segs = load_token_scores(path)
        assert len(segs) == 1
        assert len(segs[0]) == 2

    def test_length_mismatch_is_structural(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"seg":0,"tokens":["a","b"],"logp":[-1.0]}\n')
        with pytest.raises(StructureError):
            load_token_scores(path)

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text("")
        assert load_token_scores(path) == []

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"seg":0,"tokens":["a"],"logp":[-1.0]}\n{bad\n')
        with pytest.raises(ParseError) as err:
            load_token_scores(path)
        assert err.value.line == 2

    def test_positive_logprob_is_domain_error(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"seg":0,"tokens":["a"],"logp":[0.5]}\n')
        with pytest.raises(DomainError):
            load_token_scores(path)

    def test_sorted_by_seg_id(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        lines = [
            {"seg": 2, "tokens": ["c"], "logp": [-3.0]},
            {"seg": 0, "tokens": ["a"], "logp": [-1.0]},
            {"seg": 1, "tokens": ["b"], "logp": [-2.0]},
        ]
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        segs = load_token_scores(path)
        assert [s.seg_id for s in segs] == [0, 1, 2]

    def test_round_trip_bit_identical(self, tmp_path):
        # awkward floats survive the text round trip exactly
        segs = [
            TokenScoredSegment(0, ["über", "x"], [-0.1, -1e-300]),
            TokenScoredSegment(1, ["a"], [-2.0000000000000004]),
            TokenScoredSegment(2, ["b", "c", "d"],
                               [-1/3, -123456.78901234567, -0.0]),
        ]
        path = tmp_path / "rt.jsonl"
        write_token_scores(path, segs)
        reloaded = load_token_scores(path)
        assert reloaded == segs
        for orig, back in zip(segs, reloaded):
            for a, b in zip(orig.logprobs, back.logprobs):
                assert a == b and str(a) == str(b)


    @pytest.mark.parametrize("record", [
        '{"seg": 0, "tokens": ["a"], "logp": ["x"]}',
        '{"seg": 0, "tokens": ["a"], "logp": [null]}',
        '{"seg": 0, "tokens": ["a"], "logp": -1}',
        '{"seg": 0, "tokens": "ab", "logp": [-1, -1]}',
        '{"seg": 0, "tokens": [1], "logp": [-1]}',
        '{"seg": 0, "tokens": ["a"], "logp": [false]}',
        '{"seg": true, "tokens": ["a"], "logp": [-1]}',
        '{"seg": "0", "tokens": ["a"], "logp": [-1]}',
        '{"seg": 0.5, "tokens": ["a"], "logp": [-1]}',
        '{"seg": -1, "tokens": ["a"], "logp": [-1]}',
        '{"seg": 0, "tokens": ["a"], "logp": [-1' + "0" * 400 + ']}',
        '[0, ["a"], [-1]]',
    ], ids=["logp-string", "logp-null", "logp-scalar", "tokens-string",
            "token-number", "logp-bool", "seg-bool", "seg-string",
            "seg-float", "seg-negative", "logp-overflow", "not-an-object"])
    def test_bad_record_type_names_line(self, tmp_path, record):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"seg": 1, "tokens": ["b"], "logp": [-1.0]}\n'
                        + record + "\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: ")):
            load_token_scores(path)

    def test_integer_logp_is_a_number(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"seg": 0, "tokens": ["a", "b"], "logp": [-1, 0]}\n')
        (seg,) = load_token_scores(path)
        assert seg.logprobs == (-1.0, 0.0)


class TestHumanScores:
    def test_parse_system_row(self, tmp_path):
        path = tmp_path / "h.tsv"
        path.write_text("lang_pair\tsystem\tscore\nde-en\tonline-X.0\t-0.53\n")
        human = load_human_scores(path)
        assert human.system_scores[("de-en", "online-X.0")] == -0.53

    def test_duplicate_row(self, tmp_path):
        path = tmp_path / "h.tsv"
        path.write_text("lang_pair\tsystem\tscore\n"
                        "de-en\tA\t0.1\nde-en\tA\t0.2\n")
        with pytest.raises(StructureError):
            load_human_scores(path)

    def test_non_numeric_score(self, tmp_path):
        path = tmp_path / "h.tsv"
        path.write_text("lang_pair\tsystem\tscore\nde-en\tA\tabc\n")
        with pytest.raises(ParseError):
            load_human_scores(path)

    def test_leading_blank_line(self, tmp_path):
        path = tmp_path / "h.tsv"
        path.write_text("\nlang_pair\tsystem\tscore\nde-en\tA\t0.1\n")
        assert load_human_scores(path).system_scores == {("de-en", "A"): 0.1}

    def test_scores_by_pair_splits_every_pair(self):
        table = {("fr-en", "A"): 0.5, ("de-en", "A"): 0.1,
                 ("de-en", "B"): 0.2, ("en-zh", "C"): -1.0,
                 ("fr-en", "B"): 0.25}
        assert scores_by_pair(table) == {
            "de-en": {"A": 0.1, "B": 0.2},
            "fr-en": {"A": 0.5, "B": 0.25},
            "en-zh": {"C": -1.0},
        }
        assert scores_by_pair({}) == {}


class TestScoreTable:
    def write(self, tmp_path, text):
        path = tmp_path / "scores.tsv"
        path.write_text(text)
        return path

    def test_columns_by_name(self, tmp_path):
        # the column order the score subcommand writes, with an extra column
        path = self.write(tmp_path, "system\tlang_pair\tscore\tn_segments\n"
                                    "A\tde-en\t-0.25\t100\n")
        assert read_score_table(path, SYSTEM_KEYS) == {("de-en", "A"): -0.25}

    def test_segment_keys(self, tmp_path):
        path = self.write(tmp_path, "seg\tscore\tsystem\tlang_pair\n"
                                    "3\t0.5\tA\tde-en\n0\t1e-3\tA\tde-en\n")
        assert read_score_table(path, SEGMENT_KEYS) == {
            ("de-en", "A", 3): 0.5, ("de-en", "A", 0): 1e-3}

    @pytest.mark.parametrize("header", [
        "lang_pair\tsystem\n", "lang_pair\tsystem\tscore\tscore\n",
    ], ids=["missing", "repeated"])
    def test_header_names_each_column_once(self, tmp_path, header):
        path = self.write(tmp_path, header + "de-en\tA\t0.1\t0.2\n")
        with pytest.raises(ParseError) as err:
            read_score_table(path, SYSTEM_KEYS)
        assert err.value.line == 1

    @pytest.mark.parametrize("row", ["de-en\tA\n", "de-en\tA\t0.1\t9\n"],
                             ids=["short", "long"])
    def test_column_count(self, tmp_path, row):
        path = self.write(tmp_path, "lang_pair\tsystem\tscore\n"
                                    "de-en\tB\t0.2\n" + row)
        with pytest.raises(ParseError) as err:
            read_score_table(path, SYSTEM_KEYS)
        assert (err.value.path, err.value.line) == (path, 3)

    @pytest.mark.parametrize("row", ["de-en\tA\t0\tabc\n",
                                     "de-en\tA\t0\tnan\n",
                                     "de-en\tA\t0.5\t0.1\n",
                                     "de-en\tA\t-1\t0.1\n"],
                             ids=["score", "nan-score", "seg", "negative-seg"])
    def test_bad_value_names_line(self, tmp_path, row):
        path = self.write(tmp_path, "lang_pair\tsystem\tseg\tscore\n\n" + row)
        with pytest.raises(ParseError) as err:
            read_score_table(path, SEGMENT_KEYS)
        assert err.value.line == 3

    def test_language_pair_keyed_in_lower_case(self, tmp_path):
        path = self.write(tmp_path, "lang_pair\tsystem\tscore\n"
                                    "DE-EN\tA\t0.1\n De-En\tB\t0.2\n")
        assert read_score_table(path, SYSTEM_KEYS) == {
            ("de-en", "A"): 0.1, ("de-en", "B"): 0.2}

    def test_language_pair_case_variants_are_one_pair(self, tmp_path):
        path = self.write(tmp_path, "lang_pair\tsystem\tscore\n"
                                    "de-en\tA\t0.1\nDE-EN\tA\t0.2\n")
        with pytest.raises(StructureError, match=re.escape(f"{path}:3:")):
            read_score_table(path, SYSTEM_KEYS)

    def test_bad_language_pair_names_line(self, tmp_path):
        path = self.write(tmp_path, "lang_pair\tsystem\tscore\n"
                                    "de-en\tA\t0.1\ndeen\tA\t0.2\n")
        with pytest.raises(DomainError, match=re.escape(f"{path}:3:")):
            read_score_table(path, SYSTEM_KEYS)

    def test_duplicate_key_names_line(self, tmp_path):
        path = self.write(tmp_path, "lang_pair\tsystem\tseg\tscore\n"
                                    "de-en\tA\t0\t0.1\nde-en\tA\t00\t0.2\n")
        with pytest.raises(StructureError, match=re.escape(f"{path}:3:")):
            read_score_table(path, SEGMENT_KEYS)

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank"])
    def test_no_header(self, tmp_path, text):
        with pytest.raises(ParseError):
            read_score_table(self.write(tmp_path, text), SYSTEM_KEYS)

    def test_header_only_is_empty(self, tmp_path):
        path = self.write(tmp_path, "lang_pair\tsystem\tscore\n")
        assert read_score_table(path, SYSTEM_KEYS) == {}


class TestAssembleDataset:
    def test_valid(self):
        outputs = [make_output(n, [f"text {i}" for i in range(10)])
                   for n in "ABC"]
        human = HumanJudgments({("de-en", n): i for i, n in enumerate("ABC")})
        ds = assemble_dataset(outputs, human)
        assert ds.system_names == ["A", "B", "C"]
        assert ds.seg_ids == list(range(10))

    def test_misaligned_system_named(self):
        good = [make_output(n, ["x"] * 10) for n in "AC"]
        segments = tuple(SegmentPair(i, "", "y") for i in range(10) if i != 7)
        bad = SystemOutput("B", LanguagePair.parse("de-en"), segments)
        human = HumanJudgments({("de-en", n): 0.0 for n in "ABC"})
        with pytest.raises(AlignmentError, match="B"):
            assemble_dataset([good[0], bad, good[1]], human)

    def test_missing_judgment_named(self):
        outputs = [make_output(n, ["x"] * 5) for n in "ABC"]
        human = HumanJudgments({("de-en", "A"): 0.1, ("de-en", "B"): 0.2})
        with pytest.raises(StructureError, match="C"):
            assemble_dataset(outputs, human)

    def test_order_insensitive(self):
        outputs = [make_output(n, [f"t{i}" for i in range(4)]) for n in "ABC"]
        human = HumanJudgments({("de-en", n): i for i, n in enumerate("ABC")})
        first = assemble_dataset(outputs, human)
        second = assemble_dataset(outputs[::-1], human)
        assert first == second

    def test_needs_two_systems(self):
        outputs = [make_output("A", ["x"])]
        human = HumanJudgments({("de-en", "A"): 0.0})
        with pytest.raises(StructureError):
            assemble_dataset(outputs, human)


class TestPlainText:
    def test_implicit_ids(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("one\ntwo\n")
        assert read_lines_with_ids(path) == [(0, "one"), (1, "two")]

    def test_sidecar_ids(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("one\ntwo\n")
        ids = tmp_path / "ids.txt"
        ids.write_text("5\n3\n")
        assert read_lines_with_ids(path, ids) == [(5, "one"), (3, "two")]

    def test_sidecar_negative_id_names_line(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("one\ntwo\n")
        ids = tmp_path / "ids.txt"
        ids.write_text("5\n\n-1\n")
        with pytest.raises(ParseError, match="negative segment id -1") as err:
            read_lines_with_ids(path, ids)
        assert (err.value.path, err.value.line) == (ids, 3)

    def test_sidecar_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("one\ntwo\nthree\n")
        ids = tmp_path / "ids.txt"
        ids.write_text("3\n4\n3\n")
        with pytest.raises(ParseError, match="duplicate segment id 3") as err:
            read_lines_with_ids(path, ids)
        assert (err.value.path, err.value.line) == (ids, 3)

    def test_sidecar_length_mismatch(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("one\ntwo\n")
        ids = tmp_path / "ids.txt"
        ids.write_text("5\n")
        with pytest.raises(AlignmentError):
            read_lines_with_ids(path, ids)

    def test_empty_lines_are_segments(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("one\n\nthree\n")
        assert read_lines_with_ids(path) == [(0, "one"), (1, ""), (2, "three")]
        path.write_text("a\nb\n\n")
        assert read_lines_with_ids(path) == [(0, "a"), (1, "b"), (2, "")]


def read_sidecar(path):
    text = path.parent / "segments.txt"
    text.write_text("a\nb\nc\n")
    return read_lines_with_ids(text, path)


def read_table(path):
    table = model1.load_lexical_table(path)
    return table.source_index, table.target_index, table.probs.tolist()


# each reader with a valid three-line file
READERS = [
    pytest.param(lambda path: read_score_table(path, SYSTEM_KEYS),
                 "lang_pair\tsystem\tscore\nde-en\tA\t0.1\nde-en\tB\t0.2\n",
                 id="score-tsv"),
    pytest.param(load_token_scores,
                 '{"seg": 0, "tokens": ["a"], "logp": [-1.0]}\n'
                 '{"seg": 2, "tokens": ["b", "c"], "logp": [-0.5, -2]}\n'
                 '{"seg": 1, "tokens": ["über"], "logp": [-0.25]}\n',
                 id="token-jsonl"),
    pytest.param(read_lines_with_ids, "one\n\nthree wörds \n", id="plain-text"),
    pytest.param(read_sidecar, "5\n3\n7\n", id="sidecar-ids"),
    pytest.param(read_table, "x\t<NULL>\t1.0\ny\ta\t0.25\nz\ta\t0.75\n",
                 id="lexical-table"),
    pytest.param(subword.load_unigram_model, "a\t-1.0\nb\t-2.0\nü\t-3.0\n",
                 id="subword-model"),
]


class TestLines:
    @pytest.mark.parametrize("read,text", READERS)
    def test_undecodable_byte_names_line(self, tmp_path, read, text):
        lines = text.encode("utf-8").split(b"\n")
        lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
        path = tmp_path / "input"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError) as err:
            read(path)
        assert str(err.value).startswith(f"{path}:3: ")

    @pytest.mark.parametrize("read,text", READERS)
    def test_crlf_reads_as_lf(self, tmp_path, read, text):
        lf, crlf = tmp_path / "lf", tmp_path / "crlf"
        lf.write_bytes(text.encode("utf-8"))
        crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        assert read(crlf) == read(lf)

    def test_lone_cr_stays_in_segment(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"a\rb\r\nc\r\r\nd\r")
        assert read_lines_with_ids(path) == [(0, "a\rb"), (1, "c\r"),
                                             (2, "d\r")]

    def test_write_lines(self, tmp_path):
        path = tmp_path / "out.txt"
        write_lines(path, ["ü", "", "a\tb"])
        assert path.read_bytes() == "ü\n\na\tb\n".encode("utf-8")
        write_lines(path, [])
        assert path.read_bytes() == b""

    def test_write_lines_builds_before_opening(self, tmp_path):
        def lines():
            yield "first"
            raise DomainError("bad line")

        path = tmp_path / "out.txt"
        with pytest.raises(DomainError):
            write_lines(path, lines())
        assert not path.exists()
        path.write_bytes(b"old\n")
        with pytest.raises(DomainError):
            write_lines(path, lines())
        assert path.read_bytes() == b"old\n"

    def test_unrepresentable_piece_writes_nothing(self, tmp_path):
        model = subword.UnigramSubwordModel({"a": -1.0, "a\tb": -2.0})
        path = tmp_path / "model.tsv"
        with pytest.raises(DomainError):
            subword.save_unigram_model(model, path)
        assert not path.exists()
        path.write_bytes(b"old\t-1.0\n")
        with pytest.raises(DomainError):
            subword.save_unigram_model(model, path)
        assert path.read_bytes() == b"old\t-1.0\n"
