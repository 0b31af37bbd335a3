"""Every record type: its fields are read-only, it is rebuilt equal from its
own fields, and its constructor's checks keep their error types, messages
and order."""

import math

import numpy as np
import pytest

from peereval import data, metaeval, model1, ngram, scoring, subword, synthetic
from peereval.errors import ConfigError, DomainError, StructureError

LP = data.LanguagePair("de", "en")
SEGMENTS = (data.SegmentPair(1, "b", "y"), data.SegmentPair(0, "a", "x"))
TOKENS = (data.TokenScoredSegment(1, ["b"], [-1]),
          data.TokenScoredSegment(0, ("a",), [-0.5]))
HUMAN = data.HumanJudgments({("de-en", "A"): 0.5, ("de-en", "B"): 0.25})
CORRELATION = metaeval.CorrelationResult("de-en", 0.9, ("A", "B", "C"), ("D",))

# name -> (a valid record, whether the record is hashable); a record is
# unhashable when a field holds a dict, a mappingproxy or an array
RECORDS = {
    "LanguagePair": (data.LanguagePair(" DE", "en"), True),
    "SegmentPair": (SEGMENTS[0], True),
    "TokenScoredSegment": (TOKENS[0], True),
    "SystemOutput": (data.SystemOutput("A", LP, SEGMENTS, TOKENS), True),
    "HumanJudgments": (HUMAN, False),
    "EvalDataset": (data.EvalDataset(LP, (data.SystemOutput("B", LP, SEGMENTS),
                                          data.SystemOutput("A", LP, SEGMENTS)),
                                     HUMAN), False),
    "BleuConfig": (ngram.BleuConfig(tokenizer="char-for-zh"), True),
    "ChrfConfig": (ngram.ChrfConfig(beta=1.0), True),
    "SegmentScore": (scoring.SegmentScore(0, -1.5), True),
    "SystemScore": (scoring.SystemScore("A", "de-en", -1.5, "mean", 3), True),
    "CorrelationResult": (CORRELATION, True),
    "MetricReport": (metaeval.MetricReport((CORRELATION,), 0.9, {"all": 0.9}),
                     False),
    "WilliamsComparison": (metaeval.WilliamsComparison(
        "de-en", 0.9, 0.8, 0.7, 5, 1.2, 0.1), True),
    "PairwiseTally": (metaeval.PairwiseTally(1, 2, ns_correct=3), True),
    "LexicalTable": (model1.LexicalTable({model1.NULL_TOKEN: 0}, {"x": 0},
                                         np.ones((1, 1))), False),
    "Segmentation": (subword.Segmentation(["a", "b"], -2.0), True),
    "UnigramSubwordModel": (subword.UnigramSubwordModel({"a": -1.0}), False),
    "NoiseBenchmark": (synthetic.make_noise_benchmark(
        n_segments=2, noise_rates=(0.0,)), False),
}


@pytest.mark.parametrize("record", [r for r, _ in RECORDS.values()],
                         ids=list(RECORDS))
def test_a_field_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("record, hashable", list(RECORDS.values()),
                         ids=list(RECORDS))
def test_a_record_rebuilt_from_its_fields_is_equal(record, hashable):
    rebuilt = type(record)(**{name: getattr(record, name)
                              for name in record._fields})
    assert rebuilt == record
    assert repr(rebuilt) == repr(record)
    if hashable:
        assert hash(rebuilt) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)


# One call per record with checks. Where an input breaks two checks, the
# first check in the constructor's order names it.
BAD_INPUTS = {
    "LanguagePair": (lambda: data.LanguagePair("d", "d"),
                     DomainError, "bad language code 'd'"),
    "SegmentPair": (lambda: data.SegmentPair(-1, "a", "x"),
                    DomainError, "negative seg_id -1"),
    "TokenScoredSegment": (lambda: data.TokenScoredSegment(3, ["a", "b"], [0.5]),
                           StructureError, "segment 3: 2 tokens vs 1 log-probs"),
    "SystemOutput": (lambda: data.SystemOutput("A", LP, SEGMENTS + SEGMENTS[:1],
                                               TOKENS[:1]),
                     StructureError, "A: duplicate seg_id in segments"),
    "BleuConfig": (lambda: ngram.BleuConfig(0, "add-one", "none"),
                   ConfigError, "max_order must be >= 1, got 0"),
    "ChrfConfig": (lambda: ngram.ChrfConfig(0, math.nan),
                   ConfigError, "char_order must be >= 1, got 0"),
    "SegmentScore": (lambda: scoring.SegmentScore(2, math.inf),
                     DomainError, "segment 2: non-finite score"),
    "SystemScore": (lambda: scoring.SystemScore("A", "de-en", math.nan,
                                                "mean", 0),
                    DomainError, "system score over zero segments"),
    "LexicalTable": (lambda: model1.LexicalTable({}, {}, np.full((1, 1), np.nan)),
                     DomainError, "source vocabulary lacks <NULL>"),
    "UnigramSubwordModel": (lambda: subword.UnigramSubwordModel({"": 0.5}),
                            DomainError, "empty piece in vocabulary"),
}


@pytest.mark.parametrize("build, error, message", list(BAD_INPUTS.values()),
                         ids=list(BAD_INPUTS))
def test_a_bad_input_keeps_its_error(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert exc.type is error
    assert str(exc.value) == message
