"""Data model and file ingestion.

Wire formats:
  * lines: every file is UTF-8 text. A line ends at LF; a CR just before
    the LF is dropped, and a lone CR stays inside its line. A byte that is
    not UTF-8 is a ``ParseError`` naming ``path:line``. Files are written
    with LF line ends. Every reader and writer goes through ``read_lines``
    and ``write_lines``; table readers skip blank lines, plain-text segment
    files keep them as segments.
  * token scores: JSON lines, one object per segment,
    ``{"seg": <int>, "tokens": [<str>...], "logp": [<number>...]}``.
    Segment ids, here and in every other file, are integers >= 0.
    K regularization samples are K separate files.
  * score tables (human judgments and metric scores): TSV whose first
    non-blank line is a header naming ``lang_pair``, ``system`` and
    ``score`` (system level), plus ``seg`` (segment level). Columns are
    matched by name, in any order; other columns are ignored.
    ``read_score_table`` is the one reader, ``scores_by_pair`` the one split.
    Every TSV file the package writes is built by ``tsv_line``, which
    refuses a field that holds a tab, LF or CR.
  * segment ids: inputs that are compared segment by segment (the samples
    of one system, the systems of one pair that the human scores name, a
    metric file and a human file, a source and a target) must cover the
    same ids; ``same_segments`` is the one check.
  * system outputs / references: plain text, one segment per line, ids either
    implicit (0-based line number) or from a sidecar id file.

Every record here and in the other modules is declared as a namedtuple
subclass, ``class X(namedtuple("X", "field ...")):`` with ``__slots__ = ()``,
and runs its checks and normalisation in ``__new__``. Records are
immutable. ``_replace`` and ``_make`` skip ``__new__``, so a record with
checks is built through its constructor. The one exception is
``build_records``: a caller that holds a whole array of values
(``model1.score_corpus``, ``scoring.aggregate_segments``) checks it once,
with a check that implies the constructor's, and builds its records
without running the constructor again; when the array check fails, every
record goes through the constructor, so each error is the constructor's.
Log-probabilities are natural logs (nats) throughout.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    AlignmentError,
    DomainError,
    ParseError,
    StructureError,
)


class LanguagePair(namedtuple("LanguagePair", "source target")):
    __slots__ = ()

    def __new__(cls, source: str, target: str):
        codes = []
        for code in (source, target):
            norm = code.strip().lower()
            if len(norm) < 2 or not norm.isalpha():
                raise DomainError(f"bad language code {code!r}")
            codes.append(norm)
        if codes[0] == codes[1]:
            raise DomainError(f"source and target coincide: {codes[0]}")
        return super().__new__(cls, *codes)

    @classmethod
    def parse(cls, text: str) -> "LanguagePair":
        parts = text.split("-")
        if len(parts) != 2:
            raise DomainError(f"bad language pair {text!r}, expected 'xx-yy'")
        return cls(parts[0], parts[1])

    def __str__(self) -> str:
        return f"{self.source}-{self.target}"

    @property
    def group(self) -> str:
        """Reporting group: en-xx, xx-en, or xx-yy."""
        if self.source == "en":
            return "en-xx"
        if self.target == "en":
            return "xx-en"
        return "xx-yy"


class SegmentPair(namedtuple("SegmentPair", "seg_id source_text target_text")):
    __slots__ = ()

    def __new__(cls, seg_id: int, source_text: str, target_text: str):
        if seg_id < 0:
            raise DomainError(f"negative seg_id {seg_id}")
        return super().__new__(cls, seg_id, source_text, target_text)


class TokenScoredSegment(namedtuple("TokenScoredSegment",
                                    "seg_id tokens logprobs")):
    """Tokens of one hypothesis segment with their log-probabilities."""

    __slots__ = ()

    def __new__(cls, seg_id: int, tokens, logprobs):
        tokens = tuple(tokens)
        logprobs = tuple(map(float, logprobs))
        if len(tokens) != len(logprobs):
            raise StructureError(
                f"segment {seg_id}: {len(tokens)} tokens vs "
                f"{len(logprobs)} log-probs"
            )
        if len(tokens) == 0:
            raise StructureError(f"segment {seg_id} is empty")
        # A finite sum rules out nan and inf, and a largest value <= 0 any
        # positive one; only a bad segment pays for the loop that names the
        # first bad value.
        if not (math.isfinite(sum(logprobs)) and max(logprobs) <= 0.0):
            for v in logprobs:
                if not math.isfinite(v):
                    raise DomainError(
                        f"segment {seg_id}: non-finite log-prob {v}")
                if v > 0.0:
                    raise DomainError(f"segment {seg_id}: positive log-prob {v}")
            raise DomainError(f"segment {seg_id}: log-prob sum overflows")
        return super().__new__(cls, seg_id, tokens, logprobs)


def logprob_array_ok(values) -> bool:
    """True when every segment cut from the float64 numpy array ``values``
    passes the log-prob check of ``TokenScoredSegment``: every value is
    <= 0 (so none is nan or +inf) and the whole array sums to at least
    -1e307 (so none is -inf, and no segment's sum, at most that large,
    overflows in any order of addition). False decides nothing: the
    constructor then checks each segment."""
    return not len(values) or bool(values.max() <= 0.0
                                   and values.sum() >= -1e307)


def build_records(cls, rows, checked: bool) -> list:
    """``[cls(*row) for row in rows]``. When ``checked`` is true, the
    caller has checked the values of all rows at once with a check that
    implies the constructor's, and ``cls.__new__`` is skipped: the one
    place where a record skips its constructor."""
    if not checked:
        return [cls(*row) for row in rows]
    new = tuple.__new__
    return [new(cls, row) for row in rows]


class SystemOutput(namedtuple("SystemOutput",
                              "system_name lang_pair segments token_scores")):
    __slots__ = ()

    def __new__(cls, system_name: str, lang_pair: LanguagePair, segments,
                token_scores: Optional[tuple] = None):
        segments = tuple(sorted(segments, key=lambda s: s.seg_id))
        ids = [s.seg_id for s in segments]
        if len(set(ids)) != len(ids):
            raise StructureError(f"{system_name}: duplicate seg_id in segments")
        if token_scores is not None:
            token_scores = tuple(sorted(token_scores, key=lambda s: s.seg_id))
            same_segments({"segments": ids,
                           "token scores": [s.seg_id for s in token_scores]},
                          f"{system_name}: ")
        return super().__new__(cls, system_name, lang_pair, segments,
                               token_scores)


class HumanJudgments(namedtuple("HumanJudgments", "system_scores")):
    """System-level human scores: ``system_scores`` maps (lang_pair, system)
    to a score."""

    __slots__ = ()

    def __new__(cls, system_scores: Mapping):
        return super().__new__(cls, dict(system_scores))


class EvalDataset(namedtuple("EvalDataset", "lang_pair systems human")):
    """Aligned system outputs for one language pair, with human judgments."""

    __slots__ = ()

    def __new__(cls, lang_pair: LanguagePair, systems,
                human: HumanJudgments):
        systems = tuple(sorted(systems, key=lambda s: s.system_name))
        return super().__new__(cls, lang_pair, systems, human)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def read_lines(path):
    """Yield ``(line number, line)``; the line rules are under "Wire formats"."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"byte {raw[exc.start]:#04x} is not UTF-8",
                                 path, lineno) from None
            if line.endswith("\n"):
                line = line[:-2] if line.endswith("\r\n") else line[:-1]
            yield lineno, line


def write_lines(path, lines: Iterable) -> None:
    """Write ``lines`` as UTF-8, each ended by LF.

    Every line is built and encoded before the file is opened, so an error
    while building them leaves no new file and does not truncate an old
    one. A line that cannot be encoded (a lone surrogate, as from argv
    bytes that are not UTF-8) is a DomainError naming ``path:line``.
    """
    text = "".join(f"{line}\n" for line in lines)
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        lineno = text.count("\n", 0, exc.start) + 1
        raise DomainError(f"{path}:{lineno}: {text[exc.start]!r} cannot be "
                          "encoded as UTF-8") from None
    with open(path, "wb") as fh:
        fh.write(data)


def tsv_line(fields: Iterable, what: str = "field") -> str:
    """The ``str`` of each of ``fields``, joined by tabs: a TSV line that
    ``read_lines`` and a split at tabs give back as these fields. A field
    holding a tab, LF or CR is a DomainError naming it as ``what``."""
    fields = [str(f) for f in fields]
    for field in fields:
        if "\t" in field or "\n" in field or "\r" in field:
            raise DomainError(f"{what} {field!r} not representable in TSV")
    return "\t".join(fields)


def load_token_scores(path) -> list:
    """Read a token-score JSONL file, sorted by seg_id. A file without a
    record is a ParseError."""
    import json

    # A line the scanner does not take whole goes to json.loads, so every
    # bad line gets json.loads's error.
    scan = json.JSONDecoder().scan_once
    segments = []
    seen = set()
    for lineno, raw in read_lines(path):
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj, end = scan(raw, 0)
        except (StopIteration, json.JSONDecodeError):
            end = -1
        if end != len(raw):
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad JSON ({exc.msg})", path,
                                 lineno) from exc
        if not isinstance(obj, dict):
            obj = {}
        seg_id, tokens, logps = obj.get("seg"), obj.get("tokens"), obj.get("logp")
        if not (type(seg_id) is int  # a bool is not an integer here
                and type(tokens) is list and set(map(type, tokens)) <= {str}
                and type(logps) is list
                and set(map(type, logps)) <= {int, float}):
            raise ParseError(
                "record must have integer 'seg', list of strings 'tokens', "
                "list of numbers 'logp'", path, lineno)
        if seg_id < 0:
            raise ParseError(f"negative seg {seg_id}", path, lineno)
        if seg_id in seen:
            raise StructureError(f"{path}:{lineno}: duplicate seg_id {seg_id}")
        seen.add(seg_id)
        try:
            segments.append(TokenScoredSegment(seg_id, tokens, logps))
        except (StructureError, DomainError) as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from exc
        except OverflowError as exc:   # an integer beyond the float range
            raise ParseError("log-prob out of float range", path,
                             lineno) from exc
    if not segments:
        raise ParseError("no token-score records", path)
    segments.sort(key=lambda s: s.seg_id)
    return segments


def write_token_scores(path, segments: Iterable) -> None:
    """Write token-score JSONL, one ``json.dumps(record,
    ensure_ascii=False)`` line per segment in seg_id order; floats keep
    shortest round-trip precision. A seg_id that ``load_token_scores``
    would refuse (not an integer, negative or repeated) raises its error
    type, naming the segment, before any line is built."""
    from json.encoder import encode_basestring

    segments = list(segments)
    seen = set()
    for seg in segments:
        seg_id = seg.seg_id
        if type(seg_id) is not int:   # a bool is not an integer here
            raise ParseError(f"seg_id {seg_id!r} is not an integer")
        if seg_id < 0:
            raise ParseError(f"negative seg_id {seg_id}")
        if seg_id in seen:
            raise StructureError(f"duplicate seg_id {seg_id}")
        seen.add(seg_id)
    # the line json.dumps builds, without its per-value type dispatch
    write_lines(path, (
        f'{{"seg": {seg.seg_id}, '
        f'"tokens": [{", ".join(map(encode_basestring, seg.tokens))}], '
        f'"logp": [{", ".join(map(float.__repr__, seg.logprobs))}]}}'
        for seg in sorted(segments, key=lambda s: s.seg_id)
    ))


SYSTEM_KEYS = ("lang_pair", "system")
SEGMENT_KEYS = ("lang_pair", "system", "seg")


def read_score_table(path, keys) -> dict:
    """Read a score TSV into ``{key tuple: score}``.

    ``keys`` is ``SYSTEM_KEYS`` or ``SEGMENT_KEYS``. The first non-blank line
    is the header; it names the key columns and ``score`` in any order, and
    other columns are ignored. Every row has as many fields as the header.
    Scores are finite floats, ``seg`` values are integers >= 0, and each
    language pair must parse; rows are keyed by its normal form (``DE-EN``
    as ``de-en``).
    """
    keys = tuple(keys)
    if keys not in (SYSTEM_KEYS, SEGMENT_KEYS):
        raise ValueError(f"unknown key columns {keys!r}")
    table = {}
    known_pairs = {}   # text as written -> normal form
    columns = None
    for lineno, raw in read_lines(path):
        if not raw:
            continue
        fields = raw.split("\t")
        if columns is None:
            names = [f.strip() for f in fields]
            for name in (*keys, "score"):
                if names.count(name) != 1:
                    raise ParseError(f"header must name {name!r} once",
                                     path, lineno)
            columns = [names.index(name) for name in (*keys, "score")]
            width = len(fields)
            continue
        if len(fields) != width:
            raise ParseError(f"expected {width} columns, got {len(fields)}",
                             path, lineno)
        *key, score_text = (fields[i] for i in columns)
        try:
            score = float(score_text)
            if not math.isfinite(score):
                raise ValueError(score_text)
        except ValueError as exc:
            raise ParseError(f"non-finite or non-numeric score "
                             f"{score_text!r}", path, lineno) from exc
        if keys == SEGMENT_KEYS:
            try:
                key[2] = int(key[2])
            except ValueError as exc:
                raise ParseError(f"non-integer seg {key[2]!r}",
                                 path, lineno) from exc
            if key[2] < 0:
                raise ParseError(f"negative seg {key[2]}", path, lineno)
        if key[0] not in known_pairs:
            try:
                known_pairs[key[0]] = str(LanguagePair.parse(key[0]))
            except DomainError as exc:
                raise DomainError(f"{path}:{lineno}: {exc}") from exc
        key[0] = known_pairs[key[0]]
        key = tuple(key)
        if key in table:
            raise StructureError(f"{path}:{lineno}: duplicate row for "
                                 + "/".join(str(k) for k in key))
        table[key] = score
    if columns is None:
        raise ParseError("no header line", path)
    return table


def scores_by_pair(table: Mapping) -> dict:
    """Split a ``(lang_pair, system)``-keyed score table into
    ``{lang_pair: {system: score}}`` in one pass."""
    by_pair = {}
    for (lang_pair, system), score in table.items():
        by_pair.setdefault(lang_pair, {})[system] = score
    return by_pair


def same_segments(ids_by_name: Mapping, prefix: str = "") -> list:
    """The sorted segment ids that every entry of ``{name: segment ids}``
    covers: the one rule for which files, systems or samples line up.

    Ids are compared as sorted lists, so a repeated id is a difference. An
    entry whose ids differ from the first entry's is an AlignmentError
    naming it and the first entry, after ``prefix``.
    """
    (first, ids), *others = ids_by_name.items()
    order = sorted(ids)
    for name, other in others:
        if sorted(other) != order:
            raise AlignmentError(
                f"{prefix}{name} and {first} cover different segments")
    return order


def read_lines_with_ids(path, ids_path=None) -> list:
    """Read plain-text segments as (seg_id, text) pairs.

    With ids_path, ids come from the sidecar file (one distinct integer >= 0
    per line, same length); otherwise they are 0-based line numbers.
    """
    lines = [line for _, line in read_lines(path)]
    if ids_path is None:
        return list(enumerate(lines))
    id_lines = [(lineno, line.strip()) for lineno, line in read_lines(ids_path)
                if line.strip()]
    if len(id_lines) != len(lines):
        raise AlignmentError(
            f"{ids_path} has {len(id_lines)} ids for {len(lines)} lines in {path}"
        )
    ids, seen = [], set()
    for lineno, text in id_lines:
        try:
            seg_id = int(text)
        except ValueError as exc:
            raise ParseError(f"bad segment id {text!r}", ids_path, lineno) from exc
        if seg_id < 0:
            raise ParseError(f"negative segment id {seg_id}", ids_path, lineno)
        if seg_id in seen:
            raise ParseError(f"duplicate segment id {seg_id}", ids_path, lineno)
        seen.add(seg_id)
        ids.append(seg_id)
    return list(zip(ids, lines))


def assemble_dataset(outputs: Sequence, human: HumanJudgments) -> EvalDataset:
    """Check that the systems that count, those the human judgments name
    (as ``metaeval.scored_systems`` counts them), cover the same segments,
    and attach the judgments; a system they do not name is kept unchecked,
    and ``scored_systems`` leaves it out.

    Order-insensitive in ``outputs``: any permutation produces an equal
    dataset (systems are stored sorted by name).
    """
    if not outputs:
        raise DomainError("no system outputs given")
    lang_pair = outputs[0].lang_pair
    lp = str(lang_pair)
    ids_by_system = {}
    for out in outputs:
        if out.lang_pair != lang_pair:
            raise AlignmentError(
                f"mixed language pairs: {out.system_name} is {out.lang_pair}, "
                f"expected {lang_pair}"
            )
        if out.system_name in ids_by_system:
            raise StructureError(f"{lp}: system {out.system_name} given twice")
        ids_by_system[out.system_name] = [s.seg_id for s in out.segments]
    named = scores_by_pair(human.system_scores).get(lp, {})
    counted = {system: ids for system, ids in ids_by_system.items()
               if system in named}
    if counted:
        same_segments(counted, f"{lp}: ")
    return EvalDataset(lang_pair, tuple(outputs), human)
