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
  * system outputs / references: plain text, one segment per line, ids either
    implicit (0-based line number) or from a sidecar id file.

All types are immutable after construction and safe to share across workers.
Log-probabilities are natural logs (nats) throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    AlignmentError,
    DomainError,
    ParseError,
    StructureError,
)


@dataclass(frozen=True, order=True)
class LanguagePair:
    source: str
    target: str

    def __post_init__(self):
        for name in ("source", "target"):
            code = getattr(self, name)
            norm = code.strip().lower()
            if len(norm) < 2 or not norm.isalpha():
                raise DomainError(f"bad language code {code!r}")
            object.__setattr__(self, name, norm)
        if self.source == self.target:
            raise DomainError(f"source and target coincide: {self.source}")

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


@dataclass(frozen=True)
class SegmentPair:
    seg_id: int
    source_text: str
    target_text: str

    def __post_init__(self):
        if self.seg_id < 0:
            raise DomainError(f"negative seg_id {self.seg_id}")


@dataclass(frozen=True)
class TokenScoredSegment:
    """Tokens of one hypothesis segment with their log-probabilities."""

    seg_id: int
    tokens: tuple
    logprobs: tuple

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "logprobs", tuple(float(v) for v in self.logprobs))
        if len(self.tokens) != len(self.logprobs):
            raise StructureError(
                f"segment {self.seg_id}: {len(self.tokens)} tokens vs "
                f"{len(self.logprobs)} log-probs"
            )
        if len(self.tokens) == 0:
            raise StructureError(f"segment {self.seg_id} is empty")
        for v in self.logprobs:
            if not math.isfinite(v):
                raise DomainError(f"segment {self.seg_id}: non-finite log-prob {v}")
            if v > 0.0:
                raise DomainError(f"segment {self.seg_id}: positive log-prob {v}")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class SystemOutput:
    system_name: str
    lang_pair: LanguagePair
    segments: tuple
    token_scores: Optional[tuple] = None

    def __post_init__(self):
        segs = tuple(sorted(self.segments, key=lambda s: s.seg_id))
        object.__setattr__(self, "segments", segs)
        ids = [s.seg_id for s in segs]
        if len(set(ids)) != len(ids):
            raise StructureError(f"{self.system_name}: duplicate seg_id in segments")
        if self.token_scores is not None:
            scores = tuple(sorted(self.token_scores, key=lambda s: s.seg_id))
            object.__setattr__(self, "token_scores", scores)
            if {s.seg_id for s in scores} != set(ids):
                raise AlignmentError(
                    f"{self.system_name}: token-score seg_ids do not match segments"
                )

    @property
    def seg_ids(self) -> frozenset:
        return frozenset(s.seg_id for s in self.segments)


@dataclass(frozen=True)
class HumanJudgments:
    """System-level human scores: ``system_scores`` maps (lang_pair, system)
    to a score."""

    system_scores: Mapping

    def __post_init__(self):
        object.__setattr__(self, "system_scores", dict(self.system_scores))


@dataclass(frozen=True)
class EvalDataset:
    """Aligned system outputs for one language pair, with human judgments."""

    lang_pair: LanguagePair
    systems: tuple
    human: HumanJudgments

    def __post_init__(self):
        systems = tuple(sorted(self.systems, key=lambda s: s.system_name))
        object.__setattr__(self, "systems", systems)
        if len(systems) < 2:
            raise StructureError("an evaluation dataset needs at least 2 systems")

    @property
    def seg_ids(self) -> list:
        return sorted(self.systems[0].seg_ids)

    @property
    def system_names(self) -> list:
        return [s.system_name for s in self.systems]


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

    Every line is built before the file is opened, so an error while
    building them leaves no new file and does not truncate an old one.
    """
    text = "".join(f"{line}\n" for line in lines)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_token_scores(path) -> list:
    """Read a token-score JSONL file, sorted by seg_id."""
    segments = []
    seen = set()
    for lineno, raw in read_lines(path):
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON ({exc.msg})", path, lineno) from exc
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
    segments.sort(key=lambda s: s.seg_id)
    return segments


def write_token_scores(path, segments: Iterable) -> None:
    """Write token-score JSONL; floats keep shortest round-trip precision."""
    write_lines(path, (
        json.dumps({"seg": seg.seg_id, "tokens": list(seg.tokens),
                    "logp": list(seg.logprobs)}, ensure_ascii=False)
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


def load_human_scores(path) -> HumanJudgments:
    """Read a system-level human score TSV."""
    return HumanJudgments(read_score_table(path, SYSTEM_KEYS))


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
    """Validate alignment across systems and attach human judgments.

    Order-insensitive in ``outputs``: any permutation produces an equal
    dataset (systems are stored sorted by name).
    """
    if not outputs:
        raise DomainError("no system outputs given")
    lang_pair = outputs[0].lang_pair
    for out in outputs:
        if out.lang_pair != lang_pair:
            raise AlignmentError(
                f"mixed language pairs: {out.system_name} is {out.lang_pair}, "
                f"expected {lang_pair}"
            )
    base = outputs[0].seg_ids
    misaligned = sorted(
        out.system_name for out in outputs if out.seg_ids != base
    )
    if misaligned:
        raise AlignmentError(
            "segment ids differ across systems: " + ", ".join(misaligned)
        )
    lp = str(lang_pair)
    missing = sorted(
        out.system_name
        for out in outputs
        if (lp, out.system_name) not in human.system_scores
    )
    if missing:
        raise StructureError(
            f"{lp}: no human system score for: " + ", ".join(missing)
        )
    return EvalDataset(lang_pair, tuple(outputs), human)
