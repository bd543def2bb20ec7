"""Domain types shared by the metric modules: page transcripts, edit counts,
traces and alignments, plus tokenization of raw page text.

A "word" here is whatever sits between runs of whitespace; no further
tokenization is applied, so punctuation stays attached to words.  Character
counts are in Unicode scalar values.  When words are joined into a single
string (page- or line-level character metrics), exactly one space separates
consecutive words, across line boundaries as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

class EvalError(Exception):
    """Base class for evaluation errors."""


class IngestionError(EvalError):
    """Raised when raw page bytes cannot be decoded or tokenized."""


class EmptyReferenceError(EvalError):
    """Raised when a metric is undefined because the reference is empty."""


class StructureError(EvalError):
    """Raised when inputs are structurally incompatible (line counts,
    alignment indices out of range, ...)."""


def _check_token(tok: str) -> str:
    if not isinstance(tok, str) or not tok:
        raise StructureError(f"word tokens must be non-empty strings, got {tok!r}")
    # str.split() breaks at exactly the characters str.isspace() accepts
    if tok.split() != [tok]:
        raise StructureError(f"word token contains whitespace: {tok!r}")
    return tok


def _check_line(line: Iterable[str]) -> tuple[str, ...]:
    # iterating a string would split it into one-letter words
    if isinstance(line, str):
        raise StructureError(f"a line must be a sequence of words, got the string {line!r}")
    return tuple(_check_token(w) for w in line)


@dataclass(frozen=True)
class PageTranscript:
    """Ordered text lines of one page, each line an ordered tuple of words.

    Immutable after construction; safe to share across workers.
    """

    lines: tuple[tuple[str, ...], ...]
    page_id: str = ""

    def __post_init__(self) -> None:
        lines = tuple(_check_line(line) for line in self.lines)
        object.__setattr__(self, "lines", lines)

    @property
    def words(self) -> tuple[str, ...]:
        """Page word sequence: lines concatenated in reading order."""
        return tuple(w for line in self.lines for w in line)

    @property
    def word_count(self) -> int:
        return sum(len(line) for line in self.lines)

    @property
    def line_count(self) -> int:
        return len(self.lines)

    @property
    def char_count(self) -> int:
        """Unicode scalar count of the joined page text, one space per
        inter-word gap."""
        n = self.word_count
        return sum(len(w) for line in self.lines for w in line) + max(0, n - 1)

    def text(self) -> str:
        """Page text with single-space separators (line breaks included)."""
        return "\n".join(" ".join(line) for line in self.lines)


def tokenize_page(raw: str | bytes, page_id: str = "") -> PageTranscript:
    """Split raw page text into a PageTranscript.

    Each physical input line is split on runs of Unicode whitespace; empty
    lines are kept as empty token tuples.  Bytes input must be valid UTF-8.
    A leading byte-order mark is dropped; a decoding error reports its
    offset in the input, BOM included.
    """
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IngestionError(
                f"page {page_id!r}: invalid UTF-8 at byte offset {exc.start}"
            ) from exc
    raw = raw.removeprefix("\ufeff")
    lines = tuple(tuple(line.split()) for line in raw.splitlines())
    return PageTranscript(lines=lines, page_id=page_id)


def join_words(words: Sequence[str]) -> str:
    """Join words with single spaces (the character-metric convention)."""
    return " ".join(words)


@dataclass(frozen=True)
class EditCounts:
    """Insertion/substitution/deletion/correct counts for one comparison."""

    insertions: int = 0
    substitutions: int = 0
    deletions: int = 0
    correct: int = 0

    def __post_init__(self) -> None:
        for name in ("insertions", "substitutions", "deletions", "correct"):
            if getattr(self, name) < 0:
                raise StructureError(f"{name} must be >= 0")

    @property
    def errors(self) -> int:
        return self.insertions + self.substitutions + self.deletions

    @property
    def reference_length(self) -> int:
        return self.correct + self.substitutions + self.deletions

    @property
    def hypothesis_length(self) -> int:
        return self.correct + self.substitutions + self.insertions

    def __add__(self, other: "EditCounts") -> "EditCounts":
        return EditCounts(
            self.insertions + other.insertions,
            self.substitutions + other.substitutions,
            self.deletions + other.deletions,
            self.correct + other.correct,
        )


def _check_pairs(
    pairs: Iterable["tuple[int | None, int | None]"],
    len_x: int | None,
    len_y: int | None,
) -> None:
    seen_x: set[int] = set()
    seen_y: set[int] = set()
    for j, k in pairs:
        if j is None and k is None:
            raise StructureError("dummy-dummy pairs are not allowed")
        if j is not None:
            if j in seen_x:
                raise StructureError(f"reference index {j} appears twice")
            if j < 0 or (len_x is not None and j >= len_x):
                raise StructureError(f"reference index {j} out of range")
            seen_x.add(j)
        if k is not None:
            if k in seen_y:
                raise StructureError(f"hypothesis index {k} appears twice")
            if k < 0 or (len_y is not None and k >= len_y):
                raise StructureError(f"hypothesis index {k} out of range")
            seen_y.add(k)


@dataclass(frozen=True)
class Trace:
    """Sequential word alignment underlying the edit distance.

    Non-dummy pairs are strictly increasing on both sides; each real index
    appears exactly once.  Indices are 0-based; None marks the dummy side of
    an insertion or deletion.
    """

    pairs: tuple["tuple[int | None, int | None]", ...]

    def validate(self, len_x: int | None = None, len_y: int | None = None) -> None:
        _check_pairs(self.pairs, len_x, len_y)
        last_j = last_k = -1
        for j, k in self.pairs:
            if j is not None:
                if j < last_j:
                    raise StructureError("trace is not sequential on the reference side")
                last_j = j
            if k is not None:
                if k < last_k:
                    raise StructureError("trace is not sequential on the hypothesis side")
                last_k = k


@dataclass(frozen=True)
class Alignment:
    """Unconstrained one-to-one word alignment (no sequentiality).

    Each real reference index and each real hypothesis index appears at most
    once; dummy-dummy pairs are stripped before an Alignment is built.
    """

    pairs: frozenset = field(default_factory=frozenset)

    def validate(self, len_x: int | None = None, len_y: int | None = None) -> None:
        _check_pairs(self.pairs, len_x, len_y)

    def sorted_pairs(self) -> list["tuple[int | None, int | None]"]:
        """Pairs ordered by reference index (dummy ref pairs last)."""
        return sorted(
            self.pairs,
            key=lambda p: (p[0] is None, p[0] if p[0] is not None else p[1]),
        )

    @property
    def dummy_count(self) -> int:
        """Number of one-sided (insertion or deletion) pairs."""
        return sum(1 for j, k in self.pairs if j is None or k is None)
