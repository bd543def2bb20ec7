"""Per-page metric reports and corpus-level micro-averaged aggregation.

Corpus error rates are micro-averages: integer error accumulators summed
over pages and divided by the total reference size, never a mean of page
rates.  The reading-order distance is instead a weighted average of page
values, weighted by each page's share of the reference words.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import assign, bow, editdist, reading_order
from .core import EditCounts, EmptyReferenceError, EvalError, PageTranscript

DEFAULT_GAMMA = 1.0


@dataclass(frozen=True)
class _Accumulators:
    """Accumulators shared by page and corpus reports: sizes and integer
    error counts, plus the stored beta-WER and NSFD values.  Every rate is
    derived from the counts, so it means the same on a page and a corpus."""

    n_words: int
    n_chars: int
    wer_errors: int
    cer_errors: int
    bwer_errors: int
    hwer_errors: int
    hcer_errors: int
    beta_wer: float
    nsfd: float
    wer_counts: EditCounts
    bwer_counts: EditCounts

    @property
    def wer(self) -> float:
        return self.wer_errors / self.n_words

    @property
    def cer(self) -> float:
        return self.cer_errors / self.n_chars

    @property
    def bwer(self) -> float:
        return self.bwer_errors / self.n_words

    @property
    def hwer(self) -> float:
        return self.hwer_errors / self.n_words

    @property
    def hcer(self) -> float:
        return self.hcer_errors / self.n_chars

    @property
    def delta_wer(self) -> float:
        return self.wer - self.bwer

    @property
    def delta_wer_h(self) -> float:
        return self.wer - self.hwer


@dataclass(frozen=True)
class PageReport(_Accumulators):
    """All metric values plus raw accumulators for one page."""

    page_id: str
    n_hyp_words: int
    dummy_pairs: int
    length_gap: int
    gamma: float
    timings: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CorpusReport(_Accumulators):
    """Micro-averaged corpus metrics over a set of page reports."""

    pages: tuple[PageReport, ...]


def evaluate_page(
    ref: PageTranscript,
    hyp: PageTranscript,
    gamma: float = DEFAULT_GAMMA,
) -> PageReport:
    """Compute the full metric row for one reference/hypothesis page pair.

    All order-aware metrics run on the flattened word sequences; the
    reading-order distance uses the assignment alignment after renumbering.
    Wall-clock per-metric timings (monotonic) are recorded for cost
    analysis.
    """
    x = ref.words
    y = hyp.words
    page_id = ref.page_id or hyp.page_id
    if not x:
        raise EmptyReferenceError(f"page {page_id!r}: empty reference")
    n = len(x)
    timings: dict[str, float] = {}

    try:
        t0 = time.perf_counter()
        # the trace is dropped at once: kept through the hWER stage, it
        # pins the freed word-table memory (~20 MB at 2,000 words)
        wer_dist, wer_counts = editdist.edit_distance(x, y)[:2]
        timings["wer"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        cer_dist = editdist.char_distance(x, y)
        timings["cer"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        _, bwer_counts = bow.bwer(x, y)
        beta = bow.beta_wer(x, y)
        timings["bwer"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        _, alignment = assign.hwer(x, y, gamma)
        timings["hwer"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        renumbered = reading_order.renumber(alignment, n, len(y))
        rho = reading_order.nsfd(renumbered, n, len(y))
        timings["nsfd"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        hcer_dist = assign.hcer_errors(x, y, alignment)
        timings["hcer"] = time.perf_counter() - t0
    except EvalError as exc:
        raise type(exc)(f"page {page_id!r}: {exc}") from exc

    return PageReport(
        page_id=page_id,
        n_words=n,
        n_chars=ref.char_count,
        n_hyp_words=len(y),
        wer_errors=wer_dist,
        cer_errors=cer_dist,
        bwer_errors=bwer_counts.errors,
        hwer_errors=assign.hwer_errors(x, y, alignment),
        hcer_errors=hcer_dist,
        beta_wer=beta,
        nsfd=rho,
        wer_counts=wer_counts,
        bwer_counts=bwer_counts,
        dummy_pairs=alignment.dummy_count,
        length_gap=abs(n - len(y)),
        gamma=gamma,
        timings=timings,
    )


def aggregate(reports: Sequence[PageReport]) -> CorpusReport:
    """Fold page reports into corpus metrics.

    Error rates divide summed accumulators by summed reference sizes; the
    reading-order distance is weighted by reference word share (weights sum
    to 1).
    """
    if not reports:
        raise EvalError("cannot aggregate an empty report list")
    n_words = sum(r.n_words for r in reports)
    return CorpusReport(
        pages=tuple(reports),
        n_words=n_words,
        n_chars=sum(r.n_chars for r in reports),
        wer_errors=sum(r.wer_errors for r in reports),
        cer_errors=sum(r.cer_errors for r in reports),
        bwer_errors=sum(r.bwer_errors for r in reports),
        hwer_errors=sum(r.hwer_errors for r in reports),
        hcer_errors=sum(r.hcer_errors for r in reports),
        # bag distance recovered exactly from the integer bWER accumulators
        beta_wer=sum(2 * r.bwer_errors - r.length_gap for r in reports) / n_words,
        nsfd=sum(r.nsfd * (r.n_words / n_words) for r in reports),
        wer_counts=sum((r.wer_counts for r in reports), EditCounts()),
        bwer_counts=sum((r.bwer_counts for r in reports), EditCounts()),
    )
