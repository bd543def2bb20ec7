"""Seeded corpora for the benchmark workloads.

Reference pages draw their words from a fixed 5,000-word Zipf vocabulary
(lowercase words of 2-8 letters made with ``random.Random(1)``); the page
words themselves come from the benchmark seed.  Hypotheses come from
``pageval.simulate``: word-level character noise (seed 3), then line swaps
(seed 4).  The vocabulary stays Zipf on purpose: a high-entropy vocabulary
moves the hWER cost from the assignment solve into the pair table.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

ALPHABET = "abcdefghijklmnopqrstuvwxyz"
VOCAB_SIZE = 5000
VOCAB_SEED = 1
NOISE_SEED = 3
SWAP_SEED = 4


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json says why each was chosen."""

    name: str
    pages: int  # pages per corpus, i.e. per `pageval` call
    lines: int
    words_per_line: int
    smoke_pages: int  # the smoke check's smallest size: pages and lines per page
    smoke_lines: int
    tcer_step: int = 0
    swaps: int = 0
    swap_range: tuple[int, int] = (1, 1)
    sweep: int | None = None  # set: `pageval simulate --sweep`, else `pageval eval`
    # Distinct corpora per run; calls cycle through them.  Several one-page
    # corpora let a run take the median over pages as well as over calls.
    corpora: int = 1

    def scored_passes(self) -> int:
        """How many times each reference word is scored per invocation."""
        return 1 if self.sweep is None else self.sweep + 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="typical",
            pages=12,
            lines=30,
            words_per_line=10,
            smoke_pages=2,
            smoke_lines=5,
            corpora=8,
            tcer_step=2,
            swaps=3,
            swap_range=(1, 4),
        ),
        Workload(
            name="long-pages",
            pages=1,
            lines=100,
            words_per_line=20,
            smoke_pages=1,
            smoke_lines=5,
            corpora=4,
            tcer_step=6,
            swaps=10,
            swap_range=(1, 20),
        ),
        Workload(
            name="short-sweep",
            pages=16,
            lines=6,
            words_per_line=8,
            smoke_pages=2,
            smoke_lines=6,
            corpora=5,
            sweep=8,
        ),
    )
}


def _random_word(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(2, 8)))


def vocabulary() -> tuple[list[str], list[float]]:
    """The fixed vocabulary and its cumulative Zipf weights (exponent 1)."""
    rng = random.Random(VOCAB_SEED)
    words = [_random_word(rng) for _ in range(VOCAB_SIZE)]
    cum = list(itertools.accumulate(1.0 / rank for rank in range(1, VOCAB_SIZE + 1)))
    return words, cum


def reference_pages(w: Workload, seed: int, index: int, smoke: bool = False) -> list:
    """Reference PageTranscripts of corpus `index` of workload `w`."""
    from pageval.core import PageTranscript

    words, cum = vocabulary()
    rng = random.Random(f"{w.name}:{seed}:{index}")
    pages = []
    n_pages, n_lines = (w.smoke_pages, w.smoke_lines) if smoke else (w.pages, w.lines)
    for i in range(n_pages):
        lines = tuple(
            tuple(rng.choices(words, cum_weights=cum, k=w.words_per_line))
            for _ in range(n_lines)
        )
        pages.append(PageTranscript(lines, f"p{i:04d}.txt"))
    return pages


def hypothesis_pages(w: Workload, refs: list) -> list:
    """Noisy, line-swapped hypotheses for an eval workload."""
    from pageval import simulate

    noisy, _ = simulate.distort_corpus(
        refs,
        simulate.DistortionConfig(
            mode=simulate.WORD_LEVEL, seed=NOISE_SEED, tcer_step=w.tcer_step
        ),
    )
    swapped, _ = simulate.distort_corpus(
        noisy,
        simulate.DistortionConfig(
            mode=simulate.LINE_SWAP,
            seed=SWAP_SEED,
            swaps=w.swaps,
            swap_range=w.swap_range,
        ),
    )
    return swapped


def write_pages(pages: list, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for page in pages:
        (out_dir / page.page_id).write_text(page.text() + "\n", encoding="utf-8")


def cli_args(w: Workload, corpus: Path, out: Path) -> list[str]:
    """`pageval` arguments for one invocation on a corpus written by `write_corpus`.

    Every call runs in one process (``--jobs 1``) on one CPU, which the
    driver shares to sample the host's pace (run.py): with ``--jobs 2`` the
    pool's two CPUs drift apart and no single pace reading matched them.
    """
    if w.sweep is not None:
        return [
            "simulate", "--ref", str(corpus / "ref"), "--out-dir", str(out),
            "--mode", "char-word", "--sweep", str(w.sweep),
        ]
    return [
        "eval", "--ref", str(corpus / "ref"), "--hyp", str(corpus / "hyp"),
        "--per-page", "--jobs", "1", "--out", str(out),
    ]


def write_corpus(w: Workload, seed: int, index: int, corpus: Path, smoke: bool = False) -> tuple:
    """Write the input files of corpus `index` under `corpus`.

    Returns (references, hypotheses); hypotheses is None for a sweep, whose
    hypotheses `pageval simulate` makes itself.
    """
    refs = reference_pages(w, seed, index, smoke)
    write_pages(refs, corpus / "ref")
    hyps = None
    if w.sweep is None:
        hyps = hypothesis_pages(w, refs)
        write_pages(hyps, corpus / "hyp")
    return refs, hyps
