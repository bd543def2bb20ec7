"""Golden-file checks: the CLI's reports on a seeded fixture corpus must
reproduce the committed files byte for byte.  Pinned outputs: the
`eval --per-page` JSON report, the `eval --per-page --format tsv` table, the
`sweep.tsv` tables of line-swap, line-split, word-level and line-level
character-noise sweeps, and every file (pages and manifest.json) that a
line-swap and a line-split `simulate` run writes.

The corpus is built here from its own seeded generator, so the golden files
depend only on the metric code.  It mixes ASCII, non-ASCII and
hypothesis-only characters, and words on both sides of 64 characters, so the
pair-cost table's fast and fallback paths both feed the reports.

Regenerate (only when a metric is meant to change) with:
    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from pageval.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

_VOCAB_CHARS = "abcdefghijklmnoprstuvwyäöüßéΩж"
_HYP_ONLY_CHARS = "qxz#ЯÆ"


def _word(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice(_VOCAB_CHARS) for _ in range(rng.randint(lo, hi)))


def _noisy(rng: random.Random, word: str) -> str:
    chars = list(word)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(3)
        pos = rng.randrange(len(chars) + (op == 1))
        new = rng.choice(_VOCAB_CHARS + _HYP_ONLY_CHARS)
        if op == 0 and chars:
            chars[min(pos, len(chars) - 1)] = new
        elif op == 1:
            chars.insert(pos, new)
        elif len(chars) > 1:
            del chars[min(pos, len(chars) - 1)]
    return "".join(chars)


def fixture_corpus(seed: int = 11) -> dict[str, tuple[str, str]]:
    """Page name -> (reference text, hypothesis text)."""
    rng = random.Random(seed)
    vocab = [_word(rng, 1, 9) for _ in range(60)]
    vocab += [_word(rng, 63, 66) for _ in range(3)] + [_word(rng, 78, 82)]
    pages = {}
    for p in range(6):
        ref_lines = [
            [rng.choice(vocab) for _ in range(rng.randint(3, 7))]
            for _ in range(rng.randint(4, 9))
        ]
        hyp_lines = []
        for line in ref_lines:
            out = []
            for w in line:
                r = rng.random()
                if r < 0.15:
                    out.append(_noisy(rng, w))
                elif r < 0.20:
                    continue  # deleted word
                else:
                    out.append(w)
                if rng.random() < 0.05:
                    out.append(_word(rng, 2, 6))  # inserted word
            hyp_lines.append(out)
        for _ in range(2):  # a few line swaps
            a, b = rng.randrange(len(hyp_lines)), rng.randrange(len(hyp_lines))
            hyp_lines[a], hyp_lines[b] = hyp_lines[b], hyp_lines[a]
        name = f"vol{p % 2}/page{p:02d}.txt"
        pages[name] = (
            "\n".join(" ".join(l) for l in ref_lines) + "\n",
            "\n".join(" ".join(l) for l in hyp_lines if l) + "\n",
        )
    return pages


def _write_fixture(tmp: Path) -> None:
    for name, (ref_text, hyp_text) in fixture_corpus().items():
        for side, text in (("ref", ref_text), ("hyp", hyp_text)):
            path = tmp / side / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


def _eval(tmp: Path, *extra: str) -> bytes:
    out = tmp / "report"
    code = main(["eval", "--ref", str(tmp / "ref"), "--hyp", str(tmp / "hyp"),
                 "--out", str(out), "--per-page", *extra])
    assert code == 0
    return out.read_bytes()


def _simulate(tmp: Path, *extra: str) -> Path:
    out_dir = tmp / "sim"
    code = main(["simulate", "--ref", str(tmp / "ref"), "--out-dir", str(out_dir),
                 "--seed", "5", *extra])
    assert code == 0
    return out_dir


def _sweep(tmp: Path, *extra: str) -> bytes:
    return (_simulate(tmp, *extra) / "sweep.tsv").read_bytes()


def _distort(tmp: Path, *extra: str) -> bytes:
    """Every file the run writes, in path order, each after a header line."""
    out_dir = _simulate(tmp, *extra)
    return b"".join(
        f"==> {path.relative_to(out_dir).as_posix()} <==\n".encode() + path.read_bytes()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    )


# golden file name -> report command on the fixture corpus
CASES = {
    "eval_per_page.json": lambda tmp: _eval(tmp),
    "eval_per_page.tsv": lambda tmp: _eval(tmp, "--format", "tsv"),
    "sweep_swap.tsv": lambda tmp: _sweep(
        tmp, "--mode", "swap", "--swap-range", "1", "3", "--sweep", "3"
    ),
    "sweep_char_word.tsv": lambda tmp: _sweep(tmp, "--mode", "char-word", "--sweep", "2"),
    "sweep_split.tsv": lambda tmp: _sweep(tmp, "--mode", "split", "--sweep", "4"),
    "sweep_char_line.tsv": lambda tmp: _sweep(tmp, "--mode", "char-line", "--sweep", "3"),
    "simulate_swap.txt": lambda tmp: _distort(
        tmp, "--mode", "swap", "--swaps", "2", "--swap-range", "1", "3"
    ),
    "simulate_split.txt": lambda tmp: _distort(tmp, "--mode", "split", "--splits", "3"),
}


def _report(name: str, tmp: Path) -> bytes:
    _write_fixture(tmp)
    return CASES[name](tmp)


def test_eval_per_page_matches_golden(tmp_path):
    name = "eval_per_page.json"
    assert _report(name, tmp_path) == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.endswith(".tsv")))
def test_tsv_report_matches_golden(name, tmp_path):
    assert _report(name, tmp_path) == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("simulate_")))
def test_simulate_output_matches_golden(name, tmp_path):
    assert _report(name, tmp_path) == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    if "--write" not in sys.argv[1:]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN_DIR / name).write_bytes(_report(name, Path(tmp)))
        print(f"wrote {GOLDEN_DIR / name}")
