"""Reference error counts for the benchmark's correctness check.

Independent of the package under test (this module imports nothing from
``pageval``): edit distances come from a row-at-a-time Wagner-Fischer DP in
NumPy, where the left-neighbour dependency of a row is folded into a running
minimum, ``D[i][j] = min_k<=j (cand[k] - k) + j``.  The library instead uses a
pure-Python word DP and a bit-parallel character engine.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np


def page_words(text: str) -> list[str]:
    """Word sequence of a page file: whitespace-separated tokens, lines in order."""
    return [w for line in text.splitlines() for w in line.split()]


def levenshtein(a: np.ndarray, b: np.ndarray) -> int:
    """Unit-cost edit distance between two integer sequences."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return n + m
    offsets = np.arange(m + 1, dtype=np.int64)
    row = offsets.copy()
    cand = np.empty(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        cand[0] = i
        np.minimum(row[:-1] + (b != a[i - 1]), row[1:] + 1, out=cand[1:])
        row = np.minimum.accumulate(cand - offsets) + offsets
    return int(row[-1])


def _word_codes(x: Sequence[str], y: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    codes: dict[str, int] = {}
    cx = np.array([codes.setdefault(w, len(codes)) for w in x], dtype=np.int64)
    cy = np.array([codes.setdefault(w, len(codes)) for w in y], dtype=np.int64)
    return cx, cy


def _char_codes(words: Sequence[str]) -> np.ndarray:
    return np.array([ord(c) for c in " ".join(words)], dtype=np.int64)


def error_counts(x: Sequence[str], y: Sequence[str]) -> dict[str, int]:
    """Integer WER, CER and bWER numerators of reference `x` vs hypothesis `y`.

    bWER's numerator is (b + B) / 2, with B the multiset frequency
    discrepancy and b the length gap; B - b is always even.
    """
    fx, fy = Counter(x), Counter(y)
    big_b = sum(abs(fx[w] - fy[w]) for w in set(fx) | set(fy))
    b = abs(len(x) - len(y))
    return {
        "wer": levenshtein(*_word_codes(x, y)),
        "cer": levenshtein(_char_codes(x), _char_codes(y)),
        "bwer": (b + big_b) // 2,
    }


def char_count(words: Sequence[str]) -> int:
    """Characters of the single-space-joined page text."""
    return sum(len(w) for w in words) + max(0, len(words) - 1)
