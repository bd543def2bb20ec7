"""Bag-of-words distance and error rates.

Word identity is exact string equality (case- and diacritic-sensitive); no
normalization is applied.  Everything here is O(|x| + |y|) by hashing, and
trivially invariant to any permutation of either side.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .core import EditCounts, EmptyReferenceError


def bag_distance(x: Sequence[str], y: Sequence[str]) -> int:
    """Total multiset frequency discrepancy between the two sides.

    Interpretable as the insertions plus deletions needed to turn x into y
    when substitutions are not allowed.
    """
    f = Counter(x)
    f.subtract(y)
    return sum(map(abs, f.values()))


def beta_wer(x: Sequence[str], y: Sequence[str]) -> float:
    """Naive bag-of-words error rate: bag_distance / |x|."""
    if len(x) == 0:
        raise EmptyReferenceError("beta-WER is undefined for an empty reference")
    return bag_distance(x, y) / len(x)


def bwer(x: Sequence[str], y: Sequence[str]) -> tuple[float, EditCounts]:
    """Bag-of-words WER with avoidable insertion/deletion pairs recast as
    substitutions: (b + B) / (2N) with b = ||x| - |y||.

    The rate is bwer_errors / N: B - b is always even, so that equals
    (b + B) / (2N) exactly, and int / int division rounds both the same.
    The derived counts attribute the b unavoidable operations as deletions
    when the reference is longer, insertions when the hypothesis is longer;
    the other bwer_errors - b errors are substitutions.
    """
    n = len(x)
    if n == 0:
        raise EmptyReferenceError("bWER is undefined for an empty reference")
    errors = bwer_errors(x, y)
    b = abs(n - len(y))
    dels = b if n > len(y) else 0
    ins = b if len(y) > n else 0
    subs = errors - b
    counts = EditCounts(ins, subs, dels, n - dels - subs)
    return errors / n, counts


def bwer_errors(x: Sequence[str], y: Sequence[str]) -> int:
    """Integer numerator of bWER: b + (B - b) // 2, with B the bag distance
    and b = ||x| - |y||."""
    big_b = bag_distance(x, y)
    b = abs(len(x) - len(y))
    return b + (big_b - b) // 2
