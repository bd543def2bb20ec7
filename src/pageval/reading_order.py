"""Normalized Spearman's footrule distance over a word alignment, with the
index renumbering that cancels the indirect effect of insertions and
deletions on position differences.
"""

from __future__ import annotations

from bisect import bisect_left

from .core import Alignment, EvalError


def renumber(alignment: Alignment, len_x: int, len_y: int) -> Alignment:
    """Recompact real pair indices, skipping deleted/inserted positions.

    Reference positions paired with a dummy are removed from the running
    index count on the reference side, and likewise inserted hypothesis
    positions on the hypothesis side.  Dummy pairs are kept as they are:
    their displacement contribution is fixed at 1, and their own index is
    excluded from the numbering (so it is positionally meaningless in the
    result, which is intended for nsfd only).
    """
    alignment.validate(len_x, len_y)
    deleted = sorted(j for j, k in alignment.pairs if k is None)
    inserted = sorted(k for j, k in alignment.pairs if j is None)
    pairs = []
    for j, k in alignment.pairs:
        if j is None or k is None:
            pairs.append((j, k))
        else:
            pairs.append((j - bisect_left(deleted, j), k - bisect_left(inserted, k)))
    return Alignment(frozenset(pairs))


def nsfd(alignment: Alignment, len_x: int, len_y: int) -> float:
    """Reading-order mismatch: sum of position displacements over floor(N^2/2).

    N is the length of the longer text before renumbering.  Dummy pairs
    contribute exactly 1.  Usually in [0, 1] but not clamped.  For N=1 the
    normalizer floor(N^2/2) would vanish, so it is floored at 1 to keep
    single-word pages defined.
    """
    n = max(len_x, len_y)
    if n == 0:
        raise EvalError("NSFD is undefined when both texts are empty")
    return footrule_total(alignment) / max(1, n * n // 2)


def footrule_total(alignment: Alignment) -> int:
    """Integer displacement sum used by nsfd (dummy pairs count 1)."""
    return sum(
        1 if (j is None or k is None) else abs(j - k) for j, k in alignment.pairs
    )
