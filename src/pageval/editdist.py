"""Levenshtein edit distance with backtrace at word and character level,
and the line-based / concatenation-based page-level WER (with CER helpers).

All edit operations have unit cost.  Backtrace tie-breaking prefers
match/substitution over deletion over insertion, which keeps traces and
operation counts deterministic; the distance itself is tie-independent.

Engines: a plain-Python full-table DP for word sequences (needed for the
backtrace); a vectorized anti-diagonal DP for character strings, which
propagates (ins, sub, del) counts without storing the table; a bigint
bit-parallel (Myers) distance for page-sized strings when only the distance
is needed; and a memoized two-row DP, `levenshtein`, kept as a public
helper.  The assignment pair costs come from the batched bit-parallel kernel
in `assign`, which falls back to `_myers_distance` for long words.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import (
    EditCounts,
    EmptyReferenceError,
    PageTranscript,
    StructureError,
    Trace,
    join_words,
)


def edit_distance(
    x: Sequence[str], y: Sequence[str]
) -> tuple[int, EditCounts, Trace]:
    """Word-level edit distance from x to y with counts and trace.

    Returns (distance, EditCounts, Trace); distance == counts.errors and the
    trace replays x into y.  O(|x|*|y|) time and memory.
    """
    n, m = len(x), len(y)
    # distance table, row-major lists (cheap enough for word sequences)
    dist: list[list[int]] = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    row0 = dist[0]
    for j in range(1, m + 1):
        row0[j] = j
    for i in range(1, n + 1):
        xi = x[i - 1]
        prev = dist[i - 1]
        cur = dist[i]
        for j in range(1, m + 1):
            d = prev[j - 1] + (xi != y[j - 1])
            u = prev[j] + 1
            if u < d:
                d = u
            l = cur[j - 1] + 1
            if l < d:
                d = l
            cur[j] = d

    # backtrace, preferring diagonal, then deletion, then insertion
    pairs: list[tuple[int | None, int | None]] = []
    ins = sub = dele = corr = 0
    i, j = n, m
    while i > 0 or j > 0:
        here = dist[i][j]
        if i > 0 and j > 0 and here == dist[i - 1][j - 1] + (x[i - 1] != y[j - 1]):
            if x[i - 1] == y[j - 1]:
                corr += 1
            else:
                sub += 1
            pairs.append((i - 1, j - 1))
            i -= 1
            j -= 1
        elif i > 0 and here == dist[i - 1][j] + 1:
            dele += 1
            pairs.append((i - 1, None))
            i -= 1
        else:
            ins += 1
            pairs.append((None, j - 1))
            j -= 1
    pairs.reverse()
    counts = EditCounts(ins, sub, dele, corr)
    return dist[n][m], counts, Trace(tuple(pairs))


def _char_dp_counts(a: str, b: str) -> tuple[int, EditCounts]:
    """Anti-diagonal Levenshtein over Unicode scalars with count propagation.

    Cells on diagonal t depend only on diagonals t-1 and t-2, so each step is
    a handful of vector operations.  Per-cell ties resolve in the same
    priority order as the word backtrace (diagonal, deletion, insertion).
    """
    n, m = len(a), len(b)
    if n == 0:
        return m, EditCounts(insertions=m)
    if m == 0:
        return n, EditCounts(deletions=n)
    xa = np.frombuffer(a.encode("utf-32-le"), dtype=np.uint32)
    yb = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)

    BIG = np.int64(1) << 40
    # state per diagonal: distance + the three counts, indexed by row i
    d1 = np.array([1, 1], dtype=np.int64)  # t=1: cells (0,1) and (1,0)
    i1 = np.array([1, 0], dtype=np.int64)
    s1 = np.array([0, 0], dtype=np.int64)
    l1 = np.array([0, 1], dtype=np.int64)
    lo1 = 0
    d2 = np.array([0], dtype=np.int64)  # t=0: cell (0,0)
    i2 = np.array([0], dtype=np.int64)
    s2 = np.array([0], dtype=np.int64)
    l2 = np.array([0], dtype=np.int64)
    lo2 = 0
    # adjust t=1 boundary when one string has length < 1 handled above
    for t in range(2, n + m + 1):
        lo = max(0, t - m)
        hi = min(n, t)
        rows = np.arange(lo, hi + 1)
        size = rows.shape[0]
        cd = np.full(size, BIG, dtype=np.int64)
        cu = np.full(size, BIG, dtype=np.int64)
        cl = np.full(size, BIG, dtype=np.int64)

        # diagonal predecessor (i-1, j-1) lives on diagonal t-2
        pv = rows - 1 - lo2
        ok = (rows >= 1) & (t - rows >= 1) & (pv >= 0) & (pv < d2.shape[0])
        ia = rows - 1
        jb = t - rows - 1
        cost = np.ones(size, dtype=np.int64)
        eq = np.zeros(size, dtype=bool)
        eq[ok] = xa[ia[ok]] == yb[jb[ok]]
        cost[eq] = 0
        cd[ok] = d2[np.clip(pv, 0, d2.shape[0] - 1)][ok] + cost[ok]

        # deletion predecessor (i-1, j) on diagonal t-1
        pv = rows - 1 - lo1
        ok_u = (rows >= 1) & (t - rows <= m) & (pv >= 0) & (pv < d1.shape[0])
        cu[ok_u] = d1[np.clip(pv, 0, d1.shape[0] - 1)][ok_u] + 1

        # insertion predecessor (i, j-1) on diagonal t-1
        pv = rows - lo1
        ok_l = (t - rows >= 1) & (pv >= 0) & (pv < d1.shape[0])
        cl[ok_l] = d1[np.clip(pv, 0, d1.shape[0] - 1)][ok_l] + 1

        choice = np.where(cd <= np.minimum(cu, cl), 0, np.where(cu <= cl, 1, 2))
        nd = np.where(choice == 0, cd, np.where(choice == 1, cu, cl))

        ni = np.zeros(size, dtype=np.int64)
        ns = np.zeros(size, dtype=np.int64)
        nl = np.zeros(size, dtype=np.int64)
        pv = np.clip(rows - 1 - lo2, 0, d2.shape[0] - 1)
        mk = choice == 0
        ni[mk] = i2[pv[mk]]
        ns[mk] = s2[pv[mk]] + cost[mk]
        nl[mk] = l2[pv[mk]]
        pv = np.clip(rows - 1 - lo1, 0, d1.shape[0] - 1)
        mk = choice == 1
        ni[mk] = i1[pv[mk]]
        ns[mk] = s1[pv[mk]]
        nl[mk] = l1[pv[mk]] + 1
        pv = np.clip(rows - lo1, 0, d1.shape[0] - 1)
        mk = choice == 2
        ni[mk] = i1[pv[mk]] + 1
        ns[mk] = s1[pv[mk]]
        nl[mk] = l1[pv[mk]]

        d2, i2, s2, l2, lo2 = d1, i1, s1, l1, lo1
        d1, i1, s1, l1, lo1 = nd, ni, ns, nl, lo

    dist = int(d1[-1])  # cell (n, m) is the last row of the final diagonal
    ins, sub, dele = int(i1[-1]), int(s1[-1]), int(l1[-1])
    return dist, EditCounts(ins, sub, dele, n - sub - dele)


def _myers_distance(a: str, b: str) -> int:
    """Bit-parallel Levenshtein distance (Myers/Hyyro), O(n*m/wordsize).

    Distance only, no counts; Python integers serve as unbounded bit
    vectors so any pattern length works.  Used for page-sized strings where
    the counting DP would be needlessly slow, and by the assignment pair
    table for words too long for its 64-bit lanes.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a
    m = len(a)
    full = (1 << m) - 1
    last = 1 << (m - 1)
    peq: dict[str, int] = {}
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | (1 << i)
    vp = full
    vn = 0
    score = m
    for c in b:
        x = peq.get(c, 0) | vn
        d0 = ((((x & vp) + vp) ^ vp) | x) & full
        hp = vn | (~(d0 | vp) & full)
        hn = d0 & vp
        if hp & last:
            score += 1
        elif hn & last:
            score -= 1
        hp = ((hp << 1) | 1) & full
        hn = (hn << 1) & full
        vp = hn | (~(d0 | hp) & full)
        vn = d0 & hp
    return score


def char_distance(x: Sequence[str], y: Sequence[str]) -> int:
    """Character-level edit distance between two word sequences, distance
    only (single-space join convention, same as char_edit_distance)."""
    return _myers_distance(join_words(x), join_words(y))


@lru_cache(maxsize=1 << 18)
def levenshtein(a: str, b: str) -> int:
    """Plain character-level Levenshtein distance (two-row DP, memoized).

    A public convenience for single string pairs; no metric path calls it
    (the assignment matrix batches its word pairs in `assign`).
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        append = cur.append
        for j, cb in enumerate(b, 1):
            d = prev[j - 1] + (ca != cb)
            u = prev[j] + 1
            if u < d:
                d = u
            l = cur[j - 1] + 1
            if l < d:
                d = l
            append(d)
        prev = cur
    return prev[-1]


def char_edit_distance(
    x: Sequence[str], y: Sequence[str]
) -> tuple[int, EditCounts]:
    """Character-level edit distance between two word sequences.

    The sequences are joined with single spaces first, so the separator
    spaces count as characters on both sides.
    """
    return _char_dp_counts(join_words(x), join_words(y))


def wer(x: Sequence[str], y: Sequence[str]) -> float:
    """Word error rate (i+s+d)/|x|.  May exceed 1."""
    if len(x) == 0:
        raise EmptyReferenceError("WER is undefined for an empty reference")
    dist, _, _ = edit_distance(x, y)
    return dist / len(x)


def cer(x: Sequence[str], y: Sequence[str]) -> float:
    """Character error rate over the joined word sequences."""
    denom = sum(len(w) for w in x) + max(0, len(x) - 1)
    if denom == 0:
        raise EmptyReferenceError("CER is undefined for an empty reference")
    return char_distance(x, y) / denom


def page_wer_by_lines(
    ref: PageTranscript, hyp: PageTranscript
) -> tuple[float, EditCounts]:
    """Traditional page WER: per-line edit counts accumulated over the M
    line pairs, normalized by the reference word count.

    Requires equal line counts; otherwise use page_wer_concat.
    """
    if ref.line_count != hyp.line_count:
        raise StructureError(
            f"line count mismatch: {ref.line_count} reference lines vs "
            f"{hyp.line_count} hypothesis lines"
        )
    n = ref.word_count
    if n == 0:
        raise EmptyReferenceError("page WER is undefined for an empty reference")
    total = EditCounts()
    for rl, hl in zip(ref.lines, hyp.lines):
        _, counts, _ = edit_distance(rl, hl)
        total = total + counts
    return total.errors / n, total


def page_wer_concat(
    ref: PageTranscript, hyp: PageTranscript
) -> tuple[float, EditCounts, Trace]:
    """Page WER on the concatenated word sequences."""
    x = ref.words
    if not x:
        raise EmptyReferenceError("page WER is undefined for an empty reference")
    dist, counts, trace = edit_distance(x, hyp.words)
    return dist / len(x), counts, trace
