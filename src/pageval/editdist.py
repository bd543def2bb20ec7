"""Levenshtein edit distance with backtrace at word level and the
character distance between word sequences.

All edit operations have unit cost.  Backtrace tie-breaking prefers
match/substitution over deletion over insertion, which keeps traces and
operation counts deterministic; the distance itself is tie-independent.

Three engines compute edit distances:
- `edit_distance`: a plain-Python full-table DP with backtrace, for word
  sequences.  The word suffix that both sequences share is left out of the
  table: with unit costs a cell whose two words are equal equals its
  diagonal neighbour, so the backtrace walks that suffix diagonally and
  the rest of the table is the top-left corner of the full one.  Equal
  sequences cost O(n).  A shared prefix is not trimmed, because it can
  change the trace: from [a] to [a, a] the full backtrace inserts the
  first `a` and matches the second;
- `_scan`: a bigint bit-parallel (Myers) distance, distance only, read off
  the last column; `char_distance` runs it on page-sized strings with the
  joined reference as the pattern, through `_myers_distance`;
- `assign._unique_pair_table`: a batched bit-parallel kernel over uint64
  lanes, each packing several reference words, for the assignment pair
  costs, run over blocks of whole lanes; it falls back to `_scan` for
  reference words too long for a lane, with the long word as pattern.

Both bit-parallel engines build a reference's side once and reuse it while
it is among the last 64 references scored: the pattern's match masks
(`_match_masks`) and the kernel's lane layout and per-lane masks
(`assign._reference_side`), each memoized in a bounded
`functools.lru_cache`.  A page's CER and hCER share one pattern, and a
sweep scores each reference at every step.  The bigint engine also keeps
its last scan (`_last_scan`): one pattern and text, the distance and up to
`_MARKS` resumable column states, written only by `_myers_distance`.
hCER's text is the hypothesis reordered along the hWER alignment, which is
the hypothesis itself when the reading order is right, so hCER returns
CER's distance or resumes CER's scan where the two texts part.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Mapping, Sequence

from .core import EditCounts, Trace, join_words


def edit_distance(
    x: Sequence[str], y: Sequence[str]
) -> tuple[int, EditCounts, Trace]:
    """Word-level edit distance from x to y with counts and trace.

    Returns (distance, EditCounts, Trace); distance == counts.errors and the
    trace replays x into y.  O(|x|*|y|) time; the full table is kept for the
    backtrace, one list pointer (8 bytes) per cell.

    The table covers x[:n-s] and y[:m-s], where s is the length of the
    word suffix the two share; the trace then ends with the s matched pairs
    (n-s+t, m-s+t).  That is exact: with unit costs D[i][j] = D[i-1][j-1]
    whenever x[i-1] == y[j-1], so the backtrace, which tries the diagonal
    first, walks the shared suffix diagonally to (n-s, m-s), and the
    smaller table is the top-left corner of the full one.  Equal sequences
    cost O(n).
    """
    n, m = len(x), len(y)
    s = 0
    while s < n and s < m and x[n - 1 - s] == y[m - 1 - s]:
        s += 1
    n -= s
    m -= s
    # Row-major table.  Neighbouring cells differ by at most 1 (Ukkonen
    # 1985), so min(diag + (xi != yj), up + 1, left + 1) is diag when the
    # items match or up or left is below diag, and diag + 1 otherwise.
    # diag + 1 is read from `succ`, so every cell points at a shared int
    # object instead of allocating one.
    succ = list(range(1, n + m + 2))
    row = [0, *succ[:m]]
    dist: list[list[int]] = [row]
    for i, xi in enumerate(x[:n], 1):
        prev = row
        row = [i]
        append = row.append
        ups = iter(prev)
        diag = next(ups)
        left = i
        for yj, up in zip(y, ups):
            if xi == yj or up < diag or left < diag:
                left = diag
            else:
                left = succ[diag]
            append(left)
            diag = up
        dist.append(row)

    # backtrace, preferring diagonal, then deletion, then insertion; the
    # suffix pairs come first, as the walk from the last cell meets them
    pairs: list[tuple[int | None, int | None]] = [
        (n + t, m + t) for t in range(s - 1, -1, -1)
    ]
    ins = sub = dele = 0
    corr = s
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


# Patterns whose match masks `_myers_distance` keeps.  A page's reference
# is the pattern of its CER and of its hCER, and a sweep scores each
# reference once per step, so a small bound serves every reuse in one call.
_MASK_MEMO_ENTRIES = 64


@functools.lru_cache(maxsize=_MASK_MEMO_ENTRIES)
def _match_masks(a: str) -> Mapping[str, int]:
    """Read-only bit mask of each character's positions in pattern `a`."""
    peq: dict[str, int] = {}
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | (1 << i)
    return MappingProxyType(peq)


# Text characters scanned between two maskings of the column state, and
# the most resume states the scan slot keeps for one text.
_CHUNK = 64
_MARKS = 16

# The last scan: (pattern, text, distance, resume states), each state a
# (text position, vp, vn) after a whole number of chunks, in text order.
# Replaced as one tuple, never changed in place.
_last_scan: tuple[str, str, int, tuple[tuple[int, int, int], ...]] | None = None


def _scan(
    masks: Mapping[str, int],
    size: int,
    b: str,
    state: tuple[int, int, int] | None = None,
    marks: list[tuple[int, int, int]] | None = None,
    every: int = _CHUNK,
) -> int:
    """Bit-parallel Levenshtein distance (Myers/Hyyro) from a pattern of
    `size` characters, given by its match masks (`_match_masks`), to text
    `b`, O(size*|b|/wordsize), read off the last column's vertical deltas,
    |b| + #vp - #vn.  Reads and writes no scan slot.

    `state` is a column state (position, vp, vn) after b[:position] to
    resume from; without one the scan starts at the text's start.  The
    text is scanned `_CHUNK` characters at a time, and when `marks` is a
    list, the state after each chunk that ends at a multiple of `every`
    characters is appended to it.  Carries and shifts only move bits up, so
    bits above the pattern never reach the low `size` bits; `vp`/`vn` are
    masked once per chunk, not every step.
    """
    peq = masks.get
    full = (1 << size) - 1
    start, vp, vn = state or (0, full, 0)
    n = len(b)
    # `full ^ v` is `~v & full` below bit `size` and keeps every int
    # non-negative; bits above grow by at most two per step until masked
    for pos in range(start, n, _CHUNK):
        for c in b[pos:pos + _CHUNK]:
            x = peq(c, 0) | vn
            d0 = (((x & vp) + vp) ^ vp) | x
            hp = vn | (full ^ (d0 | vp))
            hn = d0 & vp
            hp = (hp << 1) | 1
            hn <<= 1
            vp = hn | (full ^ (d0 | hp))
            vn = d0 & hp
        vp &= full
        vn &= full
        end = pos + _CHUNK
        if marks is not None and end <= n and end % every == 0:
            marks.append((end, vp, vn))
    return n + vp.bit_count() - vn.bit_count()


def _myers_distance(a: str, b: str) -> int:
    """Bit-parallel Levenshtein distance (`_scan`) that keeps its last scan.

    Distance only, no counts; Python integers serve as unbounded bit
    vectors so any pattern length works.  `a` is always the pattern and `b`
    the text scanned one character per step (the distance is symmetric):
    callers pass the reference side as `a`, because its match masks are
    memoized by pattern (`_match_masks`, at most `_MASK_MEMO_ENTRIES`
    patterns), so a reference scored again reuses them.  Used for
    page-sized strings, where the counting DP would be needlessly slow.

    The scan is resumable: the column state after a text prefix depends
    only on the pattern and that prefix.  The last scan's pattern, text,
    distance and up to `_MARKS` states at chunk ends are kept in one slot
    (`_last_scan`).  A call with the same pattern returns the stored
    distance for the same text, and otherwise resumes from the last state
    whose prefix the new text shares, so a page's hCER rescans only where
    its reordered hypothesis leaves the hypothesis that CER scanned.  A
    call with another pattern replaces the slot.  `assign.hwer`'s fallback
    for reference words over 64 characters calls `_scan` directly, so it
    leaves the slot to CER and hCER.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    global _last_scan
    masks = _match_masks(a)
    n = len(b)
    # marks go at multiples of `every` characters, at most _MARKS per text
    every = _CHUNK * -(-n // (_CHUNK * _MARKS))
    state, marks = None, []
    slot = _last_scan
    if slot is not None and slot[0] == a:
        _, text, dist, old = slot
        if text == b:
            return dist
        # prefix equality is monotone in the position: count the states
        # whose prefix the two texts share
        lo, hi = 0, len(old)
        while lo < hi:
            mid = (lo + hi) // 2
            pos = old[mid][0]
            if b[:pos] == text[:pos]:
                lo = mid + 1
            else:
                hi = mid
        if lo:
            state = old[lo - 1]
            marks = [m for m in old[:lo] if m[0] % every == 0]
    dist = _scan(masks, len(a), b, state, marks, every)
    _last_scan = (a, b, dist, tuple(marks))
    return dist


def char_distance(x: Sequence[str], y: Sequence[str]) -> int:
    """Character-level edit distance between two word sequences, distance
    only.

    Each sequence is joined with single spaces first, so the separator
    spaces count as characters on both sides.  The joined `x` is the
    pattern, so a reference scored again (CER then hCER, or the next sweep
    step) reuses its match masks, and a call right after one with the same
    `x` rescans only from where the joined `y` leaves the last one
    (`_myers_distance`'s scan slot).  A call on another pattern in
    between replaces the slot: the next call is still exact but scans in
    full.  `assign.hwer`'s fallback for reference words over 64 characters
    uses the slot-free `_scan`, so it does not come between CER and hCER.
    """
    return _myers_distance(join_words(x), join_words(y))
