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
  first `a` and matches the second.  The table is filled four rows per
  pass over the second sequence, still one Python update per cell: the
  first sequence is padded to a multiple of four with a sentinel that
  equals no word, and the padded rows are dropped before the backtrace;
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
sweep scores each reference at every step.  `_myers_distance` memoizes its
last call, so hCER, whose reordered hypothesis is the hypothesis itself
when the reading order is right, then returns CER's distance unscanned.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Mapping, Sequence

from .core import EditCounts, Trace, join_words

# Pads the word DP's rows to a multiple of four; it equals no word.
_NO_WORD = object()


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
    #
    # Rows are filled four at a time, one pass over y per block of four
    # rows, which saves the loop overhead of three passes.  Going down a
    # column, a row's diag is the cell the row above held as its left one
    # column back, and its up is the cell just computed above; so the pass
    # carries the diag read from the previous block's last row and the four
    # rows' left cells (a, b, c, d).  x is padded to a multiple of four with
    # `_NO_WORD`, so there is no second loop for the leftover rows; no row
    # depends on the rows below it, and the padded rows are dropped before
    # the backtrace.
    # Each column appends its four cells to one list for the block, which
    # is then sliced into exact-size rows: four row lists growing side by
    # side raised `eval`'s peak RSS on a 2,000-word page from ~155 MB to
    # up to 186 MB, likely by fragmenting the heap under hWER's matrix.
    xs = [*x[:n], *(_NO_WORD,) * (-n % 4)]
    succ = list(range(1, len(xs) + m + 2))
    row = [0, *succ[:m]]
    dist: list[list[int]] = [row]
    for i in range(0, len(xs), 4):
        x0, x1, x2, x3 = xs[i:i + 4]
        a, b, c, d = block = succ[i:i + 4]
        extend = block.extend
        ups = iter(row)
        diag = next(ups)
        for yj, up in zip(y, ups):
            e = diag if x0 == yj or up < diag or a < diag else succ[diag]
            diag = up
            f = a if x1 == yj or e < a or b < a else succ[a]
            g = b if x2 == yj or f < b or c < b else succ[b]
            d = c if x3 == yj or g < c or d < c else succ[c]
            a, b, c = e, f, g
            extend((a, b, c, d))
        dist += [block[r::4] for r in range(4)]
        row = dist[-1]
    del dist[n + 1:]

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


# Text characters scanned between two maskings of the column state.
_CHUNK = 64


def _scan(masks: Mapping[str, int], size: int, b: str) -> int:
    """Bit-parallel Levenshtein distance (Myers/Hyyro) from a pattern of
    `size` characters, given by its match masks (`_match_masks`), to text
    `b`, O(size*|b|/wordsize), read off the last column's vertical deltas,
    |b| + #vp - #vn.

    The text is scanned `_CHUNK` characters at a time.  Carries and shifts
    only move bits up, so bits above the pattern never reach the low `size`
    bits; `vp`/`vn` are masked once per chunk, not every step.
    """
    peq = masks.get
    full = (1 << size) - 1
    vp, vn = full, 0
    # `full ^ v` is `~v & full` below bit `size` and keeps every int
    # non-negative; bits above grow by at most two per step until masked
    for pos in range(0, len(b), _CHUNK):
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
    return len(b) + vp.bit_count() - vn.bit_count()


@functools.lru_cache(maxsize=1)
def _myers_distance(a: str, b: str) -> int:
    """Bit-parallel Levenshtein distance (`_scan`), memoizing the last call.

    For page-sized strings, where the counting DP would be needlessly slow.
    Python integers serve as unbounded bit vectors, so any pattern length
    works.  `a` is always the pattern and `b` the text (the distance is
    symmetric): callers pass the reference side as `a`, whose match masks
    are memoized by pattern (`_match_masks`), so a reference scored again
    reuses them.

    The one-entry memo gives a page's hCER CER's distance when its
    reordered hypothesis is the hypothesis; any other text is scanned in
    full.  `assign.hwer`'s fallback for reference words over 64 characters
    calls `_scan` directly, so it does not evict CER's entry.
    """
    if a == b:
        return 0
    return _scan(_match_masks(a), len(a), b)


def char_distance(x: Sequence[str], y: Sequence[str]) -> int:
    """Character-level edit distance between two word sequences, distance
    only.

    Each sequence is joined with single spaces first, so the separator
    spaces count as characters on both sides.  The joined `x` is the
    pattern, so a reference scored again (CER then hCER, or the next sweep
    step) reuses its match masks, and a call repeating the last call's
    strings (hCER on a page in the right reading order) returns the
    memoized distance (`_myers_distance`).
    """
    return _myers_distance(join_words(x), join_words(y))
