"""Regularized minimum-cost assignment between reference and hypothesis word
instances, and the hWER/hCER error numerators derived from it.

The cost of pairing reference word j with hypothesis word k is their
character edit distance plus a reading-order regularizer gamma*|j-k|/N.
Dummy rows/columns (one per word on the opposite side) support insertions
and deletions simultaneously: pairing a word with a dummy costs half its
length plus gamma/N, and dummy-dummy cells are free, so the matrix is square
of side |x|+|y| and a perfect matching always exists.

The solver is scipy's linear_sum_assignment (Jonker-Volgenant family,
O(n^3); Crouse, IEEE TAES 2016); optimality is the contract and is
cross-checked against exhaustive enumeration in the tests.  It is loaded
straight from its compiled extension, scipy/optimize/_lsap, because
importing scipy.optimize would pull in all of scipy's optimizers and more
than double the start-up time and memory of every `pageval` process; an
installation without that file falls back to `from scipy.optimize import
linear_sum_assignment`.  Among equal-cost matchings the reported metrics
are canonicalized by an epsilon-scaled mismatch penalty, far below the cost
granularity, which deterministically selects a member with the smallest
mismatch count (hence the smallest hWER) of the optimal family.  A page
whose hypothesis equals its reference word for word skips the solve: when
gamma/n > 0 the identity is the only zero-cost matching, so it is the
solver's answer (`_canonical_solve`).
"""

from __future__ import annotations

import bisect
import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .core import Alignment, EmptyReferenceError, StructureError
from .editdist import _match_masks, _scan, char_distance


def _load_lsap():
    """scipy's compiled `linear_sum_assignment`, loaded without importing
    scipy.optimize (see the module docstring).  `_lsap` uses single-phase
    init, so a later `import scipy.optimize` hands back this same object."""
    # find_spec of a top-level name imports nothing; a dotted name would
    # import its parent package
    spec = importlib.util.find_spec("scipy")
    for base in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(base, "optimize", "_lsap" + suffix)
            if os.path.isfile(path):
                ext = importlib.util.spec_from_file_location(
                    "scipy.optimize._lsap", path
                )
                module = importlib.util.module_from_spec(ext)
                ext.loader.exec_module(module)
                return module.linear_sum_assignment
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


linear_sum_assignment = _load_lsap()


@dataclass(frozen=True)
class CostMatrix:
    """Square assignment costs with the block layout described above."""

    values: np.ndarray
    n_ref: int
    n_hyp: int


# Cells per block of a pair-sized temporary.  A lane block of the pair
# kernel holds at most this many (hypothesis word, packed reference word)
# pairs, or one lane (at most 32 words), so its uint64 read-out is at most
# 2 MB up to 8,192 distinct hypothesis words; `_assemble` fills its
# real-pair block this many cells at a time.  A larger block (9 MB at 2**21
# pairs on a 2,000-word page) stays in the process heap after it is freed
# and adds to the page's peak RSS.
_BLOCK_CELLS = 1 << 18
_LANE_BITS = 64
# Reference word sequences whose kernel side `_reference_side` keeps.  A
# sweep scores each reference once per step.  An entry holds some 33 KB for
# a 300-word page and 70 KB for a 2,000-word page of the bench's Zipf
# vocabulary; its match masks are (alphabet + 1) x lanes uint64, so a
# page with thousands of distinct characters holds more.
_LANE_MEMO_ENTRIES = 64


def _codepoints(words: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated code points, each one's word index and its position in
    the word, for a list of words.  Lone surrogates pass through as their
    own code points, as they do in the other engines."""
    lens = np.fromiter((len(w) for w in words), dtype=np.int64, count=len(words))
    flat = np.frombuffer(
        "".join(words).encode("utf-32-le", "surrogatepass"), dtype=np.uint32
    )
    owner = np.repeat(np.arange(len(words)), lens)
    pos = np.arange(flat.size) - np.repeat(np.cumsum(lens) - lens, lens)
    return flat, owner, pos


def _pack_lanes(lens: list[int]) -> tuple[np.ndarray, ...]:
    """Greedy lane layout for words of 1 to 64 characters.

    A word takes len + 1 bits: its bit field, then a zero separator bit
    that absorbs the carry out of the field; a word that ends at bit 63
    needs no separator.  Returns each word's lane, bit offset and field
    mask, and per lane the mask of every field's bottom bit (`low`) and
    the union of its fields (`keep`).
    """
    lane: list[int] = []
    offset: list[int] = []
    field: list[int] = []
    low = [0]
    keep = [0]
    off = 0
    for w in lens:
        if off + w > _LANE_BITS:
            low.append(0)
            keep.append(0)
            off = 0
        f = ((1 << w) - 1) << off
        lane.append(len(low) - 1)
        offset.append(off)
        field.append(f)
        low[-1] |= 1 << off
        keep[-1] |= f
        off += w + 1
    return (
        np.array(lane, dtype=np.intp),
        np.array(offset, dtype=np.uint64),
        np.array(field, dtype=np.uint64),
        np.array(low, dtype=np.uint64),
        np.array(keep, dtype=np.uint64),
    )


class _Reference(NamedTuple):
    """The pair kernel's reference side for one reference word sequence:
    everything that does not depend on the hypothesis.  Arrays are
    read-only, because one entry serves every call that scores the same
    reference."""

    words: tuple[str, ...]  # unique words, sorted: the pair table's rows
    rows: np.ndarray  # each reference word's row
    lens: np.ndarray  # each row's word length
    loose: tuple[int, ...]  # rows of words that do not fit a lane
    alphabet: np.ndarray  # sorted code points of the packed words
    packed: np.ndarray  # rows of the packed words, in lane order
    lane: np.ndarray  # per packed word: its lane
    field: np.ndarray  # per packed word: its bit field
    low: np.ndarray  # per lane: every field's bottom bit
    keep: np.ndarray  # per lane: the union of its fields
    starts: tuple[int, ...]  # index in `packed` of each lane's first word, and the end
    peq: np.ndarray  # [code, lane]: the bits of code point alphabet[code - 1]


@functools.lru_cache(maxsize=_LANE_MEMO_ENTRIES)
def _reference_side(x: tuple[str, ...]) -> _Reference:
    """The memoized `_Reference` of reference words `x` (page order, with
    repeats), at most `_LANE_MEMO_ENTRIES` of them."""
    ux = sorted(set(x))
    index = {w: i for i, w in enumerate(ux)}
    rows = np.fromiter((index[w] for w in x), dtype=np.intp, count=len(x))
    lens = np.fromiter((len(w) for w in ux), dtype=np.int64, count=len(ux))
    fits = (lens > 0) & (lens <= _LANE_BITS)
    packed = np.flatnonzero(fits)
    lane, offset, field, low, keep = _pack_lanes(lens[packed].tolist())
    # each character of a packed word: its word's index in `packed`, and
    # its code, 1.. (0 is the code of characters the reference lacks)
    flat, owner, pos = _codepoints([ux[i] for i in packed.tolist()])
    alphabet, code = np.unique(flat, return_inverse=True)
    peq = np.zeros((alphabet.size + 1, low.size), dtype=np.uint64)
    np.bitwise_or.at(
        peq,
        (code + 1, lane[owner]),
        np.uint64(1) << (offset[owner] + pos.astype(np.uint64)),
    )
    arrays = (rows, lens, alphabet, packed, lane, field, low, keep, peq)
    for a in arrays:
        a.flags.writeable = False
    return _Reference(
        words=tuple(ux),
        rows=rows,
        lens=lens,
        loose=tuple(np.flatnonzero(~fits).tolist()),
        alphabet=alphabet,
        packed=packed,
        lane=lane,
        field=field,
        low=low,
        keep=keep,
        starts=tuple(np.searchsorted(lane, np.arange(low.size + 1)).tolist()),
        peq=peq,
    )


def _field_counts(
    bits: np.ndarray, rows: np.ndarray, lane: np.ndarray, field: np.ndarray
) -> np.ndarray:
    """popcount(bits[row, lane of w] & field of w) for every row and packed
    word w; the uint64 gather is freed before the caller makes the next."""
    cells = bits[rows, lane]
    cells &= field
    return np.bitwise_count(cells)


def _unique_pair_table(ref: _Reference, uy: list[str]) -> np.ndarray:
    """Levenshtein distance from every unique reference word (`ref.words`)
    to every hypothesis word in `uy`, as one batched bit-parallel kernel
    (Myers 1999, in Hyyro's edit-distance form), with several reference
    words packed into each uint64 lane (Hyyro, Fredriksson & Navarro 2005).

    Each lane holds reference words as bit-vector patterns, one bit field
    per word (`_pack_lanes`); the hypothesis word is the text scanned one
    character per step, one row of lanes per hypothesis word.  Two ops keep
    the fields apart: `hp` shifts a 1 into every field's bottom bit (`low`,
    the top row of each word's own distance table), and `vp &= keep` clears
    the separator bits, so no carry or shifted bit crosses into the next
    word.  Hypothesis words are visited longest first, so the rows still
    running at character t are a prefix of the lane arrays.  Once a
    hypothesis word b is done, each distance is read off the last column:
    |b| + popcount(vp & field) - popcount(vn & field).

    The lane layout and the per-lane match masks come with `ref`, built
    once per reference (`_reference_side`); a call adds only the hypothesis
    side.  Lanes run in blocks of whole lanes holding at most
    `_BLOCK_CELLS // |uy|` packed words (at least one lane), and each block
    is read out in one piece, straight into the one result table.
    Reference words that do not fit a lane (empty, or over 64 characters)
    fall back to the bigint engine one pair at a time, as its pattern.  No
    distance exceeds the longer word's length, so the table has the
    smallest unsigned dtype that holds the longest word.
    """
    u, v = len(ref.words), len(uy)
    lb = np.fromiter((len(w) for w in uy), dtype=np.int64, count=v)
    longest = max(int(ref.lens.max(initial=0)), int(lb.max(initial=0)))
    table = np.empty((u, v), dtype=np.min_scalar_type(longest))
    if u == 0 or v == 0:
        return table
    # signed: a read-out adds a popcount difference (down to -64) to |b|
    signed = np.promote_types(table.dtype, np.int8)

    # character codes: 1.. for characters of the reference words, 0 (all
    # masks zero) for characters seen only in the hypothesis
    alphabet = ref.alphabet
    b_flat, b_owner, b_pos = _codepoints(uy)
    found = np.searchsorted(alphabet, b_flat)
    hit = found < alphabet.size
    hit[hit] = alphabet[found[hit]] == b_flat[hit]
    order = np.argsort(-lb, kind="stable")
    rank = np.empty(v, dtype=np.int64)
    rank[order] = np.arange(v)
    max_b = int(lb[order[0]])
    # ragged and step-major, one slot per hypothesis character:
    # text[at[t]:at[t + 1]] is character t of the hypothesis words still
    # running at step t, in rank order
    running = v - np.cumsum(np.bincount(lb, minlength=max_b + 1))[:max_b]
    at = np.concatenate(([0], np.cumsum(running)))
    text = np.empty(b_flat.size, dtype=np.intp)
    text[at[b_pos] + rank[b_owner]] = np.where(hit, found + 1, 0)
    bounds = at.tolist()
    # the top cell of hypothesis word b's last column is |b|
    top = lb[:, None].astype(signed)
    rows = rank[:, None]

    one = np.uint64(1)
    per_block = max(1, _BLOCK_CELLS // v)
    starts = ref.starts
    first = 0
    while ref.packed.size and first < ref.low.size:
        last = max(first + 1, bisect.bisect_right(starts, starts[first] + per_block) - 1)
        low, keep = ref.low[first:last], ref.keep[first:last]
        peq = ref.peq[:, first:last]
        vp = np.tile(keep, (v, 1))
        vn = np.zeros_like(vp)
        for lo, hi in zip(bounds, bounds[1:]):
            k = hi - lo
            vp_k, vn_k = vp[:k], vn[:k]
            x = peq[text[lo:hi]]
            x |= vn_k
            d0 = x & vp_k
            d0 += vp_k
            d0 ^= vp_k
            d0 |= x
            hp = d0 | vp_k
            np.invert(hp, out=hp)
            hp |= vn_k
            hn = np.bitwise_and(d0, vp_k, out=x)
            hp <<= one
            hp |= low
            hn <<= one
            np.bitwise_or(d0, hp, out=vp_k)
            np.invert(vp_k, out=vp_k)
            vp_k |= hn
            vp_k &= keep
            np.bitwise_and(d0, hp, out=vn_k)

        # (hypothesis, reference) read-out, hypothesis words in input order
        words = slice(starts[first], starts[last])
        lane, field = ref.lane[words] - first, ref.field[words]
        dist = np.subtract(
            _field_counts(vp, rows, lane, field),
            _field_counts(vn, rows, lane, field),
            dtype=signed,
        )
        dist += top
        table[ref.packed[words]] = dist.T
        first = last

    for i in ref.loose:
        a = ref.words[i]
        masks = _match_masks(a)
        table[i] = [_scan(masks, len(a), w) for w in uy]
    return table


def _pair_table(ref: _Reference, y: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Character edit distance for every unique (reference, hypothesis) word
    pair, plus each hypothesis word's column in that table (`ref.rows` are
    the reference words' rows).

    Deduplicated through the vocabulary: corpora repeat words heavily, so
    unique pairs are far fewer than |x|*|y|.
    """
    uy = sorted(set(y))
    idx_y = {w: i for i, w in enumerate(uy)}
    cols = np.fromiter((idx_y[w] for w in y), dtype=np.intp, count=len(y))
    return _unique_pair_table(ref, uy), cols


def _memory_readings() -> Iterator[int]:
    """Bytes a new allocation can take, as the system reports them: free
    physical memory (one syscall), then the kernel's MemAvailable estimate,
    which adds the caches it can reclaim and is read only if asked for.
    A reading the system lacks is left out."""
    try:
        yield os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):  # a name this system does not define
        pass
    try:
        with open("/proc/meminfo", "rb") as meminfo:
            for line in meminfo:
                if line.startswith(b"MemAvailable:"):
                    yield int(line.split()[1]) * 1024  # reported in kB
    except OSError:
        pass


def _check_fits(nbytes: int) -> None:
    """Raise MemoryError if `nbytes` exceed every memory reading, so a page
    whose matrix cannot fit is a page error.  Under overcommit a larger
    allocation may be granted lazily and then filled until the OOM killer
    ends the process with no report.  No reading, no check."""
    read = False
    for available in _memory_readings():
        if nbytes <= available:
            return
        read = True
    if read:
        raise MemoryError(f"{nbytes} bytes exceed the memory available")


def _assemble(
    x: Sequence[str],
    y: Sequence[str],
    gamma: float,
    mismatch_bonus: float = 0.0,
    dummy_bonus: float = 0.0,
) -> np.ndarray:
    """The square cost matrix, written into one allocation.

    The real-pair block is filled a row block at a time from the integer
    pair table, so besides the matrix only that table and block-sized
    temporaries are held.  Each cell is
    (pair + bonus) + gamma*|j-k|/n in exactly that operation order: the
    solver's choice among tied optima depends on the last bit of every cell.
    `mismatch_bonus` (the tie-break perturbation) goes to every pair with a
    non-zero distance, that is to every pair of unequal words: it is added
    to the whole row block, and zero-distance cells are set back to 0.0,
    which needs no masked add and no block-sized float temporary.  A
    matrix larger than the memory available raises MemoryError first
    (`_check_fits`).
    """
    n, m = len(x), len(y)
    side = n + m
    _check_fits(8 * side * side)
    ref = _reference_side(tuple(x))
    values = np.zeros((side, side), dtype=np.float64)
    if m:
        table, cols = _pair_table(ref, y)
        rows = ref.rows
        # gamma*|j-k|/n depends on |j-k| alone: reg[j, k] is
        # mirror[d.size - 1 - j + k], so every row of reg is a window of one
        # mirrored vector
        d = np.arange(max(n, m), dtype=np.float64)
        d *= gamma
        d /= n
        mirror = np.concatenate((d[:0:-1], d))
        size = mirror.itemsize
        reg = np.ndarray((n, m), np.float64, mirror, size * (d.size - 1), (-size, size))
        step = max(1, _BLOCK_CELLS // m)
        for start in range(0, n, step):
            stop = min(start + step, n)
            block = values[start:stop, :m]
            dist = table[rows[start:stop]][:, cols]
            block[...] = dist
            if mismatch_bonus:
                block += mismatch_bonus
                block[dist == 0] = 0.0
            block += reg[start:stop]
    # dummy partners: half the word length, displacement term fixed at 1
    x_len = ref.lens[ref.rows]
    values[:n, m:] = (x_len / 2 + gamma / n + dummy_bonus)[:, None]
    if m:
        y_len = np.fromiter((len(w) for w in y), dtype=np.float64, count=m)
        values[n:, :m] = (y_len / 2 + gamma / n + dummy_bonus)[None, :]
    return values


def check_gamma(gamma: float) -> float:
    """Return the regularization factor if it is finite and non-negative;
    raise StructureError otherwise (NaN or infinity would poison the
    assignment costs)."""
    if not math.isfinite(gamma) or gamma < 0:
        raise StructureError(
            f"gamma must be a finite non-negative number, got {gamma!r}"
        )
    return gamma


def _check_args(x: Sequence[str], gamma: float) -> None:
    if len(x) == 0:
        raise EmptyReferenceError("assignment costs need a non-empty reference")
    check_gamma(gamma)


def build_cost_matrix(
    x: Sequence[str], y: Sequence[str], gamma: float = 1.0
) -> CostMatrix:
    """Assemble the regularized assignment costs for two word sequences."""
    _check_args(x, gamma)
    return CostMatrix(values=_assemble(x, y, gamma), n_ref=len(x), n_hyp=len(y))


def _decode_pairs(rows: np.ndarray, cols: np.ndarray, n: int, m: int) -> Alignment:
    """Alignment from a square-layout matching: a row or column index past
    the real words is a dummy, and dummy-dummy pairs are dropped."""
    pairs = []
    for r, c in zip(rows.tolist(), cols.tolist()):
        if r < n and c < m:
            pairs.append((r, c))
        elif r < n:
            pairs.append((r, None))
        elif c < m:
            pairs.append((None, c))
    return Alignment(frozenset(pairs))


def solve_assignment(matrix: CostMatrix) -> tuple[Alignment, float]:
    """Minimum-cost perfect matching; dummy-dummy pairs are stripped.

    The returned cost is the full matching cost (dummy-dummy cells are 0).
    """
    rows, cols = linear_sum_assignment(matrix.values)
    cost = float(matrix.values[rows, cols].sum())
    return _decode_pairs(rows, cols, matrix.n_ref, matrix.n_hyp), cost


def _canonical_solve(
    x: Sequence[str], y: Sequence[str], gamma: float
) -> Alignment:
    """Solve with the epsilon mismatch penalty used by hwer.

    The penalty mirrors the hWER numerator (1 per mismatched real pair, 1/2
    per dummy pair) so ties resolve toward the lowest hWER; epsilon is small
    enough that cost optimality is untouched.

    An unchanged page (y equal to x word for word) with gamma/n > 0 gets
    the identity alignment without a pair table or a solve.  That is the
    solver's answer: every off-diagonal real cell costs at least gamma/n
    (a repeated word) or 1 (another word), and every dummy cell more than
    0, so the identity is the only matching of cost 0.  In the solver,
    each real row in turn finds its one zero, its own free diagonal column,
    with all duals 0; the dummy rows then take the free dummy columns,
    which the decoding drops.  At gamma = 0, or a gamma so small that
    gamma/n underflows to 0, repeated words tie and the solve decides.
    """
    _check_args(x, gamma)
    n, m = len(x), len(y)
    if gamma / n > 0 and tuple(x) == tuple(y):
        return Alignment(frozenset(zip(range(n), range(n))))
    eps = 1e-8 / (n + m)
    values = _assemble(x, y, gamma, mismatch_bonus=eps, dummy_bonus=eps / 2)
    return _decode_pairs(*linear_sum_assignment(values), n, m)


def hwer_errors(
    x: Sequence[str], y: Sequence[str], alignment: Alignment
) -> int:
    """Integer hWER numerator for a given alignment.

    Mismatched pairs count 1 (dummy pairs always mismatch); the D - b excess
    dummy pairs count as half errors, and D - b is always even.
    """
    b = abs(len(x) - len(y))
    dummies = 0
    mismatches = 0
    for j, k in alignment.pairs:
        if j is None or k is None:
            dummies += 1
            mismatches += 1
        elif x[j] != y[k]:
            mismatches += 1
    return mismatches - (dummies - b) // 2


def hwer(
    x: Sequence[str], y: Sequence[str], gamma: float = 1.0
) -> tuple[float, Alignment]:
    """Assignment-based WER and the optimal word alignment.

    The alignment is the one consumed downstream by the reading-order
    metric and by hcer_errors.
    """
    alignment = _canonical_solve(x, y, gamma)
    return hwer_errors(x, y, alignment) / len(x), alignment


def reorder_hypothesis(
    x: Sequence[str], y: Sequence[str], alignment: Alignment
) -> list[str]:
    """Rebuild the hypothesis in reference order along the alignment.

    Aligned hypothesis words take their reference partner's position
    (deleted reference positions contribute nothing); insertion words are
    appended at the end in their original order.
    """
    alignment.validate(len(x), len(y))
    placed: dict[int, str] = {}
    inserted: list[int] = []
    for j, k in alignment.pairs:
        if j is not None and k is not None:
            placed[j] = y[k]
        elif k is not None:
            inserted.append(k)
    out = [placed[j] for j in sorted(placed)]
    out.extend(y[k] for k in sorted(inserted))
    return out


def hcer_errors(
    x: Sequence[str], y: Sequence[str], alignment: Alignment
) -> int:
    """Integer hCER numerator: the character edit distance between x and
    the hypothesis reordered along the alignment (`reorder_hypothesis`)."""
    return char_distance(x, reorder_hypothesis(x, y, alignment))
