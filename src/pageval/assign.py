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
mismatch count (hence the smallest hWER) of the optimal family.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Alignment, EmptyReferenceError, StructureError
from .editdist import _myers_distance, char_distance


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
    gamma: float

    @property
    def side(self) -> int:
        return self.n_ref + self.n_hyp


# Pairs per block of reference rows: each (v, u) uint64 lane array is then at
# most 16 MB, and the kernel keeps about eight of them alive.
_PAIR_BLOCK_CELLS = 1 << 21
_LANE_BITS = 64
# Cells per row block of the real-pair block in `_assemble`: its gather and
# regularizer temporaries are then 2 MB each, not n*m.
_ASSEMBLE_BLOCK_CELLS = 1 << 18


def _codepoints(words: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated code points, each one's word index and its position in
    the word, for a list of words."""
    lens = np.fromiter((len(w) for w in words), dtype=np.int64, count=len(words))
    flat = np.frombuffer("".join(words).encode("utf-32-le"), dtype=np.uint32)
    owner = np.repeat(np.arange(len(words)), lens)
    pos = np.arange(flat.size) - np.repeat(np.cumsum(lens) - lens, lens)
    return flat, owner, pos


def _unique_pair_table(ux: list[str], uy: list[str]) -> np.ndarray:
    """Levenshtein distance for every unique word pair, as one batched
    bit-parallel kernel (Myers 1999, in Hyyro's edit-distance form).

    Each (reference word, hypothesis word) pair is one uint64 lane: the
    reference word is the bit-vector pattern, the hypothesis word the text
    scanned one character per step.  Hypothesis words are visited longest
    first, so the pairs still running at character t are a prefix of the
    (v, u) lane arrays.  Carries and shifts only move bits upward, so bits
    above a pattern's length never disturb the ones below and need no mask.
    Reference words that do not fit a lane (empty, or over 64 characters)
    fall back to the bigint engine one pair at a time.  Very large
    vocabularies are processed in row blocks to bound memory.
    """
    u, v = len(ux), len(uy)
    if u * v > _PAIR_BLOCK_CELLS:
        step = max(1, _PAIR_BLOCK_CELLS // v)
        return np.concatenate(
            [_unique_pair_table(ux[i : i + step], uy) for i in range(0, u, step)]
        )
    la = np.fromiter((len(w) for w in ux), dtype=np.int64, count=u)
    lb = np.fromiter((len(w) for w in uy), dtype=np.int64, count=v)
    table = np.empty((u, v), dtype=np.float64)
    if u == 0 or v == 0:
        return table

    # character codes: 1.. for characters of the reference words, 0 (all
    # masks zero) for characters seen only in the hypothesis
    a_flat, a_owner, a_pos = _codepoints(ux)
    alphabet, a_code = np.unique(a_flat, return_inverse=True)
    in_lane = a_pos < _LANE_BITS
    peq = np.zeros((alphabet.size + 1, u), dtype=np.uint64)
    np.bitwise_or.at(
        peq,
        (a_code[in_lane] + 1, a_owner[in_lane]),
        np.left_shift(np.uint64(1), a_pos[in_lane].astype(np.uint64)),
    )

    b_flat, b_owner, b_pos = _codepoints(uy)
    found = np.searchsorted(alphabet, b_flat)
    hit = found < alphabet.size
    hit[hit] = alphabet[found[hit]] == b_flat[hit]
    order = np.argsort(-lb, kind="stable")
    rank = np.empty(v, dtype=np.int64)
    rank[order] = np.arange(v)
    max_b = int(lb[order[0]])
    # text[t, :k]: character t of the k hypothesis words still running
    text = np.zeros((max_b, v), dtype=np.intp)
    text[b_pos, rank[b_owner]] = np.where(hit, found + 1, 0)
    running = v - np.cumsum(np.bincount(lb, minlength=max_b + 1))[:max_b]

    shift = np.clip(la - 1, 0, _LANE_BITS - 1).astype(np.uint64)
    vp = np.full((v, u), np.iinfo(np.uint64).max, dtype=np.uint64)
    vn = np.zeros((v, u), dtype=np.uint64)
    score = np.tile(la.astype(np.uint64), (v, 1))
    for t in range(max_b):
        k = int(running[t])
        vp_k, vn_k, score_k = vp[:k], vn[:k], score[:k]
        x = peq[text[t, :k]]
        x |= vn_k
        d0 = x & vp_k
        d0 += vp_k
        d0 ^= vp_k
        d0 |= x
        hp = d0 | vp_k
        np.invert(hp, out=hp)
        hp |= vn_k
        hn = np.bitwise_and(d0, vp_k, out=x)
        # the last pattern row's horizontal delta moves the score; an hp and
        # an hn bit never coincide, so the running score never underflows
        score_k += (hp >> shift) & np.uint64(1)
        score_k -= (hn >> shift) & np.uint64(1)
        hp <<= np.uint64(1)
        hp |= np.uint64(1)
        hn <<= np.uint64(1)
        np.bitwise_or(d0, hp, out=vp_k)
        np.invert(vp_k, out=vp_k)
        vp_k |= hn
        np.bitwise_and(d0, hp, out=vn_k)
    table[:] = score[rank].T

    for i in np.flatnonzero((la == 0) | (la > _LANE_BITS)).tolist():
        table[i] = [_myers_distance(ux[i], w) for w in uy]
    return table


def _pair_table(
    x: Sequence[str], y: Sequence[str], mismatch_bonus: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Character edit distance for every unique (reference, hypothesis) word
    pair, plus each word's row or column in that table.

    Deduplicated through the vocabulary: corpora repeat words heavily, so
    unique pairs are far fewer than |x|*|y|.  `mismatch_bonus` is added to
    every unequal pair (the tie-break perturbation).
    """
    ux = sorted(set(x))
    uy = sorted(set(y))
    idx_x = {w: i for i, w in enumerate(ux)}
    idx_y = {w: i for i, w in enumerate(uy)}
    table = _unique_pair_table(ux, uy)
    if mismatch_bonus:
        table += mismatch_bonus
        for w in idx_x.keys() & idx_y.keys():
            table[idx_x[w], idx_y[w]] -= mismatch_bonus
    rows = np.fromiter((idx_x[w] for w in x), dtype=np.intp, count=len(x))
    cols = np.fromiter((idx_y[w] for w in y), dtype=np.intp, count=len(y))
    return table, rows, cols


def _assemble(
    x: Sequence[str],
    y: Sequence[str],
    gamma: float,
    mismatch_bonus: float = 0.0,
    dummy_bonus: float = 0.0,
) -> np.ndarray:
    """The square cost matrix, written into one allocation.

    The real-pair block is filled a row block at a time, so its only
    temporaries are block-sized.  Each cell is (pair + bonus) + gamma*|j-k|/n
    in exactly that operation order: the solver's choice among tied optima
    depends on the last bit of every cell.
    """
    n, m = len(x), len(y)
    side = n + m
    values = np.zeros((side, side), dtype=np.float64)
    if m:
        table, rows, cols = _pair_table(x, y, mismatch_bonus)
        k = np.arange(m, dtype=np.float64)
        step = max(1, _ASSEMBLE_BLOCK_CELLS // m)
        for start in range(0, n, step):
            stop = min(start + step, n)
            block = values[start:stop, :m]
            np.take(table[rows[start:stop]], cols, axis=1, out=block)
            reg = np.subtract.outer(np.arange(start, stop, dtype=np.float64), k)
            np.abs(reg, out=reg)
            reg *= gamma
            reg /= n
            block += reg
    # dummy partners: half the word length, displacement term fixed at 1
    x_len = np.fromiter((len(w) for w in x), dtype=np.float64, count=n)
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
    return CostMatrix(
        values=_assemble(x, y, gamma), n_ref=len(x), n_hyp=len(y), gamma=gamma
    )


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
    """
    _check_args(x, gamma)
    n, m = len(x), len(y)
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
    n = len(x)
    if n == 0:
        raise EmptyReferenceError("hWER is undefined for an empty reference")
    alignment = _canonical_solve(x, y, gamma)
    return hwer_errors(x, y, alignment) / n, alignment


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
