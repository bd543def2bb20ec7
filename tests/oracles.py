"""Independent brute-force oracles used to pin expected values.

These stay deliberately naive (plain recursion, exhaustive enumeration,
exact rational arithmetic) and share no code with the library paths they
check.  The one exception to naive is the assignment optimality
certificate, which runs Bellman-Ford on numpy arrays so that it can check
pages of hundreds of words.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Sequence

import numpy as np


def edit_distance_bruteforce(x: Sequence, y: Sequence) -> int:
    """Unit-cost edit distance by plain recursion over suffix pairs.

    Memoized within one call (a fresh cache per call, keyed by the suffix
    start indices), so it runs in O(|x|*|y|) steps instead of exponential
    time; the recursion itself is the textbook definition.
    """
    x, y = tuple(x), tuple(y)

    @lru_cache(maxsize=None)
    def dist(i: int, j: int) -> int:
        if i == len(x):
            return len(y) - j
        if j == len(y):
            return len(x) - i
        return min(
            dist(i + 1, j + 1) + (x[i] != y[j]),
            dist(i + 1, j) + 1,
            dist(i, j + 1) + 1,
        )

    return dist(0, 0)


def edit_trace_reference(x: Sequence, y: Sequence):
    """Textbook full-table Wagner-Fischer DP with a backtrace.

    Every cell is min(diagonal + mismatch, up + 1, left + 1).  The backtrace
    walks from the last cell and prefers the diagonal (match or
    substitution), then deletion, then insertion.  Returns (distance,
    (insertions, substitutions, deletions, correct), pairs), where pairs are
    (i, j) index pairs in order with None on the empty side.
    """
    n, m = len(x), len(y)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(m + 1):
            if i == 0 or j == 0:
                table[i][j] = i + j
            else:
                table[i][j] = min(
                    table[i - 1][j - 1] + (x[i - 1] != y[j - 1]),
                    table[i - 1][j] + 1,
                    table[i][j - 1] + 1,
                )
    ins = sub = dele = corr = 0
    pairs = []
    i, j = n, m
    while i or j:
        if i and j and table[i][j] == table[i - 1][j - 1] + (x[i - 1] != y[j - 1]):
            if x[i - 1] == y[j - 1]:
                corr += 1
            else:
                sub += 1
            i, j = i - 1, j - 1
            pairs.append((i, j))
        elif i and table[i][j] == table[i - 1][j] + 1:
            dele += 1
            i -= 1
            pairs.append((i, None))
        else:
            ins += 1
            j -= 1
            pairs.append((None, j))
    return table[n][m], (ins, sub, dele, corr), tuple(reversed(pairs))


def bag_distance_counter(x: Sequence[str], y: Sequence[str]) -> int:
    """Bag distance B: the summed absolute difference of each word's
    occurrence counts on the two sides."""
    fx, fy = Counter(x), Counter(y)
    return sum(abs(fx[w] - fy[w]) for w in set(x) | set(y))


def lev_bruteforce(a: str, b: str) -> int:
    return edit_distance_bruteforce(list(a), list(b))


def replay_trace(x: Sequence[str], y: Sequence[str], pairs) -> list[str]:
    """Apply the trace's edit operations to x; must reproduce y."""
    out: list[str] = []
    consumed = []
    for j, k in pairs:
        if j is not None and k is not None:
            consumed.append(j)
            out.append(y[k])  # match or substitution target
        elif j is not None:
            consumed.append(j)  # deletion: emit nothing
        else:
            out.append(y[k])  # insertion
    assert consumed == list(range(len(x))), "trace must consume x in order"
    return out


def assignment_cost_bruteforce(
    x: Sequence[str], y: Sequence[str], gamma: int | Fraction
) -> Fraction:
    """Exact minimum assignment cost by enumerating every matching.

    Words may pair with each other or with dummies; costs follow the
    regularized scheme with |j - dummy| fixed at 1.  Internally everything
    is scaled by 2n so the enumeration runs on plain integers for integer
    gamma; the returned value is the exact rational cost.
    """
    n, m = len(x), len(y)
    assert n > 0
    gamma = Fraction(gamma)
    scale = 2 * n * gamma.denominator
    gnum = gamma.numerator

    # pair and dummy costs, scaled by 2n * gamma.denominator
    pair = [
        [
            scale * lev_bruteforce(a, b) + 2 * gnum * abs(j - k)
            for k, b in enumerate(y)
        ]
        for j, a in enumerate(x)
    ]
    dummy_x = [scale * len(w) // 2 + 2 * gnum for w in x]
    dummy_y = [scale * len(w) // 2 + 2 * gnum for w in y]
    all_dummies = sum(dummy_x) + sum(dummy_y)

    best = all_dummies  # the empty matching
    for k in range(1, min(n, m) + 1):
        for xs in combinations(range(n), k):
            unmatched_x = all_dummies - sum(dummy_x[j] for j in xs)
            for ys in permutations(range(m), k):
                cost = unmatched_x - sum(dummy_y[kk] for kk in ys)
                for j, kk in zip(xs, ys):
                    cost += pair[j][kk]
                if cost < best:
                    best = cost
    return Fraction(best, scale)


def alignment_cost_exact(
    x: Sequence[str], y: Sequence[str], pairs, gamma: int | Fraction
) -> Fraction:
    """Exact cost of a specific alignment under the same scheme."""
    n = len(x)
    gamma = Fraction(gamma)
    cost = Fraction(0)
    for j, k in pairs:
        if j is not None and k is not None:
            cost += lev_bruteforce(x[j], y[k]) + gamma * Fraction(abs(j - k), n)
        elif j is not None:
            cost += Fraction(len(x[j]), 2) + Fraction(gamma, n)
        else:
            cost += Fraction(len(y[k]), 2) + Fraction(gamma, n)
    return cost


def square_assignment_costs(x: Sequence[str], y: Sequence[str]) -> np.ndarray:
    """The hWER assignment at gamma = 1 as exact integers, ties included.

    Square layout: rows are the n reference words, then m dummy rows;
    columns are the m hypothesis words, then n dummy columns.  Costs are
    scaled by 2n: a real pair costs 2n*lev + 2|j - k|, a word against a
    dummy n*len + 2, dummy against dummy 0.  Each cost is multiplied by
    K = 2(n + m) + 1 and a tie key is added: 2 per mismatched real pair, 1
    per dummy pair.  K exceeds any key sum, so a matching's total orders
    matchings by cost, then by hWER numerator.
    """
    n, m = len(x), len(y)
    lev = {(a, b): lev_bruteforce(a, b) for a in set(x) for b in set(y)}
    big_k = 2 * (n + m) + 1
    costs = np.zeros((n + m, n + m), dtype=np.int64)
    for j, a in enumerate(x):
        costs[j, :m] = [
            (2 * n * lev[a, b] + 2 * abs(j - k)) * big_k + 2 * (a != b)
            for k, b in enumerate(y)
        ]
        costs[j, m:] = (n * len(a) + 2) * big_k + 1
    for k, b in enumerate(y):
        costs[n:, k] = (n * len(b) + 2) * big_k + 1
    return costs


def is_optimal_assignment(x: Sequence[str], y: Sequence[str], pairs) -> bool:
    """Whether alignment `pairs` ((j, k), (j, None) or (None, k)) minimizes
    `square_assignment_costs`, decided without an assignment solver.

    The alignment is completed to a row-to-column permutation sigma of the
    square layout: a word paired with None takes any free dummy, and the
    left-over dummy rows take the left-over dummy columns.  Dummy cells are
    equal along each row and column, so every such completion costs the
    same.  sigma is optimal if and only if no cyclic exchange lowers the
    total: row i taking column sigma(i') changes it by
    W[i, i'] = C[i, sigma(i')] - C[i', sigma(i')], so the test is that the
    graph W has no negative cycle, found by Bellman-Ford from a virtual
    source joined to every node.
    """
    n, m = len(x), len(y)
    costs = square_assignment_costs(x, y)
    free_rows, free_cols = iter(range(n, n + m)), iter(range(m, m + n))
    sigma = [-1] * (n + m)
    for j, k in pairs:
        sigma[next(free_rows) if j is None else j] = next(free_cols) if k is None else k
    for row in free_rows:
        sigma[row] = next(free_cols)
    assert sorted(sigma) == list(range(n + m)), "not a perfect matching"
    weights = costs[:, sigma] - costs[np.arange(n + m), sigma]
    dist = np.zeros(n + m, dtype=np.int64)
    # shortest paths from the source have at most n + m edges, so without a
    # negative cycle the last of these passes changes nothing
    for _ in range(n + m):
        relaxed = (dist[:, None] + weights).min(axis=0)
        if np.array_equal(relaxed, dist):
            return True
        dist = relaxed
    return False
