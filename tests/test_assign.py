import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pageval import assign
from pageval.assign import (
    build_cost_matrix,
    hcer_errors,
    hwer,
    hwer_errors,
    reorder_hypothesis,
    solve_assignment,
)
from pageval.bow import bwer
from pageval.core import Alignment, EmptyReferenceError, PageTranscript, StructureError

from conftest import (
    EX3_X,
    EX3_Y,
    EX3_Z,
    EX4_XY_ALIGNMENT,
    EX4_XZ_ALIGNMENT,
    TINY_X,
    TINY_Y,
    alignment_of,
    random_word,
)
from oracles import (
    alignment_cost_exact,
    assignment_cost_bruteforce,
    edit_trace_reference,
    is_optimal_assignment,
    lev_bruteforce,
)


def test_cost_matrix_cells():
    m = build_cost_matrix(["be"], ["be,"], gamma=0.0)
    assert m.values[0, 0] == 1.0
    m = build_cost_matrix(["ab"], [], gamma=0.0)
    assert m.values.shape == (1, 1)
    assert m.values[0, 0] == 1.0  # half the word length
    m = build_cost_matrix(["w"] * 10, ["w"] * 10, gamma=1.0)
    assert m.values[0, 2] == pytest.approx(2 / 10)
    # dummy blocks carry the fixed displacement term
    assert m.values[0, 10] == pytest.approx(len("w") / 2 + 1 / 10)
    assert m.values[10, 0] == pytest.approx(len("w") / 2 + 1 / 10)
    assert m.values[10, 10] == 0.0


def test_cost_matrix_rejects_bad_inputs():
    with pytest.raises(EmptyReferenceError):
        build_cost_matrix([], ["a"])
    with pytest.raises(StructureError):
        build_cost_matrix(["a"], ["a"], gamma=-1.0)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_non_finite_or_negative_gamma_rejected(gamma):
    with pytest.raises(StructureError, match="finite non-negative"):
        build_cost_matrix(["a"], ["b"], gamma)
    with pytest.raises(StructureError, match="finite non-negative"):
        hwer(["a"], ["b"], gamma)


def _vocab(rng: random.Random, alphabet: str, lengths) -> list[str]:
    return sorted({"".join(rng.choice(alphabet) for _ in range(n)) for n in lengths})


def _word(rng: random.Random, alphabet: str, n: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(n))


def _pair_costs(ux, uy):
    """Distance of every (ux, uy) pair, in input order, through the
    memoized reference side and the pair kernel."""
    ref = assign._reference_side(tuple(ux))
    table, cols = assign._pair_table(ref, uy)
    return table[ref.rows][:, cols]


def _pair_table_cases():
    rng = random.Random(61)
    short = [rng.randint(1, 7) for _ in range(14)]
    # lane edge: 63 and 64 fit one uint64 lane, 65 and ~80 take the fallback
    edges = [1, 63, 64, 65, 79, 80, 82]
    hyp_lengths = [0, 1, 2, 5, 9, 20, 31, 32, 33, 63, 64, 65, 70]
    return [
        pytest.param(_vocab(rng, "ab", short), _vocab(rng, "ab", short),
                     id="ab-alphabet"),
        pytest.param(_vocab(rng, "äöüßΩж漢é", short), _vocab(rng, "aäöß漢", short),
                     id="non-ascii"),
        pytest.param(_vocab(rng, "abc", short), _vocab(rng, "xyz#ЯbÆ", short),
                     id="hypothesis-only"),
        pytest.param(_vocab(rng, "abc", edges), _vocab(rng, "abcd", edges + [2, 40]),
                     id="lane-edge"),
        pytest.param(["", "a", "ab"], ["", "b", "ba"], id="empty-words"),
        # 32 one-character words fill one lane, separators and all
        pytest.param(list("abcdefghijklmnopqrstuvwxyzäöüßΩж"),
                     ["", "a", "ab", "ж", "Ωa", "zz", "x" * 5, "ba" * 4],
                     id="full-lane"),
        # 31 + 32 and 20 + 21 + 21 characters end exactly at bit 63
        pytest.param([_word(rng, "ab", n) for n in (31, 32, 20, 21, 21, 5)],
                     [_word(rng, "ab", n) for n in hyp_lengths], id="ends-at-bit-63"),
        # a 63- and a 64-character word each fill a lane alone, between
        # fallback words
        pytest.param([_word(rng, "abc", n) for n in (0, 63, 65, 64, 80, 1)],
                     [_word(rng, "abc", n) for n in hyp_lengths], id="lone-63-64"),
        pytest.param([_word(rng, "ab", n) for n in (1, 2, 3, 1, 4, 2)],
                     [_word(rng, "abx", n) for n in (9, 12, 40, 66, 5)],
                     id="long-hypothesis"),
        pytest.param(["ab", "\ud800x", "\udfff", "a\udc80\ud800"],
                     ["\ud800", "x\ud800", "ab", "\udc80\ud800b", ""],
                     id="lone-surrogates"),
        # dtype edge: 255 still fits uint8, 256 takes uint16; the empty and
        # disjoint words are exactly the longest word's length away
        pytest.param(["", "a", "ab", _word(rng, "ab", 255)],
                     ["", "b", _word(rng, "ab", 250), "x" * 255], id="uint8-255"),
        pytest.param(["", "a", _word(rng, "ab", 255), _word(rng, "ab", 256)],
                     ["", "ba", _word(rng, "ab", 255), "x" * 256], id="uint16-256"),
    ]


@pytest.mark.parametrize("ux,uy", _pair_table_cases())
def test_unique_pair_table_matches_bruteforce(ux, uy):
    got = _pair_costs(ux, uy)
    want = [[lev_bruteforce(a, b) for b in uy] for a in ux]
    assert got.dtype == np.min_scalar_type(max(map(len, ux + uy)))
    assert got.tolist() == want


def test_pack_lanes_layout():
    lane, offset, field, low, keep = assign._pack_lanes([1] * 32)
    assert lane.tolist() == [0] * 32
    assert offset.tolist() == list(range(0, 64, 2))
    assert low.tolist() == keep.tolist() == [0x5555_5555_5555_5555]
    # a 32-character word ends at bit 63 with no separator above it
    lane, offset, field, low, keep = assign._pack_lanes([31, 32, 1])
    assert lane.tolist() == [0, 0, 1]
    assert offset.tolist() == [0, 32, 0]
    assert field.tolist() == [2**31 - 1, 2**64 - 2**32, 1]
    assert low.tolist() == [1 | 2**32, 1]
    assert keep.tolist() == [2**64 - 1 - 2**31, 1]
    lane, offset, *_ = assign._pack_lanes([63, 64, 1, 62, 1])
    assert lane.tolist() == [0, 1, 2, 2, 3]
    assert offset.tolist() == [0, 0, 0, 2, 0]


def test_unique_pair_table_fuzz_matches_bruteforce():
    # random vocabularies: mostly short words, so most lanes pack several,
    # with some near and past the 64-bit lane edge
    rng = random.Random(71)
    for _ in range(300):
        alphabet = rng.choice(["ab", "abc", "aäΩ", "abcdefgh"])

        def length():
            r = rng.random()
            if r < 0.75:
                return rng.randint(0, 8)
            if r < 0.95:
                return rng.randint(9, 34)
            return rng.randint(60, 68)

        ux = sorted({_word(rng, alphabet, length()) for _ in range(rng.randint(1, 12))})
        uy = sorted({_word(rng, alphabet + "z", length()) for _ in range(rng.randint(1, 6))})
        rng.shuffle(ux)
        got = _pair_costs(ux, uy)
        assert got.tolist() == [[lev_bruteforce(a, b) for b in uy] for a in ux], (ux, uy)


def test_unique_pair_table_row_blocks(monkeypatch):
    rng = random.Random(67)
    ux = _vocab(rng, "abc", [rng.randint(1, 9) for _ in range(11)] + [70])
    uy = _vocab(rng, "abcx", [rng.randint(1, 9) for _ in range(5)])
    monkeypatch.setattr(assign, "_BLOCK_CELLS", 3 * len(uy))
    # lane blocks of at most 3 words: the short words fill more than one
    # lane and the first lane holds more than 3, so the kernel runs several
    # lane blocks, one of them a single lane over the bound
    ref = assign._reference_side(tuple(ux))
    assert len(ref.starts) > 2 and ref.starts[1] > 3
    got = _pair_costs(ux, uy)
    assert got.tolist() == [[lev_bruteforce(a, b) for b in uy] for a in ux]


def test_unique_pair_table_memory_is_bounded_by_row_blocks():
    # a 2,990 x 2,983 vocabulary: the uint8 table is 8.9 MB, and the traced
    # peak with the reference side built is 14.0 MB, since each lane
    # block's read-out holds at most 2**18 cells; read out for the whole
    # vocabulary at once, the (v, u) gathers and counts would take it past
    # twice the table
    rng = random.Random(73)

    def vocab(n):
        words = set()
        while len(words) < n:
            words.add(_word(rng, "abcdefghij", rng.randint(1, 12)))
        return sorted(words)

    ux, uy = vocab(2990), vocab(2983)
    tracemalloc.start()
    try:
        table = assign._pair_table(assign._reference_side(tuple(ux)), uy)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (2990, 2983)
    assert peak < 2 * table.nbytes


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        out = f(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_unique_pair_table_memory_is_not_sized_by_longest_hypothesis_word():
    # one 2,000-character token among some 700 short hypothesis words: the
    # kernel's text costs one slot per hypothesis character, so the token
    # adds kilobytes, not 2,000 slots per hypothesis word (~12 MB)
    rng = random.Random(79)
    ux = _vocab(rng, "abcdefghij", [rng.randint(1, 12) for _ in range(260)])
    uy = _vocab(rng, "abcdefghij", [rng.randint(1, 12) for _ in range(800)])
    token = _word(rng, "abcdefghij", 2000)
    ref = assign._reference_side(tuple(ux))
    _, short_peak = _traced_peak(assign._unique_pair_table, ref, uy)
    table, peak = _traced_peak(assign._unique_pair_table, ref, uy + [token])
    assert peak < short_peak + (1 << 20)
    # every hypothesis column, checked on a sample of reference rows; the
    # token's column against the textbook DP (lev_bruteforce's recursion is
    # as deep as the two words are long)
    for i in sorted(rng.sample(range(len(ux)), 12)):
        a = ux[i]
        assert table[i, :-1].tolist() == [lev_bruteforce(a, b) for b in uy]
        assert table[i, -1] == edit_trace_reference(a, token)[0]


def test_unique_pair_table_exact_past_uint16():
    # a 70,000-character reference word takes the bigint fallback, and its
    # distances pass 65,535
    rng = random.Random(89)
    ux = ["ab", _word(rng, "abc", 70_000)]
    uy = ["", "c", "abc", "xyz", _word(rng, "abcx", 5)]
    table = _pair_costs(ux, uy)
    assert table.dtype == np.uint32
    want = [[edit_trace_reference(a, b)[0] for b in uy] for a in ux]
    assert min(want[1]) > 65_535
    assert table.tolist() == want


def test_solver_is_scipys_linear_sum_assignment():
    import scipy.optimize

    assert assign.linear_sum_assignment is scipy.optimize.linear_sum_assignment


def test_solver_falls_back_to_public_import(monkeypatch):
    import importlib.machinery

    import scipy.optimize

    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    assert assign._load_lsap() is scipy.optimize.linear_sum_assignment


def _assemble_elementwise(x, y, gamma, mismatch_bonus, dummy_bonus):
    n, m = len(x), len(y)
    rows = [
        [
            (lev_bruteforce(a, b) + (mismatch_bonus if a != b else 0.0))
            + (gamma * abs(j - k)) / n
            for k, b in enumerate(y)
        ]
        + [len(a) / 2 + gamma / n + dummy_bonus] * n
        for j, a in enumerate(x)
    ]
    rows += [[len(b) / 2 + gamma / n + dummy_bonus for b in y] + [0.0] * n] * m
    return np.array(rows, dtype=np.float64)


@pytest.mark.parametrize("gamma", [0.0, 1e-4, 0.3, 1.0, 5.0])
def test_assemble_bitwise_equals_elementwise(monkeypatch, gamma):
    # row blocks of 7 cells: every page below spans several blocks, and a
    # block may be a single row; lopsided shapes read the regularizer from
    # either end of its mirrored vector
    monkeypatch.setattr(assign, "_BLOCK_CELLS", 7)
    rng = random.Random(int(gamma * 1e4) + 3)
    vocab = _vocab(rng, "abé", [0, 1, 2, 3, 5, 8, 66])
    for n, m in ((13, 5), (6, 11), (9, 9), (4, 0), (1, 3), (1, 40), (40, 1), (2, 2)):
        x = [rng.choice(vocab) for _ in range(n)]
        y = [rng.choice(vocab) for _ in range(m)]
        eps = 1e-8 / (n + m)
        got = assign._assemble(x, y, gamma, eps, eps / 2)
        want = _assemble_elementwise(x, y, gamma, eps, eps / 2)
        assert got.tobytes() == want.tobytes()


def test_solve_single_real_pair():
    alignment, cost = solve_assignment(build_cost_matrix(["x"], ["x"], 0.0))
    assert alignment.pairs == frozenset({(0, 0)})
    assert cost == 0.0


def test_solver_strips_dummy_dummy_pairs():
    alignment, _ = solve_assignment(build_cost_matrix(["aa", "bb"], ["aa"], 0.0))
    assert all(j is not None or k is not None for j, k in alignment.pairs)
    assert alignment.dummy_count == 1


def test_solver_matches_bruteforce_enumeration():
    rng = random.Random(17)
    for trial in range(40):
        n = rng.randint(1, 5)
        m = rng.randint(0, 5)
        x = [random_word(rng, 1, 3) for _ in range(n)]
        y = [random_word(rng, 1, 3) for _ in range(m)]
        gamma = rng.choice((0, 1))
        alignment, _ = solve_assignment(build_cost_matrix(x, y, float(gamma)))
        got = alignment_cost_exact(x, y, alignment.pairs, Fraction(gamma))
        want = assignment_cost_bruteforce(x, y, Fraction(gamma))
        assert got == want, (x, y, gamma)


def _noisy_zipf_page_pair(
    seed: int, n: int, vocab_size: int = 60
) -> tuple[list[str], list[str]]:
    """A reference of n words over a Zipf vocabulary of up to `vocab_size`
    words and a noisy, partly reordered hypothesis (substitutions,
    deletions, insertions and swapped 10-word blocks)."""
    rng = random.Random(seed)
    vocab = list({random_word(rng, 1, 7) for _ in range(vocab_size)})
    weights = [1 / (r + 1) for r in range(len(vocab))]
    x = rng.choices(vocab, weights, k=n)
    y = []
    for w in x:
        r = rng.random()
        if r < 0.04:
            continue
        if r < 0.08:
            y.append(rng.choice(vocab))
        elif r < 0.12:
            y.append(w[:-1] + random_word(rng, 1, 1))
        else:
            y.append(w)
        if rng.random() < 0.04:
            y.append(rng.choice(vocab))
    for _ in range(8):
        a, b = sorted(rng.sample(range(0, len(y) - 10, 10), 2))
        y[a : a + 10], y[b : b + 10] = y[b : b + 10], y[a : a + 10]
    return x, y


def _planted_tie_page_pair(seed: int, n: int) -> tuple[list[str], list[str]]:
    """n reference words and 2n hypothesis words: x[j] has a same-length
    one-edit neighbour at y[j] and an identical copy at y[j + n].

    At gamma = 1 both partners cost exactly 1.0 in float64 (1 + 0/n and
    0 + n/n), and the partner left over costs the same dummy either way, so
    every mix of the two is cost-optimal; only the copies give the lowest
    hWER.  Every word is made of fresh code points, so a word shares
    characters only with its own neighbour and copy.
    """
    rng = random.Random(seed)
    fresh = iter(rng.sample(range(0x4E00, 0x4E00 + 6 * n), 6 * n))
    x, neighbours = [], []
    for _ in range(n):
        word = [chr(next(fresh)) for _ in range(rng.randint(3, 5))]
        x.append("".join(word))
        word[rng.randrange(len(word))] = chr(next(fresh))
        neighbours.append("".join(word))
    return x, neighbours + x


def _lev_table(ux: list[str], uy: list[str]) -> np.ndarray:
    # words with no character in common are max(len) apart: no aligned
    # character pair matches, and the longer word needs one operation each
    sets = [set(b) for b in uy]
    return np.array(
        [
            [
                max(len(a), len(b)) if sb.isdisjoint(a) else lev_bruteforce(a, b)
                for b, sb in zip(uy, sets)
            ]
            for a in ux
        ],
        dtype=np.int64,
    )


def _assert_exact_lexicographic_optimum(x: list[str], y: list[str]) -> None:
    # The epsilon tie-break must land on the exact (cost, hWER) optimum of
    # the square layout.  Costs are scaled by 2n to integers (gamma = 1):
    # real cells 2n*lev + 2|j-k|, dummy cells n*len + 2.  The second key is
    # twice the hWER numerator less b: 2 per mismatched real pair, 1 per
    # dummy pair.  K exceeds any key sum, so cost*K + key orders
    # matchings by cost, then by hWER, and stays far below 2**53.
    from scipy.optimize import linear_sum_assignment

    n, m = len(x), len(y)
    ux, uy = sorted(set(x)), sorted(set(y))
    lev = _lev_table(ux, uy)
    rows = np.searchsorted(np.array(ux), np.array(x))
    cols = np.searchsorted(np.array(uy), np.array(y))
    cost = np.zeros((n + m, n + m), dtype=np.int64)
    key = np.zeros_like(cost)
    j = np.arange(n)[:, None]
    k = np.arange(m)[None, :]
    cost[:n, :m] = 2 * n * lev[rows][:, cols] + 2 * np.abs(j - k)
    key[:n, :m] = 2 * (np.array(x)[:, None] != np.array(y)[None, :])
    cost[:n, m:] = (n * np.array([len(w) for w in x]) + 2)[:, None]
    cost[n:, :m] = (n * np.array([len(w) for w in y]) + 2)[None, :]
    key[:n, m:] = key[n:, :m] = 1
    big_k = 2 * (n + m) + 1
    combined = cost * big_k + key
    assert combined.sum() < 2**53
    r, c = linear_sum_assignment(combined.astype(np.float64))
    best_cost, best_key = divmod(int(combined[r, c].sum()), big_k)

    rate, alignment = hwer(x, y, 1.0)
    got_cost = got_key = 0
    for jj, kk in alignment.pairs:
        cell = (jj if jj is not None else n, kk if kk is not None else m)
        got_cost += int(cost[cell])
        got_key += int(key[cell])
    b = abs(n - m)
    assert (got_cost, got_key) == (best_cost, best_key)
    assert round(rate * n) == (best_key + b) // 2 == hwer_errors(x, y, alignment)


def test_assemble_memory_is_the_square_matrix():
    # a ~1,000 x 1,000-word page with some 400 unique words a side: beyond
    # the matrix, only one row block's read-out (a 2 MB uint64 gather and
    # its small counts) may be held at a time
    x, y = _noisy_zipf_page_pair(seed=37, n=1000, vocab_size=2000)
    eps = 1e-8 / (len(x) + len(y))
    values, peak = _traced_peak(assign._assemble, x, y, 1.0, eps, eps / 2)
    assert values.shape == (len(x) + len(y),) * 2
    assert peak < values.nbytes + (4 << 20)


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_hwer_alignment_is_certified_optimal_on_300_word_pages(seed):
    # past the exhaustive oracles' 7 words a side: a solver-free
    # certificate that no cyclic exchange lowers (cost, hWER numerator),
    # on pages with word noise and swapped 10-word lines
    x, y = _noisy_zipf_page_pair(seed, n=300)
    _, alignment = hwer(x, y, 1.0)
    assert is_optimal_assignment(x, y, alignment.pairs)


def test_optimality_certificate_refuses_an_exchange_across_the_page():
    # the first and last reference words trade partners: each pair's
    # displacement grows by some 300 words
    x, y = _noisy_zipf_page_pair(41, n=300)
    _, alignment = hwer(x, y, 1.0)
    real = sorted((j, k) for j, k in alignment.pairs if j is not None and k is not None)
    p, q = real[0], real[-1]
    swapped = (alignment.pairs - {p, q}) | {(p[0], q[1]), (q[0], p[1])}
    assert not is_optimal_assignment(x, y, swapped)


def _exact_total(x, y, pairs) -> Fraction:
    # the certificate's objective, from the exact rational cost: cost*2n*K
    # plus 2 per mismatched real pair and 1 per dummy pair
    n, m = len(x), len(y)
    key = sum(1 if j is None or k is None else 2 * (x[j] != y[k]) for j, k in pairs)
    return alignment_cost_exact(x, y, pairs, 1) * 2 * n * (2 * (n + m) + 1) + key


def test_optimality_certificate_agrees_with_exact_costs_on_swapped_partners():
    # every exchange of partners between two real pairs of an optimal
    # alignment: optimal exactly when it keeps the optimum's exact total
    rng = random.Random(47)
    verdicts = []
    for _ in range(12):
        x = [rng.choice(("a", "ab", "b")) for _ in range(rng.randint(3, 6))]
        y = [rng.choice(("a", "ab", "b", "ba")) for _ in range(rng.randint(3, 6))]
        _, alignment = hwer(x, y, 1.0)
        best = _exact_total(x, y, alignment.pairs)
        real = [(j, k) for j, k in alignment.pairs if j is not None and k is not None]
        for p, q in itertools.combinations(real, 2):
            swapped = (alignment.pairs - {p, q}) | {(p[0], q[1]), (q[0], p[1])}
            verdict = is_optimal_assignment(x, y, swapped)
            assert verdict == (_exact_total(x, y, swapped) == best), (x, y, p, q)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize(
    ("readings", "fits"),
    [([], True), ([100], True), ([99], False), ([50, 100], True), ([50, 99], False)],
)
def test_check_fits_against_every_memory_reading(monkeypatch, readings, fits):
    # 100 bytes fit if one reading allows them; no reading, no check
    monkeypatch.setattr(assign, "_memory_readings", lambda: iter(readings))
    if fits:
        assign._check_fits(100)
    else:
        with pytest.raises(MemoryError):
            assign._check_fits(100)


def test_check_fits_takes_the_second_reading_only_when_short(monkeypatch):
    taken = []

    def readings():
        taken.append("free")
        yield 100
        taken.append("available")
        yield 200

    monkeypatch.setattr(assign, "_memory_readings", readings)
    assign._check_fits(100)
    assert taken == ["free"]
    assign._check_fits(150)
    assert taken == ["free", "free", "available"]


def test_memory_readings_are_byte_counts():
    readings = list(assign._memory_readings())
    assert all(isinstance(r, int) and r > 0 for r in readings)


def test_hwer_tie_break_is_exactly_lexicographic_at_scale():
    _assert_exact_lexicographic_optimum(*_noisy_zipf_page_pair(seed=31, n=1000))


def test_hwer_tie_break_is_exactly_lexicographic_on_planted_ties():
    # cost-optimal matchings of different hWER: fails without the tie-break
    _assert_exact_lexicographic_optimum(*_planted_tie_page_pair(seed=32, n=700))


def test_listed_alignments_are_cost_optimal_at_gamma_zero():
    for y, listed in ((EX3_Y, EX4_XY_ALIGNMENT), (EX3_Z, EX4_XZ_ALIGNMENT)):
        alignment, cost = solve_assignment(build_cost_matrix(EX3_X, y, 0.0))
        listed_cost = alignment_cost_exact(EX3_X, y, listed, Fraction(0))
        solver_cost = alignment_cost_exact(EX3_X, y, alignment.sorted_pairs(), Fraction(0))
        assert listed_cost == solver_cost
        assert cost == pytest.approx(float(solver_cost))


def test_hwer_worked_examples():
    for gamma in (0.0, 1.0):
        rate, alignment = hwer(EX3_X, EX3_Y, gamma)
        assert rate == pytest.approx(1 / 14)
        alignment.validate(len(EX3_X), len(EX3_Y))
        rate, _ = hwer(EX3_X, EX3_Z, gamma)
        assert rate == pytest.approx(3 / 14)
    assert hwer(EX3_X, EX3_X, 1.0)[0] == 0.0


def test_hwer_numerator_from_listed_alignments():
    assert hwer_errors(EX3_X, EX3_Y, alignment_of(EX4_XY_ALIGNMENT)) == 1
    assert hwer_errors(EX3_X, EX3_Z, alignment_of(EX4_XZ_ALIGNMENT)) == 3


def test_hwer_tie_case():
    # two cost-optimal alignments disagree on the word mismatch count; the
    # canonical tie-break reports the lower one, and the regularizer makes
    # the sequential (higher) one strictly optimal
    rate0, _ = hwer(TINY_X, TINY_Y, 0.0)
    assert rate0 == 0.25
    rate1, alignment = hwer(TINY_X, TINY_Y, 1.0)
    assert rate1 == 0.5
    got = alignment_cost_exact(TINY_X, TINY_Y, alignment.sorted_pairs(), Fraction(1))
    assert got == assignment_cost_bruteforce(TINY_X, TINY_Y, Fraction(1))


def _counting_solver(monkeypatch):
    calls = []
    real = assign.linear_sum_assignment

    def counting(values):
        calls.append(values.shape)
        return real(values)

    monkeypatch.setattr(assign, "linear_sum_assignment", counting)
    return calls


def _solved_alignment(x, y, gamma):
    # `_canonical_solve`'s solver path: the same bonuses, then the solve
    n, m = len(x), len(y)
    eps = 1e-8 / (n + m)
    values = assign._assemble(x, y, gamma, mismatch_bonus=eps, dummy_bonus=eps / 2)
    return assign._decode_pairs(*assign.linear_sum_assignment(values), n, m)


@pytest.mark.parametrize("gamma", [1.0, 1e-3, 1e-300])
def test_unchanged_page_gets_the_solvers_identity_without_a_solve(monkeypatch, gamma):
    # pages with repeated words, where any off-diagonal pair of equal words
    # costs only gamma*|j-k|/n
    rng = random.Random(37)
    pages = [["a"], ["a", "a"], ["ab", "b", "ab", "ab", "b"]]
    pages += [
        [rng.choice(["a", "b", "ab", "ba"]) for _ in range(rng.randint(2, 40))]
        for _ in range(12)
    ]
    solved = [_solved_alignment(x, list(x), gamma) for x in pages]
    calls = _counting_solver(monkeypatch)
    for x, want in zip(pages, solved):
        rate, alignment = hwer(x, list(x), gamma)
        assert alignment == want == Alignment(frozenset((j, j) for j in range(len(x))))
        assert rate == 0.0
    assert calls == []


@pytest.mark.parametrize("gamma", [0.0, 5e-324])
def test_unchanged_page_is_solved_when_gamma_over_n_is_zero(monkeypatch, gamma):
    # at gamma 0, or at the smallest subnormal over n >= 2, equal words tie
    # at every position, so the solver decides
    x = ["a", "b", "a", "a"]
    assert gamma / len(x) == 0.0
    calls = _counting_solver(monkeypatch)
    rate, alignment = hwer(x, list(x), gamma)
    assert calls == [(8, 8)]
    assert rate == 0.0
    assert alignment.dummy_count == 0
    assert all(x[j] == x[k] for j, k in alignment.pairs)
    # one word: 5e-324 / 1 is still positive
    assert hwer(["a"], ["a"], gamma)[1] == Alignment(frozenset({(0, 0)}))
    assert len(calls) == (2 if gamma == 0.0 else 1)


def test_hwer_empty_hypothesis_all_deletions():
    rate, alignment = hwer(["ab", "cd"], [], 1.0)
    assert rate == 1.0
    assert alignment.dummy_count == 2


def test_hwer_empty_reference_rejected():
    with pytest.raises(EmptyReferenceError):
        hwer([], ["a"], 1.0)


def test_dummy_pairs_at_least_length_gap():
    rng = random.Random(23)
    for _ in range(200):
        x = [random_word(rng, 1, 4) for _ in range(rng.randint(1, 10))]
        y = [random_word(rng, 1, 4) for _ in range(rng.randint(0, 10))]
        _, alignment = hwer(x, y, 0.0)
        assert alignment.dummy_count >= abs(len(x) - len(y))


def test_bwer_never_exceeds_hwer_at_gamma_zero():
    rng = random.Random(29)
    for _ in range(200):
        x = [random_word(rng, 1, 3) for _ in range(rng.randint(1, 12))]
        y = [random_word(rng, 1, 3) for _ in range(rng.randint(0, 12))]
        assert bwer(x, y)[0] <= hwer(x, y, 0.0)[0] + 1e-12


def test_hwer_invariant_under_hypothesis_permutation_at_gamma_zero():
    rng = random.Random(37)
    for _ in range(150):
        x = [random_word(rng, 1, 2) for _ in range(rng.randint(1, 8))]
        y = [random_word(rng, 1, 2) for _ in range(rng.randint(0, 8))]
        base, _ = hwer(x, y, 0.0)
        perm = list(y)
        rng.shuffle(perm)
        assert hwer(x, perm, 0.0)[0] == pytest.approx(base, abs=1e-12)


def test_reorder_hypothesis_layout():
    x = ["one", "two", "three"]
    y = ["three", "extra", "one"]
    alignment = alignment_of([(0, 2), (2, 0), (1, None), (None, 1)])
    assert reorder_hypothesis(x, y, alignment) == ["one", "three", "extra"]


def test_reorder_rejects_inconsistent_alignment():
    with pytest.raises(StructureError):
        reorder_hypothesis(["a"], ["b"], alignment_of([(0, 5)]))
    with pytest.raises(StructureError):
        reorder_hypothesis(["a", "b"], ["c"], alignment_of([(0, 0), (1, 0)]))


def hcer(x, y, alignment) -> float:
    return hcer_errors(x, y, alignment) / PageTranscript((tuple(x),)).char_count


def test_hcer_worked_examples():
    _, alignment = hwer(EX3_X, EX3_Y, 1.0)
    assert round(100 * hcer(EX3_X, EX3_Y, alignment), 1) == 8.1
    _, alignment = hwer(EX3_X, EX3_Z, 1.0)
    assert round(100 * hcer(EX3_X, EX3_Z, alignment), 1) == 16.1
    # same values straight from the listed gamma=0 alignments
    assert round(100 * hcer(EX3_X, EX3_Y, alignment_of(EX4_XY_ALIGNMENT)), 1) == 8.1


def test_hcer_identity():
    x = ["same", "words"]
    ident = alignment_of([(0, 0), (1, 1)])
    assert hcer(x, x, ident) == 0.0


def test_gamma_zero_solution_still_canonical_under_column_scaling():
    # sanity: scaling-independent structure, cost recomputed from pairs
    x = ["aa", "bb", "cc"]
    y = ["bb", "aa", "cc"]
    _, alignment = hwer(x, y, 0.0)
    for j, k in alignment.pairs:
        if j is not None and k is not None:
            assert x[j] == y[k]


def test_cost_matrix_is_pure_per_spec_values():
    x = ["ab", "c"]
    y = ["ab"]
    m = build_cost_matrix(x, y, gamma=2.0)
    n = len(x)
    assert m.values.shape == (3, 3)
    assert m.values[0, 0] == pytest.approx(0 + 2.0 * 0 / n)
    assert m.values[1, 0] == pytest.approx(2 + 2.0 * 1 / n)
    assert np.all(m.values >= 0)
