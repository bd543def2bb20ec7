import random
import sys
import tracemalloc
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pageval.core import EditCounts, PageTranscript, Trace
from pageval.editdist import _myers_distance, char_distance, edit_distance

from conftest import EX1_X, EX1_Y
from oracles import (
    edit_distance_bruteforce,
    edit_trace_reference,
    lev_bruteforce,
    replay_trace,
)

words = st.lists(st.sampled_from(["a", "b", "ab", "ba", "abc"]), max_size=6)


def test_word_distance_worked_example():
    dist, counts, trace = edit_distance(EX1_X, EX1_Y)
    assert dist == 5
    assert (counts.insertions, counts.substitutions, counts.deletions) == (1, 2, 2)
    assert counts.correct == 6
    trace.validate(len(EX1_X), len(EX1_Y))


def test_word_distance_identity_and_empty():
    dist, counts, _ = edit_distance(EX1_X, EX1_X)
    assert dist == 0 and counts.correct == len(EX1_X)
    dist, counts, _ = edit_distance(["a", "b"], [])
    assert dist == 2 and counts.deletions == 2
    dist, counts, _ = edit_distance([], [])
    assert dist == 0


def _page(words) -> PageTranscript:
    return PageTranscript((tuple(words),), "p")


def test_char_distance_worked_example():
    dist = char_distance(EX1_X, EX1_Y)
    assert dist == 14
    # the operation counts, from the oracle DP on the single-space joined text
    ref_dist, (ins, sub, dele, corr), _ = edit_trace_reference(
        " ".join(EX1_X), " ".join(EX1_Y)
    )
    assert ref_dist == dist
    assert (ins, sub, dele) == (4, 2, 8)
    assert sub + dele + corr == _page(EX1_X).char_count == 40
    # CER = 14/40 = 35%
    assert Fraction(dist, _page(EX1_X).char_count) == Fraction(14, 40)


def test_char_distance_trivial_cases():
    assert char_distance(["same"], ["same"]) == 0
    assert char_distance(["be"], ["be,"]) == 1
    assert char_distance(["be"], ["be,"]) == lev_bruteforce("be", "be,")


def test_distance_symmetry_small_random():
    rng = random.Random(99)
    for _ in range(150):
        x = [rng.choice("ab c") for _ in range(rng.randint(0, 6))]
        y = [rng.choice("ab c") for _ in range(rng.randint(0, 6))]
        x = [w for w in x if w.strip()]
        y = [w for w in y if w.strip()]
        dxy, cxy, _ = edit_distance(x, y)
        dyx, cyx, _ = edit_distance(y, x)
        assert dxy == dyx
        assert (cxy.insertions, cxy.deletions) == (cyx.deletions, cyx.insertions)
        assert cxy.substitutions == cyx.substitutions


@settings(deadline=None, max_examples=150)
@given(words, words, words)
def test_triangle_inequality_vs_bruteforce(x, y, z):
    dxz = edit_distance(x, z)[0]
    assert dxz == edit_distance_bruteforce(x, z)
    assert dxz <= edit_distance(x, y)[0] + edit_distance(y, z)[0]


@settings(deadline=None, max_examples=200)
@given(words, words)
def test_trace_replay_reconstructs_hypothesis(x, y):
    _, _, trace = edit_distance(x, y)
    trace.validate(len(x), len(y))
    assert replay_trace(x, y, trace.pairs) == list(y)


def _assert_matches_reference(x, y):
    ref_dist, ref_counts, ref_pairs = edit_trace_reference(x, y)
    assert edit_distance(x, y) == (ref_dist, EditCounts(*ref_counts), Trace(ref_pairs))


def test_edit_distance_matches_reference_tie_order():
    # alphabets of 2-3 items tie many cells, so the backtrace preference
    # (diagonal, then deletion, then insertion) decides most traces
    rng = random.Random(6)
    for _ in range(5000):
        alphabet = "abc"[: rng.randint(2, 3)]
        x = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        y = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        _assert_matches_reference(x, y)
        _assert_matches_reference(y, x)


def test_edit_distance_with_a_shared_suffix_matches_reference():
    # the table leaves out the word suffix both sides share: a forced suffix
    # of every length from 0, on alphabets of 2-3 items whose ties make the
    # backtrace preference decide most traces
    rng = random.Random(13)
    for _ in range(300):
        alphabet = "abc"[: rng.randint(2, 3)]

        def draw(k):
            return [rng.choice(alphabet) for _ in range(k)]

        hx, hy = draw(rng.randint(0, 8)), draw(rng.randint(0, 8))
        for s in range(7):
            tail = draw(s)
            for x, y in (
                (hx + tail, hy + tail),
                (tail, hy + tail),  # the suffix is all of the shorter side
                (hx + tail, tail),
                (tail, list(tail)),  # identical sequences
                ([], hy + tail),  # one empty side
            ):
                _assert_matches_reference(x, y)
                _assert_matches_reference(y, x)


def test_edit_distance_block_fill_matches_reference_at_every_row_residue():
    # the table is filled four rows per pass, the last block padded with
    # rows that match no word: x's table rows (its length n - s once the
    # shared suffix s is left out) take every residue mod 4, as do n and s,
    # with y shorter than 4 words, longer, or empty; 2-3-item alphabets
    # tie many cells, so the backtrace preference decides most traces
    rng = random.Random(15)
    for _ in range(3):
        alphabet = "abc"[: rng.randint(2, 3)]

        def draw(k):
            return [rng.choice(alphabet) for _ in range(k)]

        for rows in range(10):
            for cols in range(10):
                for s in range(5):
                    hx, hy, tail = draw(rows), draw(cols), draw(s)
                    if hx and hy and hx[-1] == hy[-1]:
                        # the suffix the two share is exactly `tail`
                        hy[-1] = next(w for w in alphabet if w != hx[-1])
                    _assert_matches_reference(hx + tail, hy + tail)
                    _assert_matches_reference(hy + tail, hx + tail)


def test_edit_distance_block_fill_matches_reference_on_long_pairs():
    # every residue of the row count mod 4, with cell values above 256
    rng = random.Random(16)
    vocab = ["a", "b", "c"]
    y = [rng.choice(vocab) for _ in range(300)] + ["d"]
    for n in range(600, 604):
        x = [rng.choice(vocab) for _ in range(n)]
        assert edit_distance(x, y)[0] > 256
        _assert_matches_reference(x, y)
        _assert_matches_reference(y, x)


def test_edit_distance_keeps_the_trace_a_shared_prefix_would_change():
    # only the suffix is trimmed: the full backtrace from [a] to [a, a]
    # inserts the first `a` and matches the second
    assert edit_distance(["a"], ["a", "a"]) == (
        1, EditCounts(1, 0, 0, 1), Trace(((None, 0), (0, 1)))
    )


def test_identical_sequences_build_no_table():
    # a full table of 3,000 x 3,000 words would take some 72 MB
    x = [f"w{i % 50}" for i in range(3000)]
    tracemalloc.start()
    try:
        dist, counts, trace = edit_distance(x, list(x))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (dist, counts) == (0, EditCounts(0, 0, 0, 3000))
    assert trace.pairs == tuple((j, j) for j in range(3000))
    assert peak < 1 << 20


def test_edit_distance_matches_reference_on_a_long_pair():
    # cell values above 256 are past CPython's cached small ints
    rng = random.Random(7)
    vocab = [f"w{i}" for i in range(8)]
    x = [rng.choice(vocab) for _ in range(600)]
    y = [rng.choice(vocab) for _ in range(590)]
    assert edit_distance(x, y)[0] > 256
    _assert_matches_reference(x, y)


def test_word_table_costs_one_pointer_per_cell():
    # 1,001 x 1,001 cells at 8 bytes are ~8 MB; an int object per cell
    # would be about 30 MB
    rng = random.Random(8)
    vocab = [f"w{i}" for i in range(60)]
    x = [rng.choice(vocab) for _ in range(1000)]
    y = [rng.choice(vocab) for _ in range(1000)]
    tracemalloc.start()
    try:
        edit_distance(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_levenshtein_matches_bruteforce_on_short_strings():
    rng = random.Random(4)
    for _ in range(200):
        a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 4)))
        b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 4)))
        assert _myers_distance(a, b) == lev_bruteforce(a, b)


def test_myers_distance_matches_bruteforce_on_edge_strings():
    # empty sides, non-ASCII and hypothesis-only characters, and lengths
    # whose bit vectors span two or three 64-bit machine words
    rng = random.Random(5)
    alphabet = "abäΩж"
    cases = [("", ""), ("", "aΩ"), ("жä", ""), ("Ωж", "ΩЯ"), ("é" * 70, "e" * 70)]
    for _ in range(30):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(63, 130)))
        b = "".join(rng.choice(alphabet + "qЯ") for _ in range(rng.randint(0, 130)))
        cases.append((a, b))
    for a, b in cases:
        assert _myers_distance(a, b) == lev_bruteforce(a, b)
        assert _myers_distance(b, a) == lev_bruteforce(a, b)


def test_myers_distance_matches_bruteforce_at_digit_boundaries():
    # CPython ints are stored in 30-bit digits: patterns of 29-31, 59-61 and
    # 89-91 characters put the top bit and the carry out on either side of
    # a digit edge
    rng = random.Random(6)
    for m in (29, 30, 31, 59, 60, 61, 89, 90, 91):
        for _ in range(4):
            a = "".join(rng.choice("abж") for _ in range(m))
            b = "".join(rng.choice("abжq") for _ in range(rng.randint(m - 3, m + 40)))
            assert _myers_distance(a, b) == lev_bruteforce(a, b)
            assert _myers_distance(b, a) == lev_bruteforce(a, b)
        # at equal lengths `a` stays the pattern, in the first order only
        b = "".join(rng.choice("ab") for _ in range(m))
        assert _myers_distance(a, b) == lev_bruteforce(a, b)


def _lev(a, b):
    # the oracle recurses about len(a) + len(b) frames deep
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 3 * (len(a) + len(b)) + 200))
    try:
        return lev_bruteforce(a, b)
    finally:
        sys.setrecursionlimit(limit)


def test_myers_distance_call_sequence_matches_oracle():
    # the one-entry memo answers a call only when it repeats the last
    # (pattern, text): a repeated pair, another text for the same pattern,
    # another pattern in between, and a 30-bit digit-edge pattern
    rng = random.Random(8)
    a = "".join(rng.choice("abc ") for _ in range(200))
    b = "".join(c if rng.random() < 0.9 else rng.choice("abc") for c in a)
    b2 = b[:150] + "q" + b[151:]
    c = "".join(rng.choice("abc") for _ in range(75))
    d = "".join(rng.choice("abж") for _ in range(30))
    e = "".join(rng.choice("abжq") for _ in range(130))
    calls = [
        (a, b), (a, b), (a, b2), (a, b2[:-1]), (c, b2), (a, b2), (a, b), (a, b2),
        (d, e), (d, e), (d, e[:-1]), (c, e), (d, e),
    ]
    _myers_distance.cache_clear()
    last = None
    for call in calls:
        hits = _myers_distance.cache_info().hits
        assert _myers_distance(*call) == _lev(*call), tuple(map(len, call))
        assert (_myers_distance.cache_info().hits > hits) == (call == last)
        last = call
