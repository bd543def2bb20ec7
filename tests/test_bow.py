import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pageval.bow import bag_distance, beta_wer, bwer, bwer_errors
from pageval.core import EmptyReferenceError
from pageval.editdist import edit_distance

from conftest import EX3A_X, EX3A_Y, EX3_X, EX3_Y, EX3_Z, TINY_X, TINY_Y

words = st.lists(st.sampled_from(["a", "b", "c", "ab", "ba"]), max_size=12)


def test_bag_distance_worked_examples():
    assert bag_distance(EX3_X, EX3_Y) == 1
    assert bag_distance(EX3_X, EX3_Z) == 5
    assert bag_distance(EX3_X, EX3_X) == 0
    assert bag_distance(["a", "a", "b"], ["a", "c"]) == 3


def test_beta_wer_worked_examples():
    # exact rationals via the integer bag distance, float rate alongside
    assert Fraction(bag_distance(EX3_X, EX3_Y), len(EX3_X)) == Fraction(1, 14)
    assert Fraction(bag_distance(EX3_X, EX3_Z), len(EX3_X)) == Fraction(5, 14)
    assert beta_wer(EX3_X, EX3_Y) == 1 / 14
    assert beta_wer(EX3_X, EX3_Z) == 5 / 14
    assert beta_wer(EX3_X, EX3_X) == 0.0
    assert beta_wer(["a", "a", "b"], ["a", "c"]) == 1.0


def test_bwer_worked_examples():
    rate, _ = bwer(EX3_X, EX3_Y)
    assert rate == (1 + 1) / (2 * 14)
    rate, _ = bwer(EX3_X, EX3_Z)
    assert rate == (1 + 5) / (2 * 14)
    # integer numerators over N: b + (B - b) // 2
    assert bwer_errors(EX3_X, EX3_Y) == 1
    assert bwer_errors(EX3_X, EX3_Z) == 3
    assert Fraction(bwer_errors(EX3_X, EX3_Y), 14) == Fraction(2, 28)
    assert Fraction(bwer_errors(EX3_X, EX3_Z), 14) == Fraction(6, 28)


def test_bwer_scrambled_pair_is_zero():
    rate, counts = bwer(EX3A_X, EX3A_Y)
    assert rate == 0.0
    assert counts.correct == 10
    # the order-aware distance sees plenty of errors on the same pair
    assert edit_distance(EX3A_X, EX3A_Y)[0] > 0


def test_bwer_tiny_case():
    rate, counts = bwer(TINY_X, TINY_Y)
    assert rate == 0.25
    assert counts.substitutions == 1 and counts.insertions == 0


def test_bwer_unavoidable_ops_follow_length_gap():
    # reference longer: deletions
    _, counts = bwer(["a", "b", "c"], ["a"])
    assert counts.deletions == 2 and counts.insertions == 0
    # hypothesis longer: insertions
    _, counts = bwer(["a"], ["a", "b", "c"])
    assert counts.insertions == 2 and counts.deletions == 0
    assert counts.hypothesis_length == 3


def test_empty_reference_rejected():
    for fn in (beta_wer, bwer):
        with pytest.raises(EmptyReferenceError):
            fn([], ["a"])


@settings(deadline=None, max_examples=300)
@given(words, words)
def test_permutation_invariance(x, y):
    rng = random.Random(7)
    xs = list(x)
    ys = list(y)
    rng.shuffle(xs)
    rng.shuffle(ys)
    assert bag_distance(xs, ys) == bag_distance(x, y)
    if x:
        assert beta_wer(xs, ys) == beta_wer(x, y)
        assert bwer(xs, ys)[0] == bwer(x, y)[0]


@settings(deadline=None, max_examples=300)
@given(words, words)
def test_bag_gap_parity(x, y):
    assert (bag_distance(x, y) - abs(len(x) - len(y))) % 2 == 0


def test_bag_distance_bounds_edit_distance_in_same_order():
    # hypothesis derived from the reference by in-place edits only, with
    # corrupted tokens drawn outside the reference vocabulary so the edits
    # cannot emulate a reorder; then the bag distance dominates the edit
    # distance
    rng = random.Random(31)
    vocab = ["a", "b", "c", "ab", "ba", "cc"]
    noise = ["X", "Y", "Z", "QQ"]
    for _ in range(200):
        x = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        y = []
        for w in x:
            op = rng.random()
            if op < 0.2:
                continue  # deletion
            if op < 0.4:
                y.append(rng.choice(noise))  # substitution
            else:
                y.append(w)
            if rng.random() < 0.15:
                y.append(rng.choice(noise))  # insertion
        assert bag_distance(x, y) >= edit_distance(x, y)[0]
