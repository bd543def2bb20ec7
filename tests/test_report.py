import dataclasses
import random

import pytest

from pageval.assign import hcer_errors, hwer, reorder_hypothesis
from pageval.bow import bwer, bwer_errors
from pageval.core import EmptyReferenceError, EvalError, PageTranscript, tokenize_page
from pageval.editdist import char_distance
from pageval.report import aggregate, evaluate_page

from conftest import EX1_X, EX1_Y, EX3_X, EX3_Y, EX3_Z, two_column_pages
from oracles import (
    alignment_cost_exact,
    assignment_cost_bruteforce,
    bag_distance_counter,
    edit_distance_bruteforce,
    lev_bruteforce,
)


def page_of(words, page_id="p"):
    return PageTranscript((tuple(words),), page_id)


def _scores(report):
    return dataclasses.replace(report, timings={})


@pytest.mark.parametrize(
    "x, y, wer, counts",
    [
        (EX1_X, EX1_Y, 5 / 10, (1, 2, 2)),
        (EX1_X, EX1_X, 0.0, (0, 0, 0)),
        (["a"], ["b", "c", "d"], 3.0, (2, 1, 0)),
        (EX3_X, EX3_Y, 12 / 14, (0, 11, 1)),
        (EX3_X, EX3_Z, 3 / 14, (0, 2, 1)),
        (EX3_X, EX3_X, 0.0, (0, 0, 0)),
    ],
    ids=["ex1", "ex1-identity", "exceeds-one", "ex3-y", "ex3-z", "ex3-identity"],
)
def test_page_wer_worked_examples(x, y, wer, counts):
    r = evaluate_page(page_of(x), page_of(y))
    assert r.wer == wer
    c = r.wer_counts
    assert (c.insertions, c.substitutions, c.deletions) == counts
    assert r.wer_errors == edit_distance_bruteforce(x, y)


def test_bom_page_reports_equal_plain_page():
    ref = "To be or not to be,\nthat is the question"
    hyp = "to be or nut\nthat is the question to be"
    bom = b"\xef\xbb\xbf"
    plain = evaluate_page(
        tokenize_page(ref.encode("utf-8"), "p"), tokenize_page(hyp.encode("utf-8"), "p")
    )
    marked = evaluate_page(
        tokenize_page(bom + ref.encode("utf-8"), "p"),
        tokenize_page(bom + hyp.encode("utf-8"), "p"),
    )
    assert _scores(marked) == _scores(plain)
    assert plain.n_words == 10 and plain.wer_errors > 0


def test_identity_page_all_zeros():
    page = tokenize_page("some words on\na page here", "p")
    r = evaluate_page(page, page)
    assert (r.wer, r.cer, r.bwer, r.hwer, r.hcer, r.nsfd) == (0,) * 6
    assert r.delta_wer == 0 and r.delta_wer_h == 0
    assert r.beta_wer == 0


def test_appendix_row():
    r = evaluate_page(page_of(EX3_X), page_of(EX3_Y))
    assert round(100 * r.wer, 1) == 85.7
    assert round(100 * r.bwer, 1) == 7.1
    assert round(100 * r.hwer, 1) == 7.1
    assert round(100 * r.nsfd, 1) == 72.4
    assert round(100 * r.hcer, 1) == 8.1
    assert r.delta_wer == r.wer - r.bwer
    assert r.delta_wer_h == r.wer - r.hwer
    assert r.n_words == 14 and r.n_hyp_words == 13
    assert r.dummy_pairs == 1 and r.length_gap == 1


def test_two_column_page_decouples_order_from_recognition():
    ref, hyp = two_column_pages()
    r = evaluate_page(ref, hyp)
    assert r.wer == 0.7
    assert r.bwer == 0.0
    assert r.delta_wer == 0.7
    assert (
        r.wer_counts.substitutions,
        r.wer_counts.insertions,
        r.wer_counts.deletions,
        r.wer_counts.correct,
    ) == (13, 4, 4, 13)


def test_page_errors_carry_page_id():
    empty = PageTranscript((), "broken-page")
    with pytest.raises(EmptyReferenceError, match="broken-page"):
        evaluate_page(empty, page_of(["a"]))


def test_timings_recorded():
    page = tokenize_page("a few words", "p")
    r = evaluate_page(page, page)
    assert set(r.timings) == {"wer", "cer", "bwer", "hwer", "nsfd", "hcer"}
    assert all(t >= 0 for t in r.timings.values())


def test_aggregate_single_page_equals_report():
    r = evaluate_page(page_of(EX3_X), page_of(EX3_Y))
    c = aggregate([r])
    assert (c.wer, c.cer, c.bwer, c.hwer, c.hcer, c.nsfd) == (
        r.wer, r.cer, r.bwer, r.hwer, r.hcer, r.nsfd,
    )
    assert c.n_words == r.n_words


def test_aggregate_micro_average_by_accumulators():
    # page WERs 10% (1/10) and 50% (15/30): micro average is 16/40, not the
    # mean of the page rates
    small_ref = page_of([f"w{i}" for i in range(10)], "small")
    small_hyp = page_of(["XX"] + [f"w{i}" for i in range(1, 10)], "small")
    big_ref = page_of([f"v{i}" for i in range(30)], "big")
    big_hyp = page_of(["YY"] * 15 + [f"v{i}" for i in range(15, 30)], "big")
    r1 = evaluate_page(small_ref, small_hyp)
    r2 = evaluate_page(big_ref, big_hyp)
    assert r1.wer == 1 / 10 and r2.wer == 15 / 30
    c = aggregate([r1, r2])
    assert c.wer == 16 / 40
    assert c.wer != pytest.approx((r1.wer + r2.wer) / 2)


def test_aggregate_weighted_nsfd_equal_sizes():
    a = page_of(["a", "b", "c", "d"], "a")
    a_rev = page_of(["d", "c", "b", "a"], "a")
    r1 = evaluate_page(a, a)           # nsfd 0
    r2 = evaluate_page(a, a_rev)       # nsfd 1 (full reversal, even length)
    assert r2.nsfd == 1.0
    c = aggregate([r1, r2])
    assert c.nsfd == 0.5


def test_aggregate_accumulator_identity():
    pages = [
        (page_of(EX3_X, "1"), page_of(EX3_Y, "1")),
        (page_of(["a", "b"], "2"), page_of(["a"], "2")),
        (page_of(["q"] * 5, "3"), page_of(["q"] * 5, "3")),
    ]
    reports = [evaluate_page(r, h) for r, h in pages]
    c = aggregate(reports)
    assert sum(r.wer_errors for r in reports) == c.wer_counts.errors
    assert c.wer == sum(r.wer_errors for r in reports) / c.n_words
    assert c.delta_wer == c.wer - c.bwer


def test_aggregate_empty_rejected():
    with pytest.raises(EvalError):
        aggregate([])


def test_missing_hypothesis_page_is_total_loss():
    ref = page_of(["a", "b", "c"], "p")
    r = evaluate_page(ref, PageTranscript((), "p"))
    assert r.wer == 1.0 and r.bwer == 1.0 and r.hwer == 1.0
    assert r.cer == 1.0


def test_bwer_numerators_agree_with_counter_oracle():
    # tiny alphabets repeat words, so the bags overlap in every proportion
    rng = random.Random(41)
    for _ in range(150):
        vocab = ["a", "b", "ab", "ba", "abc"][: rng.randint(2, 5)]
        u = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        v = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        for x, y in ((u, v), (v, u)):
            n = len(x)
            b = abs(n - len(y))
            big_b = bag_distance_counter(x, y)
            rate, counts = bwer(x, y)
            assert rate == (b + big_b) / (2 * n)
            assert counts.errors == bwer_errors(x, y) == (b + big_b) // 2
            assert (counts.reference_length, counts.hypothesis_length) == (n, len(y))

            ref, hyp = page_of(x), page_of(y)
            r = evaluate_page(ref, hyp)
            assert r.beta_wer == (2 * r.bwer_errors - r.length_gap) / r.n_words
            assert r.beta_wer == big_b / n
            _, alignment = hwer(x, y, 1.0)
            assert r.hcer == hcer_errors(x, y, alignment) / ref.char_count
            assert r.cer == char_distance(x, y) / ref.char_count
            joined = " ".join(x)
            reordered = " ".join(reorder_hypothesis(x, y, alignment))
            assert r.cer_errors == lev_bruteforce(joined, " ".join(y))
            assert r.hcer_errors == lev_bruteforce(joined, reordered)
            assert r.n_chars == len(joined)


def test_lone_surrogates_are_scored_like_any_character():
    # `PageTranscript` accepts a word holding a lone surrogate; every
    # engine treats it as one code point
    ref = PageTranscript((("ab", "\ud800x"), ("\udfff",)))
    hyp = PageTranscript((("\ud800x", "a\ud800", "ab"),))
    report = evaluate_page(ref, hyp, gamma=0.0)
    x, y = ref.words, hyp.words
    assert report.cer_errors == lev_bruteforce(" ".join(x), " ".join(y))
    _, alignment = hwer(x, y, gamma=0.0)
    assert report.hcer_errors == lev_bruteforce(
        " ".join(x), " ".join(reorder_hypothesis(x, y, alignment))
    )
    assert alignment_cost_exact(x, y, alignment.pairs, 0) == assignment_cost_bruteforce(
        x, y, 0
    )
