import random
from dataclasses import replace

import pytest

from pageval.bow import bwer
from pageval.core import PageTranscript, StructureError
from pageval.editdist import char_distance
from pageval.report import aggregate, evaluate_page
from pageval.simulate import (
    LINE_LEVEL,
    LINE_SPLIT,
    LINE_SWAP,
    WORD_LEVEL,
    DistortionConfig,
    apply_splits,
    apply_swaps,
    corpus_alphabet,
    distort_chars,
    distort_corpus,
    page_rng,
    plan_splits,
    plan_swaps,
    predict_nsfd_splits,
    predict_nsfd_swaps,
    predict_twer,
    sweep,
    tcer,
)

from conftest import synthetic_corpus


def test_config_validation():
    with pytest.raises(StructureError):
        DistortionConfig(mode="nope")
    with pytest.raises(StructureError):
        DistortionConfig(mode=WORD_LEVEL, op_mix=(0.5, 0.2, 0.2))
    with pytest.raises(StructureError):
        DistortionConfig(mode=LINE_SWAP, swap_range=(3, 2))


@pytest.mark.parametrize(
    "field, value",
    [
        ("op_mix", (float("nan"), 0.5, 0.5)),
        ("op_mix", (float("inf"), float("-inf"), 1.0)),
        ("op_mix", (0.5, 0.5)),
        ("op_mix", (0.5, 0.25, 0.25, 0.0)),
        ("swap_range", (2,)),
        ("swap_range", (1, 2, 3)),
    ],
)
def test_config_rejects_non_finite_or_wrong_length_tuples(field, value):
    with pytest.raises(StructureError, match=field):
        DistortionConfig(mode=WORD_LEVEL, **{field: value})


def test_zero_step_is_identity():
    page = synthetic_corpus(1, 5, 4)[0]
    cfg = DistortionConfig(mode=WORD_LEVEL, seed=1, tcer_step=0)
    out, entry = distort_chars(page, cfg, page_rng(1, page.page_id))
    assert out.lines == page.lines
    assert entry["realized"] == {"sub": 0, "ins": 0, "del": 0}


def test_word_level_keeps_word_count():
    pages = synthetic_corpus(5, 8, 6, seed=3)
    cfg = DistortionConfig(mode=WORD_LEVEL, seed=11, tcer_step=6)
    out, _ = distort_corpus(pages, cfg)
    for before, after in zip(pages, out):
        assert before.word_count == after.word_count
        assert before.line_count == after.line_count


def test_word_level_realized_rate_near_target():
    pages = synthetic_corpus(20, 12, 8, seed=5)
    total = sum(p.char_count for p in pages)
    assert total >= 10_000
    cfg = DistortionConfig(mode=WORD_LEVEL, seed=2, tcer_step=1)
    out, _ = distort_corpus(pages, cfg)
    measured = sum(
        char_distance(p.words, d.words) for p, d in zip(pages, out)
    ) / total
    assert measured == pytest.approx(tcer(1), rel=0.10)


def test_line_level_can_change_word_count():
    pages = synthetic_corpus(10, 10, 8, seed=6)
    cfg = DistortionConfig(mode=LINE_LEVEL, seed=3, tcer_step=6, whitespace_share=0.4)
    out, _ = distort_corpus(pages, cfg)
    assert any(p.word_count != d.word_count for p, d in zip(pages, out))


def test_swap_zero_is_identity():
    page = synthetic_corpus(1)[0]
    plan = plan_swaps(page, 0, 1, 3, page_rng(0, page.page_id))
    assert plan == [] and apply_swaps(page, plan).lines == page.lines


def test_swap_distance_seven_on_eight_lines():
    page = synthetic_corpus(1, lines=8, seed=9)[0]
    plan = plan_swaps(page, 5, 7, 7, page_rng(4, page.page_id))
    out = apply_swaps(page, plan)
    # only one swap is possible: the first line with the last one
    assert len(plan) == 1
    assert (plan[0]["line_a"], plan[0]["line_b"]) == (0, 7)
    assert out.lines[0] == page.lines[7] and out.lines[7] == page.lines[0]


def test_swap_preserves_multiset():
    pages = synthetic_corpus(6, 12, 6, seed=12)
    cfg = DistortionConfig(mode=LINE_SWAP, seed=5, swaps=4, swap_range=(2, 6))
    out, manifest = distort_corpus(pages, cfg)
    for p, d in zip(pages, out):
        assert bwer(p.words, d.words)[0] == 0.0
    for entry in manifest["pages"]:
        for op in entry["swaps"]:
            assert 2 <= op["distance"] <= 6


def test_swapped_lines_not_reused():
    page = synthetic_corpus(1, lines=20, seed=13)[0]
    plan = plan_swaps(page, 10, 2, 5, page_rng(8, page.page_id))
    touched = [line for op in plan for line in (op["line_a"], op["line_b"])]
    assert len(touched) == len(set(touched))


def test_split_zero_is_identity():
    page = synthetic_corpus(1)[0]
    plan = plan_splits(page, 0, page_rng(0, page.page_id))
    assert plan == [] and apply_splits(page, plan).lines == page.lines


def test_split_count_limit():
    # more splits than lines: each splittable line is split once
    page = PageTranscript((("a", "b"), ("c",), ("de",), ("f", "g", "h")), "p")
    plan = plan_splits(page, 5, page_rng(0, page.page_id))
    assert sorted(entry["line"] for entry in plan) == [0, 2, 3]
    assert apply_splits(page, plan).line_count == page.line_count + 3


@pytest.mark.parametrize("seed", [0, 3, 17, 42])
def test_split_plans_are_prefix_stable(seed):
    # the plan for S splits is the first S entries of the plan for M >= S
    short = PageTranscript((("a", "bc"), ("d",), ("ef", "g")), "short.txt")
    for page in synthetic_corpus(3, 9, 4, seed=70 + seed) + [short]:
        longest = plan_splits(page, 12, random.Random(seed))
        for count in range(13):
            assert plan_splits(page, count, random.Random(seed)) == longest[:count]


def test_split_option_semantics_word_level():
    page = PageTranscript((("a", "b", "c"), ("next", "line"), ("tail",)), "p")
    # option 1: suffix before prefix, in place
    out = apply_splits(page, [{"line": 0, "level": "word", "position": 1, "option": 1}])
    assert out.lines == (("b", "c"), ("a",), ("next", "line"), ("tail",))
    assert out.words[:3] == ("b", "c", "a")
    # option 2: suffix after the next line
    out = apply_splits(page, [{"line": 0, "level": "word", "position": 1, "option": 2}])
    assert out.lines == (("a",), ("next", "line"), ("b", "c"), ("tail",))
    # option 3: prefix after the next line
    out = apply_splits(page, [{"line": 0, "level": "word", "position": 1, "option": 3}])
    assert out.lines == (("b", "c"), ("next", "line"), ("a",), ("tail",))


def test_split_last_line_fragment_goes_to_page_end():
    page = PageTranscript((("first",), ("x", "y")), "p")
    out = apply_splits(page, [{"line": 1, "level": "word", "position": 1, "option": 2}])
    assert out.lines == (("first",), ("x",), ("y",))


def test_split_char_level_in_word_flag():
    page = PageTranscript((("abc", "de"),), "p")
    # "abc de": position 2 splits inside "abc"; position 3 is the space gap
    out = apply_splits(page, [{"line": 0, "level": "char", "position": 2, "option": 1}])
    assert out.lines == (("c", "de"), ("ab",))
    rng = random.Random(0)
    seen_in_word = False
    for seed in range(40):
        plan = plan_splits(page, 1, random.Random(seed))
        entry = plan[0]
        if entry["level"] == "char":
            text = "abc de"
            expected = text[entry["position"] - 1] != " " and text[entry["position"]] != " "
            assert entry["in_word"] == expected
            seen_in_word = seen_in_word or entry["in_word"]
    assert seen_in_word


def test_split_in_word_adds_two_bag_errors():
    # a single in-word char split on otherwise untouched text adds exactly
    # two bag-of-words errors
    words = tuple(f"word{i}" for i in range(10))
    page = PageTranscript((words[:5], words[5:]), "p")
    out = apply_splits(page, [{"line": 0, "level": "char", "position": 7, "option": 1}])
    base = bwer(page.words, page.words)[0]
    rate, _ = bwer(page.words, out.words)
    assert base == 0.0
    assert rate * page.word_count == pytest.approx(2.0)


def test_sweep_prefix_property():
    # the plan for c operations is the first c entries of the plan for c + 4
    # from the same stream, so each sweep step extends the step before it
    short = PageTranscript((("a", "bc"), ("d",), ("ef", "g")), "short.txt")
    for page in synthetic_corpus(4, 16, 8, seed=21) + [short]:
        for c in range(9):
            swaps = plan_swaps(page, c + 4, 2, 7, page_rng(9, page.page_id))
            assert plan_swaps(page, c, 2, 7, page_rng(9, page.page_id)) == swaps[:c]
            splits = plan_splits(page, c + 4, page_rng(9, page.page_id))
            assert plan_splits(page, c, page_rng(9, page.page_id)) == splits[:c]
    # the S=4 corpus differs from the S=3 corpus on every page with a 4th swap
    pages = synthetic_corpus(4, 16, 8, seed=21)
    cfg = DistortionConfig(mode=LINE_SWAP, seed=9, swap_range=(4, 7))
    step3, _ = distort_corpus(pages, replace(cfg, swaps=3))
    step4, manifest = distort_corpus(pages, replace(cfg, swaps=4))
    for p3, p4, entry in zip(step3, step4, manifest["pages"]):
        assert (p3.words != p4.words) == (len(entry["swaps"]) == 4)


def test_distort_corpus_plans_follow_page_order_not_page_id():
    # API pages may share an id (the default is ""): each keeps its own plan
    short = PageTranscript((("a", "b"), ("c", "d")))
    long = PageTranscript(tuple((f"w{i}", "x") for i in range(8)))
    cfg = DistortionConfig(mode=LINE_SWAP, seed=1, swaps=2, swap_range=(3, 6))
    own = plan_swaps(long, 2, 3, 6, page_rng(1, ""))
    assert len(own) == 2
    for pages in ([short, long], [long, short]):
        out, manifest = distort_corpus(pages, cfg)
        for page, got, entry in zip(pages, out, manifest["pages"]):
            want = own if page is long else []
            assert entry["swaps"] == want
            assert got.lines == apply_swaps(page, want).lines


@pytest.mark.parametrize("mode", [LINE_SWAP, LINE_SPLIT])
@pytest.mark.parametrize("seed", [0, 5, 23])
def test_distort_corpus_is_the_last_sweep_step(mode, seed):
    # every sweep row scores distort_corpus at that row's count
    short = PageTranscript((("a", "bc"), ("d",)), "short.txt")
    pages = synthetic_corpus(4, 7, 3, seed=60 + seed) + [short]
    cfg = DistortionConfig(mode=mode, seed=seed, swap_range=(1, 3))
    rows = list(sweep(pages, cfg, 8, 1.0))
    assert [count for count, _, _ in rows] == list(range(9))
    for count, corpus, trend in rows:
        out, manifest = distort_corpus(pages, replace(cfg, swaps=count, splits=count))
        want = aggregate([evaluate_page(r, h, 1.0) for r, h in zip(pages, out)])
        assert replace(corpus, pages=()) == replace(want, pages=())
        if mode == LINE_SPLIT:
            in_word = sum(s["in_word"] for e in manifest["pages"] for s in e["splits"])
            assert trend["tbWER_increase"] == 2 * in_word / want.n_words


def test_determinism_same_seed_same_output():
    pages = synthetic_corpus(3, 10, 6, seed=30)
    for cfg in (
        DistortionConfig(mode=WORD_LEVEL, seed=7, tcer_step=3),
        DistortionConfig(mode=LINE_SWAP, seed=7, swaps=3, swap_range=(1, 4)),
        DistortionConfig(mode=LINE_SPLIT, seed=7, splits=2),
    ):
        out1, man1 = distort_corpus(pages, cfg)
        out2, man2 = distort_corpus(pages, cfg)
        assert [p.lines for p in out1] == [p.lines for p in out2]
        assert man1 == man2
        assert man1["algorithm"] == "mersenne-twister"


def test_page_rng_draws_the_stream_of_its_str_seed():
    # seeding with the UTF-8 bytes keeps every UTF-8 page name's stream
    for page_id in ("p0001.txt", "caf\u00e9.txt"):
        rng, ref = page_rng(7, page_id), random.Random(f"7:{page_id}")
        assert [rng.random() for _ in range(5)] == [ref.random() for _ in range(5)]
    page_rng(7, "caf\udce9.txt").random()  # the id of a non-UTF-8 file name


def test_alphabet_from_corpus():
    page = PageTranscript((("ab", "ba"),), "p")
    assert corpus_alphabet([page]) == "ab"


def test_predictor_swaps():
    # published constants: 33 pages with sum 1/floor(M^2/2) = 0.136 at
    # swap distances 4..7 give 0.045 per swap
    line_counts = [26] * 32 + [8]
    total = sum(1 / (m * m // 2) for m in line_counts)
    scale = 0.136 / total
    value = predict_nsfd_swaps(1, 4, 7, line_counts)
    assert value * scale == pytest.approx(0.045, rel=0.02)
    # direct formula evaluation
    assert predict_nsfd_swaps(1, 1, 1, [10]) == pytest.approx(2 / 50)
    assert predict_nsfd_swaps(0, 4, 7, [10, 12]) == 0.0
    with pytest.raises(StructureError):
        predict_nsfd_swaps(1, 1, 1, [1])


def test_predictor_splits():
    # direct formula evaluation: (7/6)(S/K) sum (N/M)/floor(M^2/2)
    value = predict_nsfd_splits(2, [10], [80])
    assert value == pytest.approx((7 / 6) * 2 * (80 / 10) / 50)
    assert predict_nsfd_splits(0, [10], [80]) == 0.0


def test_predictor_twer():
    assert tcer(0) == 0.0
    assert tcer(2) == pytest.approx(0.065)
    assert predict_twer(1, 4.65) == pytest.approx(0.151125)
    assert predict_twer(2, 5.0) == pytest.approx(0.325)
    assert predict_twer(0, 4.65) == 0.0
