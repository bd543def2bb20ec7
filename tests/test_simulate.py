import random

import pytest

from pageval.bow import bwer
from pageval.core import PageTranscript, StructureError
from pageval.editdist import char_distance
from pageval.simulate import (
    LINE_LEVEL,
    LINE_SPLIT,
    LINE_SWAP,
    WORD_LEVEL,
    DistortionConfig,
    apply_splits,
    apply_swaps,
    apply_sweep_step,
    corpus_alphabet,
    distort_chars,
    distort_corpus,
    page_rng,
    plan_splits,
    plan_swaps,
    predict_bwer_split_increase,
    predict_nsfd_splits,
    predict_nsfd_swaps,
    predict_twer,
    sweep_plans,
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
    pages = synthetic_corpus(4, 16, 8, seed=21)
    cfg = DistortionConfig(mode=LINE_SWAP, seed=9, swaps=8, swap_range=(4, 7))
    plans = sweep_plans(pages, cfg, 8)
    step3, _ = apply_sweep_step(pages, cfg, plans, 3)
    step4, _ = apply_sweep_step(pages, cfg, plans, 4)
    # the S=4 corpus extends the S=3 corpus by exactly one more swap per page
    for p3, p4, page, plan in zip(step3, step4, pages, plans):
        undo = apply_sweep_step([page], cfg, [plan], min(3, len(plan)))[0][0]
        assert p3.lines == undo.lines
        assert p3.words != p4.words or len(plan) <= 3


def test_sweep_plans_follow_page_order_not_page_id():
    # API pages may share an id (the default is ""): each keeps its own plan
    short = PageTranscript((("a", "b"), ("c", "d")))
    long = PageTranscript(tuple((f"w{i}", "x") for i in range(8)))
    cfg = DistortionConfig(mode=LINE_SWAP, seed=1, swaps=2, swap_range=(3, 6))
    plans = sweep_plans([short, long], cfg, 2)
    assert plans[0] == [] and len(plans[1]) == 2
    out, _ = apply_sweep_step([short, long], cfg, plans, 2)
    assert out[0].lines == short.lines
    assert [p.lines for p in out] == [p.lines for p in distort_corpus([short, long], cfg)[0]]
    with pytest.raises(StructureError):
        apply_sweep_step([short, long], cfg, plans[:1], 2)


@pytest.mark.parametrize("mode", [LINE_SWAP, LINE_SPLIT])
@pytest.mark.parametrize("seed", [0, 5, 23])
def test_distort_corpus_is_the_last_sweep_step(mode, seed):
    short = PageTranscript((("a", "bc"), ("d",)), "short.txt")
    pages = synthetic_corpus(4, 7, 3, seed=60 + seed) + [short]
    for count in (0, 1, 3, 8):
        cfg = DistortionConfig(
            mode=mode, seed=seed, swaps=count, splits=count, swap_range=(1, 3)
        )
        out, manifest = distort_corpus(pages, cfg)
        # a shorter plan is a prefix of a longer one
        for max_count in (count, count + 4):
            plans = sweep_plans(pages, cfg, max_count)
            step, step_manifest = apply_sweep_step(pages, cfg, plans, count)
            assert [p.lines for p in step] == [p.lines for p in out]
            assert step_manifest["pages"] == manifest["pages"]
            assert step_manifest["count"] == count and "count" not in manifest


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


def test_predictor_bwer_increase():
    # published constants: 33 pages, 6955 running words -> 0.0023 per split
    assert predict_bwer_split_increase(1, 33, 6955) == pytest.approx(0.0023, rel=0.04)
    assert predict_bwer_split_increase(0, 33, 6955) == 0.0


def test_predictor_twer():
    assert tcer(0) == 0.0
    assert tcer(2) == pytest.approx(0.065)
    assert predict_twer(1, 4.65) == pytest.approx(0.151125)
    assert predict_twer(2, 5.0) == pytest.approx(0.325)
    assert predict_twer(0, 4.65) == 0.0
