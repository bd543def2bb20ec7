"""The per-reference memos of the two bit-parallel engines: the bigint
engine's match masks (`editdist._match_masks`) and its one-entry distance
memo (`editdist._myers_distance`), and the pair kernel's reference side
(`assign._reference_side`).  A report must not depend on whether a memo was
cold, warm or had evicted the reference meanwhile."""

import dataclasses
import gc
import random
import tracemalloc

import numpy as np
import pytest

from pageval import assign, editdist, simulate
from pageval.core import PageTranscript
from pageval.report import evaluate_page

from conftest import random_word, synthetic_corpus
from oracles import lev_bruteforce

MEMOS = (assign._reference_side, editdist._match_masks)


def _clear():
    for memo in MEMOS:
        memo.cache_clear()
    editdist._myers_distance.cache_clear()


def _page(words, page_id="p"):
    return PageTranscript((tuple(words),), page_id)


def _scores(ref, hyp):
    return dataclasses.replace(evaluate_page(ref, hyp), timings={})


def _tiny_alphabet_pairs(seed):
    rng = random.Random(seed)
    pairs = []
    for _ in range(12):
        alphabet = rng.choice(["ab", "abc"])
        x = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
             for _ in range(rng.randint(1, 14))]
        y = [rng.choice(x) if rng.random() < 0.5 else w[::-1] + rng.choice(alphabet)
             for w in x[: rng.randint(0, len(x))]]
        pairs.append((_page(x), _page(y)))
    return pairs


def _long_word_pairs(seed):
    # reference words over 64 characters take the bigint fallback, as its
    # pattern, next to packed short words
    rng = random.Random(seed)
    pairs = []
    for _ in range(4):
        long = ["".join(rng.choice("abc") for _ in range(rng.randint(65, 140)))
                for _ in range(2)]
        x = long + [random_word(rng) for _ in range(6)] + long[:1]
        y = [w[1:] + "x" for w in long] + [random_word(rng) for _ in range(5)] + ["a"]
        rng.shuffle(y)
        pairs.append((_page(x), _page(y)))
    return pairs


def _one_reference_pairs(seed):
    # one reference against many hypotheses, as in a sweep
    rng = random.Random(seed)
    x = [random_word(rng) for _ in range(40)]
    pairs = []
    for _ in range(10):
        y = [w if rng.random() < 0.6 else random_word(rng) for w in x]
        rng.shuffle(y)
        pairs.append((_page(x), _page(y[: rng.randint(20, 45)])))
    return pairs


CASES = {
    "tiny-alphabet": _tiny_alphabet_pairs(5),
    "long-words": _long_word_pairs(7),
    "one-reference": _one_reference_pairs(11),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cold_warm_and_overflowed_memos_give_equal_reports(case):
    pairs = CASES[case]
    cold = []
    for ref, hyp in pairs:
        _clear()
        cold.append(_scores(ref, hyp))
    # warm: every reference scored once already
    warm = [_scores(ref, hyp) for ref, hyp in pairs]
    # overflowed: more distinct references than either bound in between
    fillers = synthetic_corpus(
        n_pages=max(assign._LANE_MEMO_ENTRIES, editdist._MASK_MEMO_ENTRIES) + 3,
        lines=1, words_per_line=3, seed=13,
    )
    for page in fillers:
        evaluate_page(page, _page(page.words[::-1]))
    misses = [memo.cache_info().misses for memo in MEMOS]
    overflowed = [_scores(ref, hyp) for ref, hyp in pairs]
    # the fillers evicted the cases' entries, so both memos built them again
    assert all(
        memo.cache_info().misses > before for memo, before in zip(MEMOS, misses)
    )
    assert warm == cold
    assert overflowed == cold
    for (ref, hyp), report in zip(pairs, cold):
        assert report.cer_errors == lev_bruteforce(
            " ".join(ref.words), " ".join(hyp.words)
        )


def test_cached_arrays_and_masks_are_read_only():
    ref = assign._reference_side(("ab", "b" * 70, "abc", "ab"))
    arrays = [v for v in ref if isinstance(v, np.ndarray)]
    assert arrays
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    masks = editdist._match_masks("abca")
    assert dict(masks) == {"a": 0b1001, "b": 0b10, "c": 0b100}
    with pytest.raises(TypeError):
        masks["a"] = 0


def test_memo_entries_stay_at_the_bound():
    _clear()
    pages = synthetic_corpus(
        n_pages=max(assign._LANE_MEMO_ENTRIES, editdist._MASK_MEMO_ENTRIES) + 5,
        lines=2, words_per_line=4, seed=17,
    )
    for page in pages:
        evaluate_page(page, _page(page.words[1:]))
    for memo, bound in (
        (assign._reference_side, assign._LANE_MEMO_ENTRIES),
        (editdist._match_masks, editdist._MASK_MEMO_ENTRIES),
    ):
        info = memo.cache_info()
        assert info.maxsize == bound
        assert info.currsize == bound


def test_sweep_builds_each_reference_side_once():
    # 3 pages x 4 steps: the pair kernel's side and the masks are each built
    # once per reference, at the first distorted step.  Step 0 scores each
    # page against itself: identical strings need no masks, and an
    # identical page gets the identity alignment without the kernel's side.
    # Each distorted page reads the masks once, for CER: this corpus keeps
    # its reading order, so hCER repeats CER's call and the distance memo
    # answers it
    _clear()
    pages = synthetic_corpus(n_pages=3, lines=2, words_per_line=5, seed=19)
    cfg = simulate.DistortionConfig(mode=simulate.WORD_LEVEL, seed=3)
    steps = list(simulate.sweep(pages, cfg, 3, 1.0))
    assert len(steps) == 4
    lanes = assign._reference_side.cache_info()
    masks = editdist._match_masks.cache_info()
    assert (lanes.misses, lanes.hits) == (3, 6)
    assert (masks.misses, masks.hits) == (3, 6)


def test_hcer_scans_again_only_when_its_text_differs(monkeypatch):
    # a 31-word page whose 70-character reference word takes the pair
    # kernel's bigint fallback, which runs between the page's CER and hCER
    rng = random.Random(31)
    x = [random_word(rng) for _ in range(30)]
    while x[19] == x[25]:
        x[25] = random_word(rng)
    long = "".join(rng.choice("abc") for _ in range(70))
    x.insert(10, long)
    y = list(x)
    y[10] = long[:-1] + "x"
    # a reading-order swap that hWER's alignment puts back
    swapped = list(y)
    swapped[20], swapped[26] = swapped[26], swapped[20]
    assert assign._reference_side(tuple(x)).loose
    real = editdist._scan
    texts = []

    def counting(masks, size, b):
        texts.append(b)
        return real(masks, size, b)

    monkeypatch.setattr(editdist, "_scan", counting)
    _clear()
    # the right reading order: hCER repeats CER's call, which the memo answers
    report = evaluate_page(_page(x), _page(y))
    assert texts == [" ".join(y)]
    assert report.hcer_errors == report.cer_errors == lev_bruteforce(
        " ".join(x), " ".join(y)
    )
    # the swap: hCER's reordered text differs from CER's, so it is scanned
    texts.clear()
    report = evaluate_page(_page(x), _page(swapped))
    assert texts == [" ".join(swapped), " ".join(y)]
    assert report.cer_errors == lev_bruteforce(" ".join(x), " ".join(swapped))
    assert report.hcer_errors == lev_bruteforce(" ".join(x), " ".join(y))

    # the fallback rows still equal the oracle, and leave the memo alone
    ref = assign._reference_side(tuple(x))
    uy = sorted(set(y))
    info = editdist._myers_distance.cache_info()
    table = assign._unique_pair_table(ref, uy)
    assert editdist._myers_distance.cache_info() == info
    for i in ref.loose:
        assert table[i].tolist() == [lev_bruteforce(ref.words[i], w) for w in uy]


def test_memo_bytes_retained_after_a_2000_word_page_are_bounded():
    # a long-pages-sized page: a 2,000-word reference over a Zipf
    # vocabulary.  What stays after the call is the two memo entries: the
    # kernel side (~86 KB for 803 unique words in 79 lanes) and the page
    # pattern's masks (~59 KB)
    rng = random.Random(23)
    vocab = [random_word(rng) for _ in range(5000)]
    weights = [1 / r for r in range(1, len(vocab) + 1)]
    x = tuple(rng.choices(vocab, weights, k=2000))
    y = [w if rng.random() < 0.8 else random_word(rng) for w in x]
    _clear()
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        cer = editdist.char_distance(x, y)
        table = assign._pair_table(assign._reference_side(x), y)
        del table
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cer > 0
    assert after - before < 256 << 10
