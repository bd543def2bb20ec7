"""Controlled corpus distortion: character noise at word or line level,
whole-line swaps, and line splits, plus the closed-form trend predictors.

Distortion of a page is a deterministic function of (page, config, seed):
each page draws its own PRNG stream seeded with "<seed>:<page_id>", so pages
can be processed independently and re-runs are bit-reproducible.  Every
applied operation is recorded in a manifest so measurements can be
re-checked against what actually happened.

`sweep` scores a corpus against its own distortion at each step of one
parameter, next to the closed-form prediction.  Line-mode sweeps use prefix
plans: the plan for the largest count is drawn once per page and smaller
counts apply a prefix of it, which makes measured trends comparable point
to point.  `distort_corpus` draws the same plans, so its pages equal the
step at its count of any sweep that reaches that count.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Iterator, Sequence

from . import report
from .core import PageTranscript, StructureError

RNG_ALGORITHM = "mersenne-twister"

# Per-step induced character error rate of the distortion schedule (rate,
# not percent): step n targets a CER of 0.0325 * n.
TCER_STEP = 0.0325

WORD_LEVEL = "char_word_level"
LINE_LEVEL = "char_line_level"
LINE_SWAP = "line_swap"
LINE_SPLIT = "line_split"
MODES = (WORD_LEVEL, LINE_LEVEL, LINE_SWAP, LINE_SPLIT)

# split-point level odds: char level 1 in 5, word level 4 in 5
CHAR_SPLIT_PROB = 0.2
SPLIT_OPTIONS = (1, 2, 3)


@dataclass(frozen=True)
class DistortionConfig:
    """Parameters and seed for the distortion protocols."""

    mode: str
    seed: int = 0
    tcer_step: int = 0
    op_mix: tuple[float, float, float] = (0.60, 0.15, 0.25)  # sub, ins, del
    whitespace_share: float = 0.15
    swaps: int = 0
    swap_range: tuple[int, int] = (1, 1)
    splits: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise StructureError(f"unknown distortion mode {self.mode!r}")
        # NaN fails every comparison, so `0 <= p <= 1` also asks for finite
        mix = self.op_mix
        if len(mix) != 3 or not all(0 <= p <= 1 for p in mix) or abs(sum(mix) - 1) > 1e-9:
            raise StructureError("op_mix must be 3 proportions >= 0 that sum to 1")
        if not 0 <= self.whitespace_share <= 1:
            raise StructureError("whitespace_share must be in [0, 1]")
        if len(self.swap_range) != 2 or not 1 <= self.swap_range[0] <= self.swap_range[1]:
            raise StructureError("swap_range must be a pair (lo, hi) with 1 <= lo <= hi")
        if self.swaps < 0 or self.splits < 0 or self.tcer_step < 0:
            raise StructureError("counts must be >= 0")


def page_rng(seed: int, page_id: str) -> random.Random:
    """Per-page PRNG stream (documented algorithm: Mersenne Twister).

    Seeded with the UTF-8 bytes of "seed:page_id", which `random.seed`
    hashes exactly as it hashes the `str`; surrogateescape carries the raw
    bytes of a non-UTF-8 file name instead of failing on them.
    """
    return random.Random(f"{seed}:{page_id}".encode("utf-8", "surrogateescape"))


def corpus_alphabet(pages: Iterable[PageTranscript]) -> str:
    """Sorted non-whitespace characters observed in the corpus."""
    chars = set()
    for page in pages:
        for line in page.lines:
            for word in line:
                chars.update(word)
    return "".join(sorted(chars)) or "abcdefghijklmnopqrstuvwxyz"


# ---------------------------------------------------------------------------
# character-level distortion


def _edit_word(
    word: str,
    prob: float,
    mix: tuple[float, float, float],
    alphabet: str,
    rng: random.Random,
    realized: dict,
) -> str:
    out: list[str] = []
    p_sub, p_ins, _ = mix
    for ch in word:
        if rng.random() >= prob:
            out.append(ch)
            continue
        r = rng.random()
        want_del = r >= p_sub + p_ins
        if want_del and len(word) > 1:
            realized["del"] += 1  # drop the character
        elif r < p_sub or want_del:  # 1-char words substitute instead
            choices = alphabet.replace(ch, "")
            if choices:
                out.append(rng.choice(choices))
                realized["sub"] += 1
            else:
                out.append(ch)
        else:
            out.append(ch)
            out.append(rng.choice(alphabet))
            realized["ins"] += 1
    if not out:
        # every character was deleted; keep the word alive with one random
        # character so the running word count stays unchanged
        out.append(rng.choice(alphabet))
        realized["del"] -= 1
        realized["sub"] += 1
    return "".join(out)


def _edit_line(
    words: Sequence[str],
    prob: float,
    mix: tuple[float, float, float],
    ws_share: float,
    alphabet: str,
    rng: random.Random,
    realized: dict,
) -> tuple[str, ...]:
    text = " ".join(words)
    p_sub, p_ins, _ = mix
    out: list[str] = []
    for ch in text:
        if rng.random() >= prob:
            out.append(ch)
            continue
        r = rng.random()
        if r < p_sub:
            if rng.random() < ws_share:
                new = " "
            else:
                new = rng.choice(alphabet)
            if new == ch:
                new = " " if ch != " " else rng.choice(alphabet)
            out.append(new)
            realized["sub"] += 1
        elif r < p_sub + p_ins:
            out.append(ch)
            out.append(" " if rng.random() < ws_share else rng.choice(alphabet))
            realized["ins"] += 1
        else:
            realized["del"] += 1
    return tuple("".join(out).split())


def distort_chars(
    page: PageTranscript,
    cfg: DistortionConfig,
    rng: random.Random,
    alphabet: str | None = None,
) -> tuple[PageTranscript, dict]:
    """Apply character noise at the configured induced-CER level.

    Word-level mode never touches whitespace, so the running word count is
    unchanged; the per-character probability is scaled up to compensate for
    the untouchable separator characters, keeping the realized page CER near
    the target.  Line-level mode edits the joined line text, whitespace
    included, so words may split or join.
    """
    if cfg.mode not in (WORD_LEVEL, LINE_LEVEL):
        raise StructureError(f"distort_chars needs a character mode, got {cfg.mode!r}")
    alphabet = alphabet or corpus_alphabet([page])
    target = TCER_STEP * cfg.tcer_step
    realized = {"sub": 0, "ins": 0, "del": 0}
    entry = {"page_id": page.page_id, "mode": cfg.mode, "realized": realized}
    if target == 0:
        return page, entry

    if cfg.mode == WORD_LEVEL:
        word_chars = sum(len(w) for line in page.lines for w in line)
        if word_chars == 0:
            return page, entry
        prob = min(1.0, target * page.char_count / word_chars)
        lines = tuple(
            tuple(
                _edit_word(w, prob, cfg.op_mix, alphabet, rng, realized) for w in line
            )
            for line in page.lines
        )
    else:
        lines = tuple(
            _edit_line(line, target, cfg.op_mix, cfg.whitespace_share, alphabet, rng, realized)
            if line
            else ()
            for line in page.lines
        )
    return PageTranscript(lines=lines, page_id=page.page_id), entry


# ---------------------------------------------------------------------------
# line swaps


def plan_swaps(
    page: PageTranscript,
    max_swaps: int,
    r_lo: int,
    r_hi: int,
    rng: random.Random,
) -> list[dict]:
    """Draw up to max_swaps disjoint line-pair swaps at distances in
    [r_lo, r_hi].

    Lines already swapped are not candidates again, so fewer swaps than
    requested may be possible.  Distances are drawn uniformly among the
    distances that still admit a candidate pair.
    """
    m = page.line_count
    used: set[int] = set()
    plan: list[dict] = []
    for _ in range(max_swaps):
        feasible = [
            r
            for r in range(r_lo, r_hi + 1)
            if any(i not in used and i + r not in used for i in range(m - r))
        ]
        if not feasible:
            break
        r = rng.choice(feasible)
        candidates = [i for i in range(m - r) if i not in used and i + r not in used]
        i = rng.choice(candidates)
        plan.append({"line_a": i, "line_b": i + r, "distance": r})
        used.update((i, i + r))
    return plan


def apply_swaps(page: PageTranscript, plan: Sequence[dict]) -> PageTranscript:
    lines = list(page.lines)
    for entry in plan:
        a, b = entry["line_a"], entry["line_b"]
        lines[a], lines[b] = lines[b], lines[a]
    return PageTranscript(lines=tuple(lines), page_id=page.page_id)


# ---------------------------------------------------------------------------
# line splits


def _splittable(line: tuple[str, ...]) -> bool:
    return len(line) >= 2 or (len(line) == 1 and len(line[0]) >= 2)


def plan_splits(
    page: PageTranscript, max_splits: int, rng: random.Random
) -> list[dict]:
    """Pick distinct lines and a split point plus relocation option for each.

    The split point is at character level with probability 1/5, else at a
    word gap.  Relocation options are equiprobable: (1) suffix before
    prefix, (2) suffix after the next line, (3) prefix after the next line.
    Each entry draws its line (from the lines not yet chosen) and then its
    own level, option and position, and entries stay in draw order, so the
    plan for fewer splits is a prefix of the plan for more.
    """
    eligible = [i for i, line in enumerate(page.lines) if _splittable(line)]
    plan: list[dict] = []
    for _ in range(min(max_splits, len(eligible))):
        i = eligible.pop(rng.randrange(len(eligible)))
        line = page.lines[i]
        char_level = rng.random() < CHAR_SPLIT_PROB
        if char_level and sum(len(w) for w in line) + len(line) - 1 < 2:
            char_level = False
        if not char_level and len(line) < 2:
            char_level = True
        entry: dict = {"line": i, "option": rng.choice(SPLIT_OPTIONS)}
        if char_level:
            text = " ".join(line)
            pos = rng.randrange(1, len(text))
            entry["level"] = "char"
            entry["position"] = pos
            entry["in_word"] = text[pos - 1] != " " and text[pos] != " "
        else:
            entry["level"] = "word"
            entry["position"] = rng.randrange(1, len(line))
            entry["in_word"] = False
        plan.append(entry)
    return plan


def apply_splits(page: PageTranscript, plan: Sequence[dict]) -> PageTranscript:
    """Apply split plan entries in order.

    Lines are tracked by identity so earlier relocations do not invalidate
    later entries; entries always refer to lines of the original page.
    """
    lines: list[tuple[int, tuple[str, ...]]] = [
        (i, line) for i, line in enumerate(page.lines)
    ]
    for entry in plan:
        pos = next(p for p, (ident, _) in enumerate(lines) if ident == entry["line"])
        ident, line = lines[pos]
        if entry["level"] == "char":
            text = " ".join(line)
            prefix = tuple(text[: entry["position"]].split())
            suffix = tuple(text[entry["position"] :].split())
        else:
            prefix = line[: entry["position"]]
            suffix = line[entry["position"] :]
        option = entry["option"]
        if option == 1:
            lines[pos : pos + 1] = [(ident, suffix), (-1, prefix)]
        elif option == 2:
            lines[pos] = (ident, prefix)
            lines.insert(min(pos + 2, len(lines)), (-1, suffix))
        else:
            lines[pos] = (ident, suffix)
            lines.insert(min(pos + 2, len(lines)), (-1, prefix))
    return PageTranscript(
        lines=tuple(line for _, line in lines), page_id=page.page_id
    )


# ---------------------------------------------------------------------------
# corpus orchestration


def _plan(page: PageTranscript, cfg: DistortionConfig, count: int) -> list[dict]:
    """The page's plan of up to `count` line operations, from its own stream."""
    rng = page_rng(cfg.seed, page.page_id)
    if cfg.mode == LINE_SWAP:
        lo, hi = cfg.swap_range
        return plan_swaps(page, count, lo, hi, rng)
    if cfg.mode == LINE_SPLIT:
        return plan_splits(page, count, rng)
    raise StructureError("plans exist only for swap/split modes")


def _apply(
    page: PageTranscript, cfg: DistortionConfig, plan: list[dict]
) -> tuple[PageTranscript, dict]:
    """Apply a line-mode plan; returns the page and its manifest entry."""
    if cfg.mode == LINE_SWAP:
        out, key = apply_swaps(page, plan), "swaps"
    else:
        out, key = apply_splits(page, plan), "splits"
    return out, {"page_id": page.page_id, "mode": cfg.mode, key: plan}


def _manifest(cfg: DistortionConfig, done: list[tuple], **extra: int) -> dict:
    entries = [entry for _, entry in done]
    return {"algorithm": RNG_ALGORITHM, "config": asdict(cfg), **extra, "pages": entries}


def distort_corpus(
    pages: Sequence[PageTranscript], cfg: DistortionConfig
) -> tuple[list[PageTranscript], dict]:
    """Distort every page per the config; returns pages plus a manifest."""
    if cfg.mode in (WORD_LEVEL, LINE_LEVEL):
        alphabet = corpus_alphabet(pages)
        done = [
            distort_chars(page, cfg, page_rng(cfg.seed, page.page_id), alphabet)
            for page in pages
        ]
    else:
        count = cfg.swaps if cfg.mode == LINE_SWAP else cfg.splits
        done = [_apply(page, cfg, _plan(page, cfg, count)) for page in pages]
    return [out for out, _ in done], _manifest(cfg, done)


def sweep_plans(
    pages: Sequence[PageTranscript], cfg: DistortionConfig, max_count: int
) -> list[list[dict]]:
    """Per-page prefix plans for a swap or split sweep up to max_count, in
    page order (pages may share a page_id)."""
    return [_plan(page, cfg, max_count) for page in pages]


def apply_sweep_step(
    pages: Sequence[PageTranscript],
    cfg: DistortionConfig,
    plans: Sequence[list[dict]],
    count: int,
) -> tuple[list[PageTranscript], dict]:
    """Apply the first `count` planned operations of each page; `plans` is
    `sweep_plans` of the same pages."""
    if len(plans) != len(pages):
        raise StructureError(f"{len(plans)} plans for {len(pages)} pages")
    done = [_apply(page, cfg, plan[:count]) for page, plan in zip(pages, plans)]
    return [out for out, _ in done], _manifest(cfg, done, count=count)


def sweep(
    pages: Sequence[PageTranscript],
    cfg: DistortionConfig,
    max_count: int,
    gamma: float,
) -> Iterator[tuple[int, report.CorpusReport, dict[str, float]]]:
    """Score the pages against their own distortion at sweep steps
    0..max_count; yields (parameter, corpus report, trend columns).

    Character modes sweep the schedule step (not cfg.tcer_step) against
    tCER/tWER; line modes sweep the swap/split count against tNSFD, and
    splits add the bWER increase of the in-word splits they realize.
    """
    if max_count < 0:
        raise StructureError("the sweep maximum must be >= 0")
    line_counts = [p.line_count for p in pages]
    word_counts = [p.word_count for p in pages]
    word_chars = sum(len(w) for p in pages for w in p.words)
    char_mode = cfg.mode in (WORD_LEVEL, LINE_LEVEL)
    plans = None if char_mode else sweep_plans(pages, cfg, max_count)
    for n in range(max_count + 1):
        if char_mode:
            distorted, manifest = distort_corpus(pages, replace(cfg, tcer_step=n))
        else:
            distorted, manifest = apply_sweep_step(pages, cfg, plans, n)
        # evaluate_page rejects a page without words, so n_words > 0 below
        corpus = report.aggregate(
            [report.evaluate_page(r, h, gamma) for r, h in zip(pages, distorted)]
        )
        if char_mode:
            avg_wlen = word_chars / corpus.n_words
            trend = {"tCER": tcer(n), "tWER": predict_twer(n, avg_wlen)}
        elif cfg.mode == LINE_SWAP:
            lo, hi = cfg.swap_range
            trend = {"tNSFD": predict_nsfd_swaps(n, lo, hi, line_counts)}
        else:
            in_word = sum(s["in_word"] for e in manifest["pages"] for s in e["splits"])
            trend = {
                "tNSFD": predict_nsfd_splits(n, line_counts, word_counts),
                "tbWER_increase": 2 * in_word / corpus.n_words,
            }
        yield n, corpus, trend


# ---------------------------------------------------------------------------
# theoretical predictors


def tcer(step: int) -> float:
    """Induced character error rate of schedule step n."""
    return TCER_STEP * step


def predict_twer(step: int, avg_word_len: float) -> float:
    """Induced word error rate estimate: average word length times tCER."""
    return avg_word_len * tcer(step)


def predict_nsfd_swaps(
    swaps: int, r_lo: int, r_hi: int, line_counts: Sequence[int]
) -> float:
    """Expected reading-order distance after `swaps` swaps per page at
    distances in [r_lo, r_hi], for pages with the given line counts."""
    if any(m < 2 for m in line_counts):
        raise StructureError("swap predictor needs at least 2 lines per page")
    k = len(line_counts)
    return swaps * (r_lo + r_hi) / k * sum(1 / (m * m // 2) for m in line_counts)


def predict_nsfd_splits(
    splits: int, line_counts: Sequence[int], word_counts: Sequence[int]
) -> float:
    """Expected reading-order distance after `splits` line splits per page."""
    if any(m < 2 for m in line_counts):
        raise StructureError("split predictor needs at least 2 lines per page")
    k = len(line_counts)
    disp = sum(
        (n / m) / (m * m // 2) for m, n in zip(line_counts, word_counts)
    )
    return (7 / 6) * (splits / k) * disp
