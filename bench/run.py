"""End-to-end benchmark of `pageval`, run as a closed loop with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

The benchmark writes the workload's corpora from the seed (workloads.py),
then calls ``pageval.cli.main`` in a fresh process, one call at a time,
cycling through the corpora, for about S seconds (every corpus at least
once).  Every call's output is checked outside the timed region; the first
output of each corpus is also compared with reference.py and, for seeds
listed in digests.json, with the recorded SHA-256.  The last stdout line is
one JSON object: ``correct``, ``attempted`` and ``failed`` (pages) and
``metrics``; the line before it holds the details (environment, samples,
output digests).

--trace 0 reports the end-to-end metrics, measured untraced:
  words_per_s  reference words scored / wall time of cli.main, median of the
               calls made within FAST_PACE of the run's lowest pace
  peak_rss_mb  largest ru_maxrss of any run process
  setup_s      launch to `pageval.cli` imported, median over the run's calls
               and bare set-ups, at least SETUP_SAMPLES in all
Every call runs at --jobs 1 on one CPU, which the driver shares with it and
samples every 0.05 s; times are divided by the host's pace while they were
taken (pace.py), and `detail` also holds the unscaled figures.
--trace 1 alternates untraced and traced cli.main calls at --jobs 1; a
traced call wraps every public pageval function in a span (tracing.py) and
then makes a side pass over the paper-layout assignment path.  It reports
per-layer self times (scaled the same way) and counters, and fails if an
expected span recorded no calls.

--smoke runs each workload once at its smallest size; it checks correctness
and ignores --seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pace
import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

DEADLINE_S = 170  # a run must end within 180 s; children are killed before that
REFERENCE_PAGES = 20  # pages per eval corpus checked against reference.py
# While a run process runs, the driver takes a pace sample (about 1 ms)
# every 0.05 s on the CPU they share, about 2% of it
SAMPLE_EVERY_S = 0.05
MIN_SAMPLES = 3
FAST_PACE = 1.1
# set-up samples per timed run: runs with fewer calls start bare set-ups
SETUP_SAMPLES = 10

TSV_HEAD = ("parameter", "NSFD", "dWER", "WER", "bWER", "hWER", "CER", "hCER")


def window_pace(samples: list, start_ns: float, end_ns: float) -> float:
    """Median pace of the (monotonic ns, pace) samples taken between the two
    times, or of all of them when fewer than MIN_SAMPLES fall in between."""
    inside = [p for t, p in samples if start_ns <= t <= end_ns]
    return statistics.median(inside if len(inside) >= MIN_SAMPLES else [p for _, p in samples])


class RunFailed(Exception):
    """A run process exited badly, timed out, or produced a wrong report."""


class Corpus:
    """One generated input corpus and what its first output looked like."""

    def __init__(self, w, seed: int, index: int, smoke: bool, work: Path) -> None:
        self.w = w
        self.index = index
        self.dir = work / f"corpus{index}"
        self.refs, self.hyps = workloads.write_corpus(w, seed, index, self.dir, smoke)
        self.words = sum(p.word_count for p in self.refs)
        self.scored_pages = len(self.refs) * w.scored_passes()
        self.scored_words = self.words * w.scored_passes()
        self.digest = None
        self.page_errors = 0

    def pairs(self) -> list[tuple[list[str], list[str]]]:
        """(reference, hypothesis) word lists of every page pair cli.main scores."""
        if self.w.sweep is None:
            return [(list(r.words), list(h.words)) for r, h in zip(self.refs, self.hyps)]
        from pageval import simulate

        out = []
        for n in range(self.w.sweep + 1):
            cfg = simulate.DistortionConfig(mode=simulate.WORD_LEVEL, tcer_step=n)
            hyps, _ = simulate.distort_corpus(self.refs, cfg)
            out += [(list(r.words), list(h.words)) for r, h in zip(self.refs, hyps)]
        return out

    # -- correctness ---------------------------------------------------------

    def check(self, out: Path, recorded: str | None) -> int:
        """Validate one output; returns the number of pages in page_errors."""
        data = (out / "sweep.tsv" if self.w.sweep is not None else out).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is not None:
            if digest != self.digest:
                raise RunFailed(f"corpus {self.index}: output differs between calls")
            return self.page_errors
        if recorded is not None and digest != recorded:
            raise RunFailed(
                f"corpus {self.index}: output sha256 {digest} differs from the recorded {recorded}"
            )
        if self.w.sweep is None:
            self.page_errors = self.check_eval(json.loads(data))
        else:
            self.check_sweep(data.decode("utf-8"))
        self.digest = digest
        return self.page_errors

    def check_eval(self, report: dict) -> int:
        corpus = report["corpus"]
        errors = report.get("page_errors", [])
        if corpus["n_pages"] + len(errors) != len(self.refs):
            raise RunFailed("report page count differs from the corpus")
        if not errors and corpus["n_words"] != self.words:
            raise RunFailed("report word count differs from the corpus")
        by_id = {p["page_id"]: p for p in report["pages"]}
        for ref in self.refs[:: max(1, len(self.refs) // REFERENCE_PAGES)]:
            page = by_id.get(ref.page_id)
            if page is None:
                continue
            x = reference.page_words((self.dir / "ref" / ref.page_id).read_text("utf-8"))
            y = reference.page_words((self.dir / "hyp" / ref.page_id).read_text("utf-8"))
            want = reference.error_counts(x, y)
            got = {k: page["errors"][k] for k in want}
            if got != want or page["n_words"] != len(x):
                raise RunFailed(f"page {ref.page_id}: errors {got} != reference {want}")
        return len(errors)

    def check_sweep(self, text: str) -> None:
        """Every step listed once; WER, bWER and CER of two steps match the
        reference, to the one decimal sweep.tsv prints."""
        rows = [line.split("\t") for line in text.splitlines()]
        head = rows[0]
        if tuple(head[: len(TSV_HEAD)]) != TSV_HEAD:
            raise RunFailed(f"unexpected sweep.tsv header {head}")
        if [r[0] for r in rows[1:]] != [str(n) for n in range(self.w.sweep + 1)]:
            raise RunFailed("sweep.tsv does not list every sweep step once")
        pairs = self.pairs()
        per_step = len(self.refs)
        x_chars = sum(reference.char_count(x) for x, _ in pairs[:per_step])
        for n in sorted({self.w.sweep // 2, self.w.sweep}):
            totals = {"wer": 0, "cer": 0, "bwer": 0}
            for x, y in pairs[n * per_step : (n + 1) * per_step]:
                for k, v in reference.error_counts(x, y).items():
                    totals[k] += v
            want = {
                "WER": f"{100 * (totals['wer'] / self.words):.1f}",
                "bWER": f"{100 * (totals['bwer'] / self.words):.1f}",
                "CER": f"{100 * (totals['cer'] / x_chars):.1f}",
            }
            got = {k: rows[1 + n][head.index(k)] for k in want}
            if got != want:
                raise RunFailed(f"sweep step {n}: {got} != reference {want}")


class Bench:
    def __init__(self, w, seed: int, smoke: bool, work: Path) -> None:
        self.w = w
        self.smoke = smoke
        self.work = work
        self.started = time.monotonic()
        self.corpora = [
            Corpus(w, seed, i, smoke, work) for i in range(1 if smoke else w.corpora)
        ]
        recorded = json.loads(DIGESTS.read_text()).get(w.name, {}).get(str(seed))
        self.recorded = [None] * len(self.corpora) if smoke or recorded is None else recorded
        # the driver and every call share one CPU; see launch
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.calls = 0
        self.attempted = 0  # pages
        self.failed = 0  # pages

    def launch(self, mode: str, *args: str) -> dict:
        """Start one child process and return its JSON line, with the pace
        of its set-up and of its cli.main call added."""
        budget = DEADLINE_S - (time.monotonic() - self.started)
        if budget <= 0:
            raise RunFailed("no time left for another run process")
        launch_ns = time.monotonic_ns()
        cmd = [sys.executable, str(HERE / "child.py"), str(launch_ns), mode, *args]
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(
                cmd, stdout=out, stderr=err, start_new_session=True, cwd=ROOT
            )
        samples = []
        deadline = time.monotonic() + budget
        try:
            while True:
                try:
                    proc.wait(timeout=SAMPLE_EVERY_S)
                    break
                except subprocess.TimeoutExpired:
                    if time.monotonic() > deadline:
                        raise RunFailed(f"{mode} process timed out after {budget:.0f} s")
                    samples.append((time.monotonic_ns(), pace.sample()))
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        stdout = out_path.read_text("utf-8")
        if proc.returncode != 0 or not stdout.strip():
            stderr = err_path.read_text("utf-8", errors="replace")
            raise RunFailed(f"{mode} process exited {proc.returncode}: {stderr.strip()[-2000:]}")
        res = json.loads(stdout.strip().splitlines()[-1])
        res["pace_setup"] = window_pace(samples, launch_ns, launch_ns + res["setup_s"] * 1e9)
        if "main_s" in res:
            res["pace_main"] = window_pace(samples, res["main_start_ns"], res["main_end_ns"])
        return res

    def call(self, corpus: Corpus, mode: str) -> dict:
        """One cli.main call on `corpus`; returns its measurements, checked."""
        self.calls += 1
        self.attempted += corpus.scored_pages
        out = self.work / f"out{self.calls}"
        argv = workloads.cli_args(self.w, corpus.dir, out)
        extra = [str(corpus.dir / "pairs.json")] if mode == "trace" else []
        res = self.launch(mode, *extra, *argv)
        if res["exit"] != 0:
            raise RunFailed(f"pageval exited {res['exit']}")
        self.failed += corpus.check(out, self.recorded[corpus.index])
        res["words"] = corpus.scored_words
        if out.is_dir():
            shutil.rmtree(out)
        else:
            out.unlink()
        return res

    def loop(self, seconds: float, step, at_least: int) -> None:
        """Run `step(corpus)` cycling through the corpora, `at_least` times,
        then more while the next step is expected to end within `seconds`."""
        n, last, t0 = 0, 0.0, time.monotonic()
        while n < at_least or time.monotonic() - t0 + last <= seconds:
            t = time.monotonic()
            step(self.corpora[n % len(self.corpora)])
            last = time.monotonic() - t
            n += 1


# -- the two kinds of run ---------------------------------------------------------


def timed_run(b: Bench, seconds: float) -> tuple[dict, dict]:
    calls = []
    b.loop(seconds, lambda corpus: calls.append(b.call(corpus, "run")), len(b.corpora))
    setups = [c["setup_s"] / c["pace_setup"] for c in calls]
    while len(setups) < SETUP_SAMPLES and not b.smoke:
        res = b.launch("setup")
        setups.append(res["setup_s"] / res["pace_setup"])
    # The pace scales a call's time well only near the host's full speed:
    # when the host is busy, scipy's assignment solve slows less than the
    # pace loop and the pure-Python DP more.  So throughput is taken from
    # the calls made while the pace was within FAST_PACE of the run's best.
    fastest = min(c["pace_main"] for c in calls)
    fast = [c for c in calls if c["pace_main"] <= FAST_PACE * fastest]
    metrics = {
        "words_per_s": statistics.median(
            c["words"] * c["pace_main"] / c["main_s"] for c in fast
        ),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in calls),
        "setup_s": statistics.median(setups),
    }
    detail = {
        "raw_words_per_s": statistics.median(c["words"] / c["main_s"] for c in calls),
        "raw_setup_s": statistics.median(c["setup_s"] for c in calls),
        "fast_calls": len(fast),
        "scaled_setup_s": setups,
    } | {
        key: [c[key] for c in calls]
        for key in ("main_s", "setup_s", "pace_main", "pace_setup", "peak_rss_mb")
    }
    return metrics, detail


def expected_spans(w) -> list[str]:
    """Spans that must record calls on workload `w` in cli.main."""
    names = [
        "cli.main", "core.tokenize_page", "report.evaluate_page", "report.aggregate",
        "editdist.edit_distance", "editdist.char_distance", "assign.hwer",
        "assign.hwer_errors", "assign.hcer_errors", "assign.reorder_hypothesis",
        "bow.bwer", "bow.beta_wer", "bow.bwer_errors",
        "reading_order.renumber", "reading_order.nsfd",
    ]
    if w.sweep is not None:
        names += ["simulate.distort_corpus", "simulate.distort_chars"]
    return names


def missing_spans(w, t: dict) -> list[str]:
    main = t["main"]
    missing = [n for n in expected_spans(w) if n not in main]
    missing += [
        f"{n} (side pass)"
        for n in ("assign.build_cost_matrix", "assign.solve_assignment")
        if n not in t["side"]
    ]
    char = main.get("editdist.char_distance", {}).get("by_parent", {})
    missing += [
        f"editdist.char_distance under {p}"
        for p in ("report.evaluate_page", "assign.hcer_errors")
        if p not in char
    ]
    return missing


def layer_metrics(t: dict, pace_main: float) -> dict:
    """Per-layer metrics of one traced call; `.ms` values are self times,
    divided by the call's pace."""
    main, side = t["main"], t["side"]
    to_ms = 1e6 * pace_main

    def ms(names, table=main) -> float:
        return sum(table.get(n, {}).get("self_ns", 0) for n in names) / to_ms

    def layer(prefix: str) -> list[str]:
        return [n for n in main if n.startswith(prefix + ".")]

    def entries(prefix: str) -> int:
        """Calls into the layer from outside it."""
        return sum(
            calls
            for n in layer(prefix)
            for parent, (calls, _) in main[n]["by_parent"].items()
            if not parent.startswith(prefix + ".")
        )

    char = main["editdist.char_distance"]["by_parent"]
    pages = t["evaluate_page_ns"]
    m = {
        "assign.hwer.ms": ms(["assign.hwer"]),
        "assign.build_cost_matrix.ms": ms(["assign.build_cost_matrix"], side),
        "assign.solve_assignment.ms": ms(["assign.solve_assignment"], side),
        "assign.hcer_errors.ms": ms(["assign.hcer_errors"]),
        "editdist.edit_distance.ms": ms(["editdist.edit_distance"]),
        "editdist.char_distance.ms": ms(["editdist.char_distance"]),
        "editdist.char_distance.cer.ms": char["report.evaluate_page"][1] / to_ms,
        "editdist.char_distance.hcer.ms": char["assign.hcer_errors"][1] / to_ms,
        "bow.ms": ms(layer("bow")),
        "bow.calls": entries("bow"),
        "reading_order.ms": ms(layer("reading_order")),
        "report.evaluate_page.calls": len(pages),
        "report.evaluate_page.p50_ms": statistics.median(pages) / to_ms,
        "report.evaluate_page.self_ms": ms(["report.evaluate_page"]),
        "report.evaluate_page.errors": main["report.evaluate_page"]["errors"],
        "report.aggregate.ms": ms(["report.aggregate"]),
        "simulate.ms": ms(layer("simulate")),
        "core.tokenize_page.ms": ms(["core.tokenize_page"]),
        "core.tokenize_page.calls": main["core.tokenize_page"]["calls"],
        "cli.main.self_ms": ms(layer("cli")),
    }
    total_ms = t["main_span_ns"] / to_ms
    for name in tracing.MODULES:
        m[f"{name}.share"] = ms(layer(name)) / total_ms
    return m


def input_counters(pairs: list) -> dict:
    """Work counts of the scored page pairs, computed from the inputs."""
    word_cells = sum(len(x) * len(y) for x, y in pairs)
    unique = sum(len(set(x)) * len(set(y)) for x, y in pairs)
    return {
        "assign.unique_pairs": unique,
        "assign.dedup_ratio": unique / word_cells,
        "assign.square_cells": sum((len(x) + len(y)) ** 2 for x, y in pairs),
        "editdist.word_cells": word_cells,
        # CER and hCER each compare the joined reference with a joined
        # hypothesis of the same length (hCER only reorders hypothesis words)
        "editdist.char_cells": sum(
            2 * reference.char_count(x) * reference.char_count(y) for x, y in pairs
        ),
    }


def traced_run(b: Bench, seconds: float) -> tuple[dict, dict]:
    counters = {}
    untraced, traced = [], []

    def step(corpus: Corpus) -> None:
        if corpus.index not in counters:
            pairs = corpus.pairs()
            (corpus.dir / "pairs.json").write_text(json.dumps(pairs), encoding="utf-8")
            counters[corpus.index] = input_counters(pairs)
        untraced.append(b.call(corpus, "run"))
        traced.append(b.call(corpus, "trace"))
        traced[-1]["corpus"] = corpus.index

    b.loop(seconds, step, 1)
    for res in traced:
        missing = missing_spans(b.w, res["trace"])
        if missing:
            raise SystemExit(
                "traced run: no calls recorded for " + ", ".join(missing)
                + "; a caller no longer looks these names up in a pageval module"
            )
    per_call = [layer_metrics(r["trace"], r["pace_main"]) | counters[r["corpus"]] for r in traced]
    metrics = {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
    traced_s = statistics.median(r["main_s"] / r["pace_main"] for r in traced)
    untraced_s = statistics.median(r["main_s"] / r["pace_main"] for r in untraced)
    metrics["tracing.overhead_share"] = traced_s / untraced_s - 1

    first = traced[0]["trace"]
    detail = {
        "traced_main_s": [r["main_s"] for r in traced],
        "untraced_main_s": [r["main_s"] for r in untraced],
        "slowest_page": first["slowest_page"],
        "spans": first["main"],
        "side_spans": first["side"],
    }
    pages = sorted(first["evaluate_page_ns"])
    if len(pages) >= 100:
        detail["report.evaluate_page.p90_ms"] = pages[int(0.9 * len(pages))] / (
            1e6 * traced[0]["pace_main"]
        )
    return metrics, detail


# -- entry point ------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    tree = hashlib.sha256()
    for path in sorted((SRC / "pageval").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pageval_commit": commit,
        "pageval_source_sha256": tree.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest corpus, one call, correctness only")
    args = parser.parse_args(argv)

    if not (SRC / "pageval" / "cli.py").is_file():
        print(f"run.py: no pageval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = workloads.WORKLOADS[args.workload]
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-{args.seed}-", dir=WORK))
    try:
        b = Bench(w, args.seed, args.smoke, work)
        run = traced_run if args.trace else timed_run
        try:
            metrics, detail = run(b, 0 if args.smoke else args.seconds)
            correct = True
            if set(metrics) != set(units):
                raise SystemExit(
                    f"run.py: metrics {sorted(set(metrics) ^ set(units))} are not "
                    f"both measured and listed in {SPEC.name}"
                )
        except RunFailed as exc:
            # every page of the run counts as failed
            print(f"run.py: {exc}", file=sys.stderr)
            metrics, detail = {}, {"error": str(exc)}
            correct = False
            b.attempted = b.failed = max(b.attempted, b.corpora[0].scored_pages)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail.update(
        workload=w.name, seed=args.seed, smoke=args.smoke, calls=b.calls,
        failed_share=b.failed / b.attempted,
        output_sha256=[c.digest for c in b.corpora], env=environment(),
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
