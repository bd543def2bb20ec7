"""Command-line interface: evaluate transcript corpora, and write distorted
copies of them or the table of a distortion sweep.

A corpus is a directory of UTF-8 plain-text files, one file per page, one
physical line per text line, reading order given by file order.  Reference
and hypothesis pages are paired by identical relative path.

Exit codes: 0 success, 1 usage error (including an output path that cannot
be written), 2 data errors (missing hypothesis or reference pages,
unreadable files, empty references, a dead worker process, a page too large
to score in the memory available, pages a sweep predictor cannot take).

An `eval` report is written even when no page scores (every reference is
blank, say, or a dead worker took every page): the JSON report then has
`schema`, `gamma` and `page_errors` but no `corpus`, and the TSV report is
its header line alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Sequence

from . import simulate
from .assign import check_gamma
from .core import EvalError, IngestionError, PageTranscript, StructureError, tokenize_page
from .report import DEFAULT_GAMMA, CorpusReport, PageReport, aggregate, evaluate_page

SCHEMA_VERSION = "pageval-report/1"
# `simulate` writes its manifest next to the distorted pages, so a simulated
# corpus used as a hypothesis corpus has this one file that is not a page.
MANIFEST = "manifest.json"

# Metric columns of every report (JSON, TSV, sweep.tsv): header -> report
# attribute.  The order follows the corpus summary tables: reading-order
# distance first, then the WER family, then character rates.
COLUMNS = {
    "NSFD": "nsfd",
    "dWER": "delta_wer",
    "WER": "wer",
    "bWER": "bwer",
    "hWER": "hwer",
    "CER": "cer",
    "hCER": "hcer",
}
TSV_COLUMNS = tuple(COLUMNS)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> "None":
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _gamma(text: str) -> float:
    try:
        return check_gamma(float(text))
    except (ValueError, StructureError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_at_least(lo: int) -> Callable[[str], int]:
    def count(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return count


def _iter_pages(root: Path) -> list[Path]:
    """Page files under root; dotfiles and anything under a dot-directory
    (.DS_Store, .git, editor swap files) are not pages."""
    return sorted(
        p
        for p in root.rglob("*")
        if p.is_file()
        and not any(part.startswith(".") for part in p.relative_to(root).parts)
    )


def _load_page(path: Path, page_id: str) -> PageTranscript:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IngestionError(f"page {page_id!r}: cannot read {path}: {exc}") from exc
    return tokenize_page(data, page_id)


def _metrics(report: PageReport | CorpusReport) -> dict:
    return {col: getattr(report, attr) for col, attr in COLUMNS.items()}


def _percent_row(values: dict) -> list[str]:
    return [f"{100 * values[c]:.1f}" for c in TSV_COLUMNS]


def _report_json(report: PageReport | CorpusReport) -> dict:
    """The JSON fields that page and corpus entries share."""
    return {
        "n_words": report.n_words,
        "n_chars": report.n_chars,
        "metrics": _metrics(report),
        "extra": {"beta_wer": report.beta_wer, "delta_wer_h": report.delta_wer_h},
        "wer_counts": asdict(report.wer_counts),
        "bwer_counts": asdict(report.bwer_counts),
    }


def _page_json(report: PageReport, timing: bool) -> dict:
    entry = _report_json(report)
    entry["extra"].update(dummy_pairs=report.dummy_pairs, length_gap=report.length_gap)
    entry["page_id"] = report.page_id
    entry["n_hyp_words"] = report.n_hyp_words
    entry["errors"] = {
        "wer": report.wer_errors,
        "cer": report.cer_errors,
        "bwer": report.bwer_errors,
        "hwer": report.hwer_errors,
        "hcer": report.hcer_errors,
    }
    if timing:
        entry["timings"] = dict(report.timings)
    return entry


def _evaluate_one(args: tuple) -> tuple[str, PageReport | None, str | None]:
    rel, ref_path, hyp_path, gamma = args
    try:
        ref = _load_page(ref_path, rel)
        if hyp_path is None:
            hyp = PageTranscript((), rel)
        else:
            hyp = _load_page(hyp_path, rel)
        return rel, evaluate_page(ref, hyp, gamma), None
    except EvalError as exc:
        return rel, None, str(exc)
    except MemoryError:  # a page too large for the hWER matrix, say
        return rel, None, "not enough memory to score this page"


def _cannot_write(command: str, exc: OSError) -> int:
    print(f"{command}: cannot write {exc.filename}: {exc.strerror or exc}",
          file=sys.stderr)
    return 1


def cmd_eval(args: argparse.Namespace) -> int:
    ref_dir = Path(args.ref)
    hyp_dir = Path(args.hyp)
    if not ref_dir.is_dir() or not hyp_dir.is_dir():
        print("eval: reference and hypothesis must be directories", file=sys.stderr)
        return 1
    ref_files = _iter_pages(ref_dir)
    if not ref_files:
        print(f"eval: no pages under {ref_dir}", file=sys.stderr)
        return 2

    tasks = []
    missing = []
    for ref_path in ref_files:
        rel = ref_path.relative_to(ref_dir).as_posix()
        hyp_path = hyp_dir / rel
        if not hyp_path.is_file():
            missing.append(rel)
            hyp_path = None
        tasks.append((rel, ref_path, hyp_path, args.gamma))

    # the pool forks all its workers at the first submit: no more than pages
    jobs = min(args.jobs, len(tasks))
    if jobs > 1:
        # imported here: multiprocessing costs every --jobs 1 call start-up time
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_evaluate_one, task) for task in tasks]
        results = []
        for (rel, *_), future in zip(tasks, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:  # a worker died, say killed for memory
                results.append((rel, None, f"worker process died: {exc}"))
    else:
        results = [_evaluate_one(t) for t in tasks]
    results.sort(key=lambda r: r[0])

    reports = [r for _, r, err in results if r is not None]
    errors = [(rel, err) for rel, r, err in results if err is not None]
    paired = {rel for rel, _, _ in results} | {MANIFEST}
    for hyp_path in _iter_pages(hyp_dir):
        rel = hyp_path.relative_to(hyp_dir).as_posix()
        if rel not in paired:
            errors.append((rel, "no reference page"))
    errors.sort()
    for rel, err in errors:
        print(f"eval: {rel}: {err}", file=sys.stderr)
    for rel in missing:
        print(f"eval: {rel}: hypothesis page missing, scored as empty", file=sys.stderr)

    corpus = aggregate(reports) if reports else None
    if args.format == "json":
        payload = {"schema": SCHEMA_VERSION, "gamma": args.gamma}
        if corpus is not None:
            payload["corpus"] = {"n_pages": len(corpus.pages), **_report_json(corpus)}
            if args.per_page:
                payload["pages"] = [_page_json(r, args.timing) for r in reports]
        if errors:
            payload["page_errors"] = [
                {"page_id": rel, "error": err} for rel, err in errors
            ]
        out_text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = ["\t".join(("page_id",) + TSV_COLUMNS)]
        if args.per_page:
            for r in reports:
                lines.append("\t".join([r.page_id] + _percent_row(_metrics(r))))
        if corpus is not None:
            lines.append("\t".join(["#corpus"] + _percent_row(_metrics(corpus))))
        out_text = "\n".join(lines) + "\n"

    if args.out:
        try:
            # the page id of a non-UTF-8 file name holds its bytes as surrogates
            Path(args.out).write_text(out_text, "utf-8", "surrogateescape")
        except OSError as exc:
            return _cannot_write("eval", exc)
    elif hasattr(sys.stdout, "buffer"):
        # as for --out: a strict stdout encoding would refuse the surrogates
        sys.stdout.flush()
        sys.stdout.buffer.write(out_text.encode("utf-8", "surrogateescape"))
    else:
        sys.stdout.write(out_text)

    if errors or missing:
        return 2
    return 0


def _sim_config(args: argparse.Namespace) -> simulate.DistortionConfig:
    mode = {
        "char-word": simulate.WORD_LEVEL,
        "char-line": simulate.LINE_LEVEL,
        "swap": simulate.LINE_SWAP,
        "split": simulate.LINE_SPLIT,
    }[args.mode]
    return simulate.DistortionConfig(
        mode=mode,
        seed=args.seed,
        tcer_step=args.tcer_step,
        op_mix=tuple(args.op_mix),
        whitespace_share=args.ws_share,
        swaps=args.swaps,
        swap_range=tuple(args.swap_range),
        splits=args.splits,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    ref_dir = Path(args.ref)
    if not ref_dir.is_dir():
        print("simulate: reference must be a directory", file=sys.stderr)
        return 1
    out_dir = Path(args.out_dir)
    try:
        cfg = _sim_config(args)
    except EvalError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 1

    try:
        pages = [
            _load_page(p, p.relative_to(ref_dir).as_posix())
            for p in _iter_pages(ref_dir)
        ]
    except EvalError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 2
    if not pages:
        print(f"simulate: no pages under {ref_dir}", file=sys.stderr)
        return 2

    if args.sweep is not None:
        lines = []
        try:
            for n, corpus, trend in simulate.sweep(pages, cfg, args.sweep, args.gamma):
                if not lines:
                    lines.append("\t".join(["parameter", *TSV_COLUMNS, *trend]))
                cells = [str(n), *_percent_row(_metrics(corpus))]
                cells += [f"{100 * v:.3f}" for v in trend.values()]
                lines.append("\t".join(cells))
        except EvalError as exc:
            print(f"simulate: {exc}", file=sys.stderr)
            return 2
        except MemoryError:
            print("simulate: not enough memory to score a page", file=sys.stderr)
            return 2
        files = {"sweep.tsv": "\n".join(lines) + "\n"}
    else:
        distorted, manifest = simulate.distort_corpus(pages, cfg)
        files = {page.page_id: page.text() + "\n" for page in distorted}
        files[MANIFEST] = json.dumps(manifest, indent=2, sort_keys=True) + "\n"

    try:
        for name, text in files.items():
            path = out_dir / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
    except OSError as exc:
        return _cannot_write("simulate", exc)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pageval", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a hypothesis corpus against a reference")
    p_eval.add_argument("--ref", required=True, help="reference corpus directory")
    p_eval.add_argument("--hyp", required=True, help="hypothesis corpus directory")
    p_eval.add_argument("--gamma", type=_gamma, default=DEFAULT_GAMMA,
                        help="assignment regularization factor (default: %(default)s)")
    p_eval.add_argument("--format", choices=("json", "tsv"), default="json")
    p_eval.add_argument("--out", help="write the report here instead of stdout")
    p_eval.add_argument("--per-page", action="store_true", help="include per-page rows")
    p_eval.add_argument("--timing", action="store_true",
                        help="include per-metric timings in JSON output")
    p_eval.add_argument("--jobs", type=_int_at_least(1), default=1,
                        help="parallel page workers")
    p_eval.set_defaults(func=cmd_eval)

    p_sim = sub.add_parser("simulate", help="write a distorted copy of a corpus")
    p_sim.add_argument("--ref", required=True, help="reference corpus directory")
    p_sim.add_argument("--out-dir", required=True)
    p_sim.add_argument("--mode", required=True,
                       choices=("char-word", "char-line", "swap", "split"))
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--tcer-step", type=int, default=0,
                       help="character-noise schedule step n (induced CER 3.25n%%)")
    p_sim.add_argument("--op-mix", type=float, nargs=3, default=[0.60, 0.15, 0.25],
                       metavar=("SUB", "INS", "DEL"),
                       help="character operation proportions (defaults are "
                            "explicit config, not measured values)")
    p_sim.add_argument("--ws-share", type=float, default=0.15,
                       help="whitespace share of line-level edits")
    p_sim.add_argument("--swaps", type=int, default=0, help="line swaps per page")
    p_sim.add_argument("--swap-range", type=int, nargs=2, default=[1, 1],
                       metavar=("LO", "HI"), help="line-swap distance range")
    p_sim.add_argument("--splits", type=int, default=0, help="line splits per page")
    p_sim.add_argument("--sweep", type=_int_at_least(0), default=None, metavar="MAX",
                       help="evaluate a parameter sweep up to MAX and write sweep.tsv")
    p_sim.add_argument("--gamma", type=_gamma, default=DEFAULT_GAMMA)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
