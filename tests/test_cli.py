import concurrent.futures
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from pageval import cli, simulate
from pageval.cli import main

from conftest import FIG_HYP_LINES, FIG_LEFT, FIG_RIGHT, synthetic_corpus


def write_corpus(root: Path, pages: dict[str, str]) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    for name, text in pages.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


@pytest.fixture()
def tiny_corpus(tmp_path):
    ref = write_corpus(
        tmp_path / "ref",
        {"a.txt": "to be or not\nto be\n", "sub/b.txt": "more words here\n"},
    )
    hyp = write_corpus(
        tmp_path / "hyp",
        {"a.txt": "to be or not\nto be\n", "sub/b.txt": "more words here\n"},
    )
    return ref, hyp


def test_eval_identical_corpora_all_zero(tiny_corpus, tmp_path, capsys):
    ref, hyp = tiny_corpus
    out = tmp_path / "report.json"
    code = main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "pageval-report/1"
    metrics = payload["corpus"]["metrics"]
    assert all(v == 0.0 for v in metrics.values())
    assert payload["corpus"]["n_pages"] == 2


def test_eval_missing_hypothesis_scored_empty(tiny_corpus, tmp_path, capsys):
    ref, hyp = tiny_corpus
    (hyp / "sub" / "b.txt").unlink()
    out = tmp_path / "report.json"
    code = main(
        ["eval", "--ref", str(ref), "--hyp", str(hyp), "--out", str(out), "--per-page"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "hypothesis page missing" in err
    payload = json.loads(out.read_text())
    rows = {p["page_id"]: p for p in payload["pages"]}
    assert rows["sub/b.txt"]["metrics"]["WER"] == 1.0
    assert rows["a.txt"]["metrics"]["WER"] == 0.0


def test_eval_unpaired_hypothesis_page_is_reported(tiny_corpus, tmp_path, capsys):
    ref, hyp = tiny_corpus
    write_corpus(hyp, {"extra/c.txt": "no reference for this\n"})
    out = tmp_path / "report.json"
    code = main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--out", str(out)])
    assert code == 2
    assert "eval: extra/c.txt: no reference page" in capsys.readouterr().err
    payload = json.loads(out.read_text())
    assert payload["page_errors"] == [
        {"page_id": "extra/c.txt", "error": "no reference page"}
    ]
    assert payload["corpus"]["n_pages"] == 2


def test_eval_reports_bad_pages(tmp_path, capsys):
    ref = write_corpus(tmp_path / "ref", {"ok.txt": "fine text\n", "empty.txt": "\n"})
    (tmp_path / "ref" / "bad.txt").write_bytes(b"abc\xff")
    hyp = write_corpus(
        tmp_path / "hyp",
        {"ok.txt": "fine text\n", "empty.txt": "\n", "bad.txt": "x\n"},
    )
    out = tmp_path / "report.json"
    code = main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "byte offset" in err
    assert "empty reference" in err
    payload = json.loads(out.read_text())
    ids = {e["page_id"] for e in payload["page_errors"]}
    assert ids == {"bad.txt", "empty.txt"}
    assert payload["corpus"]["n_pages"] == 1


def test_eval_bom_pages_score_as_plain_pages(tmp_path):
    pages = {"a.txt": "To be or not\nto be, that\n", "b.txt": "is the question\n"}
    hyps = {"a.txt": "To be or nut\nthat to be,\n", "b.txt": "the question is\n"}
    metrics = {}
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        for side, texts in (("ref", pages), ("hyp", hyps)):
            root = tmp_path / name / side
            root.mkdir(parents=True)
            for page, text in texts.items():
                (root / page).write_bytes(bom + text.encode("utf-8"))
        out = tmp_path / name / "report.json"
        root = tmp_path / name
        argv = ["eval", "--ref", str(root / "ref"), "--hyp", str(root / "hyp"),
                "--per-page", "--out", str(out)]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        metrics[name] = [payload["corpus"]["metrics"]] + [
            (p["page_id"], p["metrics"]) for p in payload["pages"]
        ]
    assert metrics["bom"] == metrics["plain"]
    assert metrics["plain"][0]["WER"] > 0


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_eval_report_written_when_no_page_scores(tmp_path, capsys, fmt):
    ref = write_corpus(tmp_path / "ref", {"blank.txt": "\n"})
    hyp = write_corpus(tmp_path / "hyp", {"blank.txt": "some words\n"})
    out = tmp_path / f"report.{fmt}"
    code = main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--out", str(out),
                 "--format", fmt, "--per-page"])
    assert code == 2
    assert "blank.txt" in capsys.readouterr().err
    if fmt == "json":
        payload = json.loads(out.read_text())
        assert sorted(payload) == ["gamma", "page_errors", "schema"]
        assert [e["page_id"] for e in payload["page_errors"]] == ["blank.txt"]
    else:
        assert out.read_text() == "\t".join(("page_id",) + cli.TSV_COLUMNS) + "\n"


def test_eval_tsv_percent_columns(tmp_path, capsys):
    ref = write_corpus(tmp_path / "r", {"p.txt": "\n".join(FIG_LEFT + FIG_RIGHT) + "\n"})
    hyp = write_corpus(tmp_path / "h", {"p.txt": "\n".join(FIG_HYP_LINES) + "\n"})
    code = main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--format", "tsv",
                 "--per-page"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == [
        "page_id", "NSFD", "dWER", "WER", "bWER", "hWER", "CER", "hCER",
    ]
    row = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
    assert row["WER"] == "70.0"
    assert row["bWER"] == "0.0"
    assert row["dWER"] == "70.0"
    assert lines[-1].startswith("#corpus")


def test_eval_deterministic_reports(tiny_corpus, tmp_path):
    ref, hyp = tiny_corpus
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--out", str(out1), "--per-page"])
    main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--out", str(out2), "--per-page"])
    assert out1.read_bytes() == out2.read_bytes()


def test_eval_parallel_matches_serial(tmp_path):
    pages = synthetic_corpus(6, 6, 5, seed=77)
    ref = write_corpus(
        tmp_path / "ref", {p.page_id: p.text() + "\n" for p in pages}
    )
    hyp_pages = synthetic_corpus(6, 6, 5, seed=78)
    hyp = write_corpus(
        tmp_path / "hyp",
        {p.page_id: h.text() + "\n" for p, h in zip(pages, hyp_pages)},
    )
    out1 = tmp_path / "serial.json"
    out2 = tmp_path / "parallel.json"
    assert main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--out", str(out1),
                 "--per-page"]) == 0
    assert main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--out", str(out2),
                 "--per-page", "--jobs", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


class _InlinePool:
    """Stands in for `ProcessPoolExecutor`: records `max_workers` and runs
    each task inline, so no process is started."""

    built: list[int] = []

    def __init__(self, max_workers):
        self.built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("pages, jobs, built", [(2, "64", [2]), (1, "2", [])])
def test_eval_jobs_are_capped_at_the_page_count(tmp_path, monkeypatch, pages, jobs,
                                                built):
    corpus = {f"{name}.txt": "a few words\nto score\n" for name in "ab"[:pages]}
    ref = write_corpus(tmp_path / "ref", corpus)
    hyp = write_corpus(tmp_path / "hyp", corpus)
    serial = tmp_path / "serial.json"
    assert main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--out", str(serial),
                 "--per-page"]) == 0
    monkeypatch.setattr(_InlinePool, "built", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    out = tmp_path / "report.json"
    assert main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--out", str(out),
                 "--per-page", "--jobs", jobs]) == 0
    assert _InlinePool.built == built
    assert out.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_eval_out_keeps_a_non_utf8_page_name(tmp_path, fmt):
    name = b"caf\xe9.txt"
    for side in ("ref", "hyp"):
        (tmp_path / side).mkdir()
        with open(os.fsencode(tmp_path / side) + b"/" + name, "wb") as f:
            f.write(b"some words here\n")
    out = tmp_path / f"report.{fmt}"
    assert main(["eval", "--ref", str(tmp_path / "ref"), "--hyp", str(tmp_path / "hyp"),
                 "--format", fmt, "--out", str(out), "--per-page"]) == 0
    if fmt == "tsv":
        assert b"\n" + name + b"\t0.0\t" in out.read_bytes()
    else:
        [page] = json.loads(out.read_bytes())["pages"]
        assert os.fsencode(page["page_id"]) == name


def _non_utf8_corpus(tmp_path, sides=("ref", "hyp")):
    name = b"caf\xe9.txt"
    for side in sides:
        (tmp_path / side).mkdir()
        with open(os.fsencode(tmp_path / side) + b"/" + name, "wb") as f:
            f.write(b"some words here\nand a second line\n")
    return name


def test_eval_stdout_keeps_a_non_utf8_page_name_under_strict_utf8(tmp_path):
    # the usual stdout under a UTF-8 locale refuses the name's surrogates
    name = _non_utf8_corpus(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "PYTHONIOENCODING": "utf-8:strict"}
    done = subprocess.run(
        [sys.executable, "-m", "pageval.cli", "eval", "--ref", str(tmp_path / "ref"),
         "--hyp", str(tmp_path / "hyp"), "--per-page", "--format", "tsv"],
        capture_output=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert b"\n" + name + b"\t0.0\t" in done.stdout


@pytest.mark.parametrize("mode", [["--mode", "swap", "--swaps", "1"],
                                  ["--mode", "char-word", "--sweep", "1"]])
def test_simulate_keeps_a_non_utf8_page_name(tmp_path, mode):
    name = _non_utf8_corpus(tmp_path, ("ref",))
    out_dir = tmp_path / "out"
    assert main(["simulate", "--ref", str(tmp_path / "ref"),
                 "--out-dir", str(out_dir), *mode]) == 0
    if "swap" in mode:
        with open(os.fsencode(out_dir) + b"/" + name, "rb") as f:
            assert f.read() == b"and a second line\nsome words here\n"


def test_usage_error_exit_code_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--ref"])
    assert exc.value.code == 1


def test_unknown_directory_is_usage_error(tmp_path):
    assert main(["eval", "--ref", str(tmp_path / "nope"), "--hyp", str(tmp_path)]) == 1


def test_simulate_swap_zero_identity(tmp_path):
    pages = synthetic_corpus(3, 8, 5, seed=50)
    ref = write_corpus(tmp_path / "ref", {p.page_id: p.text() + "\n" for p in pages})
    out_dir = tmp_path / "out"
    code = main(["simulate", "--ref", str(ref), "--out-dir", str(out_dir),
                 "--mode", "swap", "--swaps", "0", "--seed", "3"])
    assert code == 0
    for p in pages:
        assert (out_dir / p.page_id).read_text() == (ref / p.page_id).read_text()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["algorithm"] == "mersenne-twister"
    assert manifest["config"]["swaps"] == 0


def test_simulate_swap_then_eval_bwer_zero(tmp_path):
    pages = synthetic_corpus(4, 12, 6, seed=51)
    ref = write_corpus(tmp_path / "ref", {p.page_id: p.text() + "\n" for p in pages})
    out_dir = tmp_path / "swapped"
    assert main(["simulate", "--ref", str(ref), "--out-dir", str(out_dir),
                 "--mode", "swap", "--swaps", "4", "--swap-range", "4", "7",
                 "--seed", "3"]) == 0
    report = tmp_path / "report.json"
    assert main(["eval", "--ref", str(ref), "--hyp", str(out_dir), "--out",
                 str(report), "--per-page"]) == 0
    payload = json.loads(report.read_text())
    assert payload["corpus"]["metrics"]["bWER"] == 0.0
    assert payload["corpus"]["metrics"]["WER"] > 0.0
    assert all(p["metrics"]["bWER"] == 0.0 for p in payload["pages"])


def test_eval_of_a_simulated_reference_scores_no_manifest(tmp_path, capsys):
    # the manifest `simulate` writes next to its pages is not a page, on the
    # reference side too
    pages = synthetic_corpus(2, 6, 4, seed=54)
    ref = write_corpus(tmp_path / "ref", {p.page_id: p.text() + "\n" for p in pages})
    noisy = tmp_path / "noisy"
    assert main(["simulate", "--ref", str(ref), "--out-dir", str(noisy),
                 "--mode", "swap", "--swaps", "1"]) == 0
    report = tmp_path / "report.json"
    assert main(["eval", "--ref", str(noisy), "--hyp", str(ref), "--out",
                 str(report), "--per-page"]) == 0
    assert "manifest.json" not in capsys.readouterr().err
    payload = json.loads(report.read_text())
    assert [p["page_id"] for p in payload["pages"]] == [p.page_id for p in pages]
    assert payload["corpus"]["metrics"]["bWER"] == 0.0
    assert payload["corpus"]["metrics"]["WER"] > 0.0


def test_simulate_of_a_simulated_corpus_distorts_only_its_pages(tmp_path):
    # the old manifest is neither distorted, nor listed, nor a source of
    # alphabet characters that would change the noise on the real pages
    pages = synthetic_corpus(2, 6, 4, seed=55)
    ref = write_corpus(tmp_path / "ref", {p.page_id: p.text() + "\n" for p in pages})
    noisy, again = tmp_path / "noisy", tmp_path / "again"
    assert main(["simulate", "--ref", str(ref), "--out-dir", str(noisy),
                 "--mode", "swap", "--swaps", "1"]) == 0
    assert main(["simulate", "--ref", str(noisy), "--out-dir", str(again),
                 "--mode", "char-word", "--tcer-step", "3", "--seed", "4"]) == 0
    real = [cli._load_page(noisy / p.page_id, p.page_id) for p in pages]
    want, manifest = simulate.distort_corpus(
        real, simulate.DistortionConfig(mode=simulate.WORD_LEVEL, seed=4, tcer_step=3)
    )
    assert sorted(f.name for f in again.iterdir()) == sorted(
        [*(p.page_id for p in pages), "manifest.json"]
    )
    for page in want:
        assert (again / page.page_id).read_text() == page.text() + "\n"
    assert json.loads((again / "manifest.json").read_text())["pages"] == manifest["pages"]


def test_simulate_swap_range_beyond_the_page_is_the_page(tmp_path):
    # no distance past line_count - 1 admits a swap, so a huge upper bound
    # draws what the largest useful one draws, without visiting the rest
    pages = synthetic_corpus(3, 4, 3, seed=56)
    ref = write_corpus(tmp_path / "ref", {p.page_id: p.text() + "\n" for p in pages})
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    outs = []
    for hi in ("3", "1000000000000"):
        out = tmp_path / f"out{hi}"
        done = subprocess.run(
            [sys.executable, "-m", "pageval.cli", "simulate", "--ref", str(ref),
             "--out-dir", str(out), "--mode", "swap", "--swaps", "2",
             "--swap-range", "1", hi, "--seed", "5"],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert done.returncode == 0, done.stderr
        outs.append(out)
    for page in pages:
        assert (outs[0] / page.page_id).read_text() == (outs[1] / page.page_id).read_text()
    manifests = [json.loads((out / "manifest.json").read_text()) for out in outs]
    assert manifests[0]["pages"] == manifests[1]["pages"]
    assert any(entry["swaps"] for entry in manifests[0]["pages"])


def test_simulate_sweep_writes_tsv(tmp_path):
    pages = synthetic_corpus(3, 10, 5, seed=52)
    ref = write_corpus(tmp_path / "ref", {p.page_id: p.text() + "\n" for p in pages})
    out_dir = tmp_path / "sweep"
    assert main(["simulate", "--ref", str(ref), "--out-dir", str(out_dir),
                 "--mode", "swap", "--swap-range", "2", "4", "--seed", "3",
                 "--sweep", "3"]) == 0
    lines = (out_dir / "sweep.tsv").read_text().strip().splitlines()
    header = lines[0].split("\t")
    assert header[:8] == ["parameter", "NSFD", "dWER", "WER", "bWER", "hWER",
                          "CER", "hCER"]
    assert "tNSFD" in header
    assert len(lines) == 5  # parameter 0..3 plus header
    first = dict(zip(header, lines[1].split("\t")))
    assert first["parameter"] == "0" and first["WER"] == "0.0"


def test_simulate_char_sweep_includes_schedule_columns(tmp_path):
    pages = synthetic_corpus(3, 8, 5, seed=53)
    ref = write_corpus(tmp_path / "ref", {p.page_id: p.text() + "\n" for p in pages})
    out_dir = tmp_path / "charsweep"
    assert main(["simulate", "--ref", str(ref), "--out-dir", str(out_dir),
                 "--mode", "char-word", "--seed", "3", "--sweep", "2"]) == 0
    header = (out_dir / "sweep.tsv").read_text().splitlines()[0].split("\t")
    assert "tCER" in header and "tWER" in header


@pytest.mark.parametrize("gamma", ["nan", "inf", "-inf", "-1"])
def test_non_finite_gamma_is_usage_error(tiny_corpus, tmp_path, gamma, capsys):
    ref, hyp = tiny_corpus
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--ref", str(ref), "--hyp", str(hyp), f"--gamma={gamma}"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--ref", str(ref), "--out-dir", str(tmp_path / "out"),
              "--mode", "swap", "--sweep", "1", f"--gamma={gamma}"])
    assert exc.value.code == 1
    assert "finite non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(tiny_corpus, jobs, capsys):
    ref, hyp = tiny_corpus
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--ref", str(ref), "--hyp", str(hyp), f"--jobs={jobs}"])
    assert exc.value.code == 1
    assert "--jobs" in capsys.readouterr().err


def test_eval_skips_dotfiles(tiny_corpus, tmp_path):
    ref, hyp = tiny_corpus
    clean = tmp_path / "clean.json"
    assert main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--out", str(clean),
                 "--per-page"]) == 0
    (ref / ".DS_Store").write_bytes(b"\x00\x00\x00\x01Bud1")
    (hyp / "sub" / ".DS_Store").write_bytes(b"\x00\x00\x00\x01Bud1")
    write_corpus(ref / ".cache", {"stale.txt": "not a page\n"})
    stray = tmp_path / "stray.json"
    assert main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--out", str(stray),
                 "--per-page"]) == 0
    assert stray.read_bytes() == clean.read_bytes()


def test_simulate_negative_sweep_is_usage_error(tiny_corpus, tmp_path, capsys):
    ref, _ = tiny_corpus
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--ref", str(ref), "--out-dir", str(tmp_path / "out"),
              "--mode", "char-word", "--sweep", "-1"])
    assert exc.value.code == 1
    assert "--sweep: must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--op-mix", "nan", "0.5", "0.5"],
                                    ["--op-mix", "1", "0", "nan"]])
def test_simulate_non_finite_op_mix_is_usage_error(tiny_corpus, tmp_path, capsys,
                                                   option):
    ref, _ = tiny_corpus
    out_dir = tmp_path / "out"
    assert main(["simulate", "--ref", str(ref), "--out-dir", str(out_dir),
                 "--mode", "char-word", *option]) == 1
    assert "simulate: op_mix must be" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "mode, pages, message",
    [
        ("char-word", {"a.txt": "some words\n", "empty.txt": "\n"},
         "simulate: page 'empty.txt': empty reference"),
        ("char-word", {"a.txt": "\n\n", "b.txt": "\n"}, "empty reference"),
        ("swap", {"a.txt": "two lines\nof text\n", "b.txt": "one line\n"},
         "simulate: swap predictor needs at least 2 lines per page"),
        ("split", {"a.txt": "two lines\nof text\n", "b.txt": "one line\n"},
         "simulate: split predictor needs at least 2 lines per page"),
    ],
    ids=["empty-page", "all-blank-pages", "one-line-swap", "one-line-split"],
)
def test_simulate_sweep_data_error_exit_two(tmp_path, capsys, mode, pages, message):
    ref = write_corpus(tmp_path / "ref", pages)
    out_dir = tmp_path / "out"
    code = main(["simulate", "--ref", str(ref), "--out-dir", str(out_dir),
                 "--mode", mode, "--sweep", "2"])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (out_dir / "sweep.tsv").exists()


_real_evaluate_one = cli._evaluate_one


def _crash_on_last_page(task):
    if task[0] == "f.txt":
        os._exit(1)  # as a worker killed for memory would
    return _real_evaluate_one(task)


def test_eval_worker_crash_reported_per_page(tmp_path, monkeypatch, capsys):
    pages = {f"{name}.txt": "a few words\nto score\n" for name in "abcdef"}
    ref = write_corpus(tmp_path / "ref", pages)
    hyp = write_corpus(tmp_path / "hyp", pages)
    monkeypatch.setattr(cli, "_evaluate_one", _crash_on_last_page)
    out = tmp_path / "report.json"
    code = main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--out", str(out),
                 "--jobs", "2"])
    assert code == 2
    err = capsys.readouterr().err
    payload = json.loads(out.read_text())
    lost = {e["page_id"] for e in payload["page_errors"]}
    assert "f.txt" in lost
    assert payload["corpus"]["n_pages"] + len(lost) == len(pages)
    for entry in payload["page_errors"]:
        assert entry["error"].startswith("worker process died")
        assert f"eval: {entry['page_id']}: worker process died" in err


def test_eval_unwritable_out_is_usage_error(tiny_corpus, tmp_path, capsys):
    ref, hyp = tiny_corpus
    out = tmp_path / "missing_dir" / "out.json"
    code = main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"eval: cannot write {out}: No such file or directory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "mode",
    [["--mode", "swap", "--swaps", "1"], ["--mode", "char-word", "--sweep", "1"]],
    ids=["pages", "sweep"],
)
def test_simulate_unwritable_out_dir_is_usage_error(tiny_corpus, tmp_path, capsys, mode):
    ref, _ = tiny_corpus
    blocker = tmp_path / "a_regular_file"
    blocker.write_text("not a directory\n")
    out_dir = blocker / "sub"
    code = main(["simulate", "--ref", str(ref), "--out-dir", str(out_dir), *mode])
    assert code == 1
    err = capsys.readouterr().err
    assert f"simulate: cannot write {out_dir}: Not a directory" in err
    assert "Traceback" not in err


_real_evaluate_page = cli.evaluate_page


def _out_of_memory_on_b(ref, hyp, gamma):
    if ref.page_id == "b.txt":
        raise MemoryError  # as numpy does when the hWER matrix does not fit
    return _real_evaluate_page(ref, hyp, gamma)


def test_eval_out_of_memory_page_is_a_page_error(tmp_path, monkeypatch, capsys):
    pages = {"a.txt": "a few words\nto score\n", "b.txt": "far too many words\n"}
    ref = write_corpus(tmp_path / "ref", pages)
    hyp = write_corpus(tmp_path / "hyp", pages)
    monkeypatch.setattr(cli, "evaluate_page", _out_of_memory_on_b)
    out = tmp_path / "report.json"
    code = main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "eval: b.txt: not enough memory to score this page" in err
    assert "Traceback" not in err
    payload = json.loads(out.read_text())
    assert payload["page_errors"] == [
        {"page_id": "b.txt", "error": "not enough memory to score this page"}
    ]
    assert payload["corpus"]["n_pages"] == 1
    assert payload["corpus"]["n_words"] == 5


# The child's address-space limit: a few times what `pageval eval` needs for
# a small page (~143 MB VmPeak), far below the 1.15 GB hWER matrix of the
# 6,000-word page below.
_CHILD_AS_LIMIT = 700 * 2**20


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_CHILD_AS_LIMIT, _CHILD_AS_LIMIT))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_eval_page_beyond_address_space_is_a_page_error(tmp_path, jobs):
    # A real allocation failure, in a child process only: the hypothesis is
    # the reference with its first word replaced, so the shared suffix keeps
    # the word DP tiny, no identity shortcut applies, and `_assemble` asks
    # for a 12,000 x 12,000 float64 matrix.
    words = [f"w{i % 50}" for i in range(6000)]
    ref = write_corpus(tmp_path / "ref", {"a.txt": "a few words\n",
                                          "p.txt": " ".join(words) + "\n"})
    hyp = write_corpus(tmp_path / "hyp", {"a.txt": "a few words\n",
                                          "p.txt": " ".join(["zz", *words[1:]]) + "\n"})
    out = tmp_path / "report.json"
    # one BLAS thread, so the address space numpy reserves at import does not
    # grow with the host's CPU count
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pageval.cli", "eval", "--ref", str(ref),
         "--hyp", str(hyp), "--out", str(out), "--jobs", jobs],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert done.returncode == 2, done.stderr
    assert "eval: p.txt: not enough memory to score this page" in done.stderr
    assert "Traceback" not in done.stderr
    payload = json.loads(out.read_text())
    assert payload["page_errors"] == [
        {"page_id": "p.txt", "error": "not enough memory to score this page"}
    ]
    assert payload["corpus"]["n_pages"] == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_eval_page_beyond_available_memory_is_a_page_error(tmp_path, monkeypatch, capsys, jobs):
    # the readings report 1 MB: the small page's matrix fits and the
    # 400-word page's 5 MB one is refused before it is allocated, in the
    # forked workers too
    from pageval import assign

    words = [f"w{i % 50}" for i in range(400)]
    ref = write_corpus(tmp_path / "ref", {"a.txt": "a few words\n",
                                          "p.txt": " ".join(words) + "\n"})
    hyp = write_corpus(tmp_path / "hyp", {"a.txt": "a few wordz\n",
                                          "p.txt": " ".join(["zz", *words[1:]]) + "\n"})
    monkeypatch.setattr(assign, "_memory_readings", lambda: iter([1 << 20, 1 << 20]))
    out = tmp_path / "report.json"
    code = main(["eval", "--ref", str(ref), "--hyp", str(hyp), "--out", str(out),
                 "--jobs", jobs])
    assert code == 2
    err = capsys.readouterr().err
    assert "eval: p.txt: not enough memory to score this page" in err
    assert "Traceback" not in err
    payload = json.loads(out.read_text())
    assert payload["page_errors"] == [
        {"page_id": "p.txt", "error": "not enough memory to score this page"}
    ]
    assert payload["corpus"]["n_pages"] == 1
    assert payload["corpus"]["n_words"] == 3


def test_simulate_sweep_out_of_memory_exit_two(tmp_path, monkeypatch, capsys):
    from pageval import report

    ref = write_corpus(tmp_path / "ref", {"a.txt": "some words\n", "b.txt": "more\n"})
    monkeypatch.setattr(report, "evaluate_page", _out_of_memory_on_b)
    out_dir = tmp_path / "out"
    code = main(["simulate", "--ref", str(ref), "--out-dir", str(out_dir),
                 "--mode", "char-word", "--sweep", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "simulate: not enough memory to score a page" in err
    assert "Traceback" not in err
    assert not (out_dir / "sweep.tsv").exists()
