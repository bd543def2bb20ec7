import json
import os
from pathlib import Path

import pytest

from pageval import cli
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
