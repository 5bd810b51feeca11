"""Tests of the benchmark's launcher: a command counts only with an
accepted exit code and an output file it wrote itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json

import pytest

import run


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(run, "LOG", str(tmp_path / "log.txt"))
    return tmp_path


def test_fresh_output_is_read(out_dir):
    report = str(out_dir / "report.json")
    setup, wall, rss, text = run.launch(
        ["classify", "-n", "2", "--json", report], report, (0, 2))
    assert json.loads(text)["n_missing"] == 2
    assert setup > 0 and wall > 0 and rss > 0


def test_stale_output_is_rejected(out_dir):
    report = out_dir / "report.json"
    report.write_text("left by a former command")
    # Exits 0 but writes no report.
    with pytest.raises(SystemExit, match="wrote no"):
        run.launch(["classify", "-n", "2"], str(report), (0, 2))
    assert not report.exists()


def test_exit_code_must_be_accepted(out_dir):
    probes = str(out_dir / "probes.jsonl")
    with pytest.raises(SystemExit, match="exited with 1"):
        run.launch(["probe", "--missing", run.MODEL, "--sample", "0",
                    "--jsonl", probes], probes, (0,))


def test_traced_stale_output_is_rejected(out_dir):
    report = out_dir / "report.json"
    report.write_text("left by a former command")
    with pytest.raises(SystemExit, match="wrote no"):
        run.traced(["classify", "-n", "2"], str(report), (0, 2),
                   str(out_dir / "trace.json"))
