import json
import os
import subprocess
import sys

import pytest

import redoku.cli
import redoku.pipeline
import redoku.solver
from redoku.board import Board, parse_missing
from redoku.cli import (CORPUS_ENV, EXIT_IO, EXIT_OK, EXIT_UNRESOLVED,
                        EXIT_USAGE, main)
from redoku.solver import find_witness


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_expecting_exit(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


def test_closure_one_step(capsys):
    code, out, _ = run_cli(["closure", "--missing", "B2"], capsys)
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert "B2" in lines[0] and lines[0].startswith("step 1:")
    assert lines[1] == "verdict: Sudoku"


def test_closure_stuck(capsys):
    code, out, _ = run_cli(["closure", "--missing", "C1,C3"], capsys)
    assert code == EXIT_OK
    assert out.strip() == "verdict: Stuck (missing C1,C3)"


def test_closure_empty_model(capsys):
    code, out, _ = run_cli(["closure", "--missing", ""], capsys)
    assert code == EXIT_OK
    assert out.strip() == "verdict: Sudoku"


def test_closure_unknown_label_is_usage_error(capsys):
    code, _, err = run_cli_expecting_exit(
        ["closure", "--missing", "B2,XX"], capsys)
    assert code == EXIT_USAGE
    assert "XX" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run_cli_expecting_exit(["frobnicate"], capsys)
    assert code == EXIT_USAGE


def test_classify_summary_and_json(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["classify", "-n", "2", "--json", str(out_path)], capsys)
    assert code == EXIT_OK
    assert "raw models: 351" in out
    assert "classes: 7 (6 Sudoku, 1 not)" in out
    data = json.loads(out_path.read_text())
    assert data["class_count"] == 7
    assert data["sudoku_count"] == 6


def test_classify_json_stable_across_runs(tmp_path, capsys):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["classify", "-n", "3", "--json", str(a_path)], capsys)
    run_cli(["classify", "-n", "3", "--json", str(b_path)], capsys)
    a = json.loads(a_path.read_text())
    b = json.loads(b_path.read_text())
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


@pytest.mark.parametrize("order", ["0", "1"])
def test_order_below_two_is_usage_error(order, capsys):
    code, _, err = run_cli_expecting_exit(
        ["classify", "-n", "1", "--order", order], capsys)
    assert code == EXIT_USAGE
    assert "board order must be >= 2" in err


def test_classify_rejects_out_of_range(capsys):
    code, _, _ = run_cli_expecting_exit(["classify", "-n", "99"], capsys)
    assert code == EXIT_USAGE


def test_probe_sample_jsonl(tmp_path, capsys):
    out_path = tmp_path / "probes.jsonl"
    code, out, _ = run_cli(
        ["probe", "--missing", "R2,R5,R8,C2,C5,C8", "--sample", "3",
         "--seed", "1", "--jsonl", str(out_path)], capsys)
    assert code == EXIT_OK
    assert "confirmed needed: 3/3" in out
    records = [json.loads(line) for line in
               out_path.read_text().splitlines()]
    assert len(records) == 3
    assert all(r["verdict"] == "confirmed-needed" for r in records)
    assert all(len(r["witness"]) == 81 for r in records)


def test_probe_jsonl_to_stdout(capsys):
    code, out, _ = run_cli(
        ["probe", "--missing", "R2,R5,R8,C2,C5,C8", "--sample", "1"],
        capsys)
    assert code == EXIT_OK
    first_line = out.split("\n")[0]
    record = json.loads(first_line)
    assert record["verdict"] == "confirmed-needed"


def test_probe_summary_counts_redundant_pairs(capsys):
    # The closure certifies every pair of the full model, so no probe
    # searches.
    code, out, _ = run_cli(["probe", "--missing", "", "--full"], capsys)
    assert code == EXIT_OK
    *lines, summary = out.splitlines()
    assert summary == ("confirmed needed: 0/810, redundant: 810, "
                       "inconclusive: 0")
    records = [json.loads(line) for line in lines]
    assert len(records) == 810
    assert all(r["verdict"] == "redundant" and r["nodes"] == 0
               and r["certificate"] for r in records)


def test_probe_requires_sample_or_full(capsys):
    code, _, _ = run_cli_expecting_exit(
        ["probe", "--missing", "R2,R5,R8,C2,C5,C8"], capsys)
    assert code == EXIT_USAGE


def test_probe_sample_larger_than_base_is_usage_error(capsys):
    code, _, _ = run_cli_expecting_exit(
        ["probe", "--missing", "R2,R5,R8,C2,C5,C8", "--sample", "649"],
        capsys)
    assert code == EXIT_USAGE


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_probe_budget_below_one_is_usage_error(budget, capsys):
    code, out, err = run_cli_expecting_exit(
        ["probe", "--missing", "R2,R5,R8,C2,C5,C8", "--sample", "2",
         "--budget", budget], capsys)
    assert code == EXIT_USAGE
    assert "--budget must be positive" in err
    assert out == ""


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_solve_budget_below_one_is_usage_error(budget, capsys):
    code, out, err = run_cli_expecting_exit(
        ["solve", "--missing", "R1", "--budget", budget], capsys)
    assert code == EXIT_USAGE
    assert "--budget must be positive" in err
    assert out == ""


def test_probe_with_corpus(corpus_path, tmp_path, capsys):
    out_path = tmp_path / "probes.jsonl"
    code, out, _ = run_cli(
        ["probe", "--missing", "R2,R5,R8,C2,C5,C8", "--sample", "2",
         "--corpus", str(corpus_path), "--jsonl", str(out_path)], capsys)
    assert code == EXIT_OK
    assert "confirmed needed: 2/2" in out
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert all(r["seed_index"] is not None for r in records)


def test_probe_budget_below_corpus_size_is_usage_error(corpus_path, tmp_path,
                                                       capsys):
    # Six puzzles cannot share five nodes; no 0-node record is written.
    out_path = tmp_path / "probes.jsonl"
    code, _, err = run_cli_expecting_exit(
        ["probe", "--missing", "R2,R5,R8,C2,C5,C8", "--sample", "2",
         "--corpus", str(corpus_path), "--budget", "5",
         "--jsonl", str(out_path)], capsys)
    assert code == EXIT_USAGE
    assert "below the corpus size 6" in err
    assert not out_path.exists()


def test_probe_corpus_from_env(corpus_path, monkeypatch, capsys):
    monkeypatch.setenv(CORPUS_ENV, str(corpus_path))
    code, out, _ = run_cli(
        ["probe", "--missing", "R2,R5,R8,C2,C5,C8", "--sample", "1",
         "--corpus"], capsys)
    assert code == EXIT_OK
    assert "confirmed needed: 1/1" in out


def test_probe_corpus_env_unset_is_usage_error(monkeypatch, capsys):
    monkeypatch.delenv(CORPUS_ENV, raising=False)
    code, _, err = run_cli_expecting_exit(
        ["probe", "--missing", "R2,R5,R8,C2,C5,C8", "--sample", "1",
         "--corpus"], capsys)
    assert code == EXIT_USAGE
    assert CORPUS_ENV in err


def test_probe_missing_corpus_file_is_usage_error(capsys):
    code, _, err = run_cli_expecting_exit(
        ["probe", "--missing", "R2,R5,R8,C2,C5,C8", "--sample", "1",
         "--corpus", "/nonexistent/puzzles.txt"], capsys)
    assert code == EXIT_USAGE
    assert "/nonexistent/puzzles.txt" in err


def test_probe_bad_corpus_lines_reported(bad_corpus_path, tmp_path, capsys):
    out_path = tmp_path / "probes.jsonl"
    code, out, err = run_cli(
        ["probe", "--missing", "R2,R5,R8,C2,C5,C8", "--sample", "1",
         "--corpus", str(bad_corpus_path), "--jsonl", str(out_path)], capsys)
    assert code == EXIT_OK
    assert ":3:" in err and ":6:" in err


def test_solve_full_model(capsys):
    code, out, _ = run_cli(["solve"], capsys)
    assert code == EXIT_OK
    assert "status: solution" in out


def test_solve_order_six(capsys):
    # A 1,296-cell grid goes deeper than Python's recursion limit, which a
    # recursive search once hit with a traceback.
    code, out, _ = run_cli(["solve", "--order", "6"], capsys)
    assert code == EXIT_OK
    assert out.startswith("status: solution\nnodes: 1064 ")
    assert len(out.splitlines()) == 2 + 36


def test_solve_from_corpus(corpus_path, capsys):
    code, out, _ = run_cli(
        ["solve", "--corpus", str(corpus_path), "--index", "0"], capsys)
    assert code == EXIT_OK
    assert "status: solution" in out


def test_solve_corpus_index_out_of_range(corpus_path, capsys):
    code, _, err = run_cli(
        ["solve", "--corpus", str(corpus_path), "--index", "99"], capsys)
    assert code == EXIT_IO
    assert "99" in err


def test_solve_givens_and_corpus_are_usage_error(corpus_path, capsys):
    # One source of givens: the corpus and --index would otherwise be
    # ignored without a word.
    code, _, err = run_cli_expecting_exit(
        ["solve", "--givens", "0" * 81, "--corpus", str(corpus_path),
         "--index", "3", "--budget", "5"], capsys)
    assert code == EXIT_USAGE
    assert "not allowed with" in err


def test_solve_degenerate_equality(capsys):
    code, out, _ = run_cli(["solve", "--equal", "1,1=1,2"], capsys)
    assert code == EXIT_OK
    assert "status: unsatisfiable" in out
    assert "contradicts" in out


def test_solve_equality_across_absent_region(capsys):
    code, out, _ = run_cli(
        ["solve", "--missing", "C1,C2", "--equal", "1,1=4,1"], capsys)
    assert code == EXIT_OK
    assert "status: solution" in out


def test_solve_bad_equality_is_usage_error(capsys):
    code, _, err = run_cli_expecting_exit(
        ["solve", "--equal", "nonsense"], capsys)
    assert code == EXIT_USAGE
    assert "nonsense" in err


@pytest.mark.parametrize("expr, cell", [("1,1=1,1", "(1,1)"),
                                        ("1,1=10,1", "(10,1)")])
def test_solve_equality_outside_the_board_or_on_one_cell(expr, cell, capsys):
    # --equal is the only place cell coordinates enter the program, so the
    # command line checks them and names the offending cell.
    code, out, err = run_cli_expecting_exit(["solve", "--equal", expr],
                                            capsys)
    assert code == EXIT_USAGE
    assert cell in err
    assert out == ""


@pytest.mark.parametrize("command", [
    ["closure", "--missing", "B2"], ["classify", "-n", "1"],
    ["figure", "--missing", "B2"], ["catalog"]])
def test_seed_is_only_for_probe_and_solve(command, capsys):
    code, _, err = run_cli_expecting_exit(command + ["--seed", "1"], capsys)
    assert code == EXIT_USAGE
    assert "--seed" in err


def test_missed_catalog_witness_leaves_classes_unresolved(
        fresh_pipeline_caches, monkeypatch, tmp_path, capsys):
    # With no catalog witness, a stuck class has no counterexample to take:
    # it is reported unresolved with exit 2, and the run still finishes.
    monkeypatch.setattr(redoku.pipeline, "find_witness", lambda cset: None)
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(["classify", "--order", "2", "-n", "2",
                              "--json", str(out_path)], capsys)
    assert code == EXIT_UNRESOLVED
    assert "catalog entries: 0" in out
    report = json.loads(out_path.read_text())
    unresolved = [r for r in report["classes"] if r["verdict"] == "unresolved"]
    assert report["unresolved_count"] == len(unresolved) > 0
    assert all(r["witness"] is None and r["catalog_match"] is None
               for r in unresolved)
    assert err.splitlines() == (
        [f"unresolved classes ({len(unresolved)}):"]
        + [f"  missing {r['missing']}" for r in unresolved])


def test_model_no_swap_grid_splits_is_unresolved(
        fresh_pipeline_caches, monkeypatch, tmp_path, capsys):
    # The first swap grid does not split this catalog entry.  With only
    # that grid, find_witness finds nothing and searches nothing, so the
    # entry's classes are unresolved and classify exits 2.
    monkeypatch.setattr(redoku.solver, "SWAP_GRIDS", 1)
    races, real = [], redoku.solver.solve_equal
    def solve_equal(problems, budget):
        races.append(budget)
        return real(problems, budget)
    monkeypatch.setattr(redoku.solver, "solve_equal", solve_equal)
    entry = "R1,R4,B1,B5,B7,B8"
    assert find_witness(parse_missing(Board(3), entry)) is None
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(["classify", "-n", "6", "--json", str(out_path)],
                         capsys)
    assert races == []
    assert code == EXIT_UNRESOLVED
    report = json.loads(out_path.read_text())
    unresolved = [r for r in report["classes"] if r["verdict"] == "unresolved"]
    assert entry in [r["missing"] for r in unresolved]
    assert report["unresolved_count"] == len(unresolved)
    assert all(r["witness"] is None and r["catalog_match"] is None
               for r in unresolved)


def test_figure_ascii_to_stdout(capsys):
    code, out, _ = run_cli(["figure", "--missing", "B5"], capsys)
    assert code == EXIT_OK
    assert out.count("###") == 9
    assert len(out.strip().split("\n")) == 13


def test_figure_svg_to_file(tmp_path, capsys):
    out_path = tmp_path / "model.svg"
    code, _, _ = run_cli(
        ["figure", "--missing", "R1", "--format", "svg",
         "-o", str(out_path)], capsys)
    assert code == EXIT_OK
    assert out_path.read_text().startswith("<svg ")


def test_figure_report_sheets(tmp_path, capsys):
    code, out, _ = run_cli(
        ["figure", "--report", "2", "--out-dir", str(tmp_path)], capsys)
    assert code == EXIT_OK
    sudoku = tmp_path / "missing2-sudoku-classes.svg"
    non = tmp_path / "missing2-non-sudoku-classes.svg"
    assert sudoku.exists() and non.exists()
    assert str(sudoku) in out and str(non) in out


def test_figure_requires_mode(capsys):
    code, _, _ = run_cli_expecting_exit(["figure"], capsys)
    assert code == EXIT_USAGE


def test_catalog_listing(capsys):
    code, out, _ = run_cli(["catalog", "--max-missing", "3"], capsys)
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "entries: 2 (max missing 3)"
    assert lines[1] == "1: R1,R2"
    assert lines[2] == "2: R1,C1,B1"


def test_catalog_json(tmp_path, capsys):
    out_path = tmp_path / "catalog.json"
    code, _, _ = run_cli(
        ["catalog", "--max-missing", "2", "--json", str(out_path)], capsys)
    assert code == EXIT_OK
    data = json.loads(out_path.read_text())
    assert data == [{"missing": "R1,R2", "witness": data[0]["witness"]}]
    assert len(data[0]["witness"]) == 81


def test_catalog_horizon_below_two_is_usage_error(capsys):
    code, _, err = run_cli_expecting_exit(
        ["catalog", "--max-missing", "1"], capsys)
    assert code == EXIT_USAGE
    assert "at least 2" in err


def test_output_to_missing_directory_is_usage_error(capsys):
    code, _, err = run_cli_expecting_exit(
        ["classify", "-n", "1", "--json", "/no/such/dir/report.json"],
        capsys)
    assert code == EXIT_USAGE
    assert "/no/such/dir" in err


def test_startup_imports_no_dataclasses_inspect_or_figures():
    # Every command is a fresh process, so what importing the CLI loads is
    # paid on each launch; modules the interpreter's own start-up loaded
    # before the import do not count.
    code = ("import sys; before = set(sys.modules); import redoku.cli; "
            "print(*sorted(set(sys.modules) - before))")
    src = os.path.dirname(os.path.dirname(redoku.cli.__file__))
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True).stdout.split()
    assert "redoku.cli" in loaded and "redoku.pipeline" in loaded
    assert not {"dataclasses", "inspect", "redoku.figures"} & set(loaded)
