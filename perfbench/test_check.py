"""Tests of the benchmark's checker: real outputs pass, damaged ones fail.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json
import os

import pytest

import check
from redoku.board import Board, parse_missing
from redoku.pipeline import run_classification
from redoku.smalls import expand_small, probe_minimality
from redoku.solver import read_corpus

BOARD = Board(3)
MODEL = "R2,R5,R8,C2,C5,C8"
CORPUS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests", "data", "corpus17.txt")
# Pairs whose probes finish in a few milliseconds in both modes.
CHEAP_PAIRS = [(0, 9), (2, 29), (3, 12)]


@pytest.fixture(scope="module")
def report():
    return run_classification(BOARD, 3).to_json_dict()


def probe_records(corpus):
    base = expand_small(parse_missing(BOARD, MODEL))
    puzzles = read_corpus(CORPUS, BOARD)[0] if corpus else None
    records = probe_minimality(BOARD, base, CHEAP_PAIRS, corpus=puzzles)
    return [json.loads(json.dumps(r.to_json_dict(BOARD))) for r in records]


def first_class(report, verdict, min_steps=0):
    return next(r for r in report["classes"]
                if r["verdict"] == verdict and r["closure_steps"] >= min_steps)


def test_real_report_passes(report):
    classes, failed, problems = check.check_classify(report)
    assert problems == []
    assert (classes, failed) == (report["class_count"], 0)


def test_changed_witness_cell_is_rejected(report):
    damaged = copy.deepcopy(report)
    record = first_class(damaged, "not-sudoku")
    missing = check.missing_set(record["missing"])
    row = next(f"R{i}" for i in range(1, 10) if f"R{i}" not in missing)
    a, b = check.REGIONS[row][:2]
    cells = list(record["witness"])
    cells[a] = cells[b]
    record["witness"] = "".join(cells)
    _, failed, problems = check.check_classify(damaged)
    assert failed == 1
    assert any(f"present region {row}" in p for p in problems)


def test_sudoku_grid_is_not_a_witness():
    grid = "".join(str((r * 3 + r // 3 + c) % 9 + 1)
                   for r in range(9) for c in range(9))
    assert check.check_witness(grid, {"R1"}) == [
        "witness repeats no value in an absent region, so it is a Sudoku "
        "grid"]


def test_dropped_trace_step_is_rejected(report):
    record = first_class(report, "sudoku", min_steps=2)
    missing = check.missing_set(record["missing"])
    steps = check.closure_steps(record["missing"])
    assert check.replay_trace(missing, steps) == []
    assert check.replay_trace(missing, steps[:-1])
    assert check.replay_trace(missing, steps[1:])


def test_lemma_needs_its_premise():
    # With R1 absent, band H1 cannot derive box B1 by Lemma I, even though
    # Lemma II would then restore R1.
    assert check.replay_trace({"R1", "B1"}, [("H1", "LemmaI", "B1"),
                                             ("H1", "LemmaII", "R1")])
    assert check.replay_trace({"B1"}, [("H1", "LemmaI", "B1")]) == []
    assert check.replay_trace({"C4"}, [("V2", "LemmaII", "C4")]) == []


def test_wrong_orbit_size_is_rejected(report):
    damaged = copy.deepcopy(report)
    damaged["classes"][0]["orbit_size"] += 1
    _, failed, problems = check.check_classify(damaged)
    assert failed == 1
    assert any("group_images gives" in p for p in problems)
    assert any("orbit sizes sum to" in p for p in problems)


def test_unresolved_class_fails_without_a_problem(report):
    damaged = copy.deepcopy(report)
    record = first_class(damaged, "not-sudoku")
    record["verdict"] = "unresolved"
    record["witness"] = record["catalog_match"] = None
    damaged["non_sudoku_classes"].remove(record["missing"])
    damaged["non_sudoku_count"] -= 1
    _, failed, problems = check.check_classify(damaged)
    assert (failed, problems) == (1, [])


def test_level_seven_has_no_sudoku_class(report):
    damaged = copy.deepcopy(report)
    damaged["n_missing"] = 7
    problems = check.check_classify(damaged)[2]
    assert any("level 7 has Sudoku classes" in p for p in problems)
    assert any("level 7 counts" in p for p in problems)


def test_model_expands_to_its_pairs():
    assert len(check.model_pairs(check.missing_set(MODEL))) == 648
    assert len(check.model_pairs(set())) == 810
    problems = check.check_probes([], "R2,R5,R8,C2,C5")[2]
    assert any("expands to" in p for p in problems)


@pytest.mark.parametrize("corpus", [False, True])
def test_real_probes_pass(corpus):
    puzzles = check.read_puzzles(CORPUS) if corpus else None
    records = probe_records(corpus)
    assert check.check_probes(records, MODEL, puzzles) == (3, 0, [])


def test_broken_pair_is_rejected():
    records = probe_records(corpus=False)
    pairs = check.model_pairs(check.missing_set(MODEL))
    cells = [int(ch) for ch in records[0]["witness"]]
    a, b = next(p for p in sorted(pairs) if p != CHEAP_PAIRS[0]
                and cells[p[0]] != cells[p[1]])
    cells[b] = cells[a]
    records[0]["witness"] = "".join(map(str, cells))
    _, failed, problems = check.check_probes(records, MODEL)
    assert failed == 1
    assert any("other pairs equal" in p for p in problems)


def test_probed_pair_must_be_equal():
    records = probe_records(corpus=False)
    cells = [int(ch) for ch in records[1]["witness"]]
    a, b = CHEAP_PAIRS[1]
    cells[a], cells[b] = cells[a] % 9 + 1, cells[a]
    records[1]["witness"] = "".join(map(str, cells))
    problems = check.check_probes(records, MODEL)[2]
    assert any("keeps the probed pair unequal" in p for p in problems)


def test_corpus_witness_must_extend_its_puzzle():
    puzzles = check.read_puzzles(CORPUS)
    records = probe_records(corpus=True)
    records[0]["seed_index"] = (records[0]["seed_index"] + 1) % len(puzzles)
    problems = check.check_probes(records, MODEL, puzzles)[2]
    assert any("does not extend puzzle" in p for p in problems)


def test_inconclusive_probe_fails_without_a_problem():
    records = probe_records(corpus=False)
    records[2].update(verdict="inconclusive", witness=None)
    assert check.check_probes(records, MODEL) == (3, 1, [])


def test_reports_may_differ_only_in_elapsed_seconds(report):
    text = json.dumps(report, sort_keys=True, indent=2)
    later = json.dumps(dict(report, elapsed_seconds=99.5), sort_keys=True,
                       indent=2)
    assert check.same_report(text, later)
    damaged = copy.deepcopy(report)
    damaged["classes"][0]["closure_steps"] += 1
    assert not check.same_report(
        text, json.dumps(damaged, sort_keys=True, indent=2))
