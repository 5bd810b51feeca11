import random
import time
from itertools import combinations

import pytest

import redoku.solver
from helpers import (brute_force_satisfiable, cell_region_ids, cell_value,
                     pattern_solution, pin_equal)
from redoku.board import (Board, ConstraintSet, Grid, parse_missing,
                          region_cells, verify_grid)
from redoku.pipeline import _level
from redoku.smalls import INCONCLUSIVE, _decompose, expand_small, probe_pair
from redoku.solver import (BUDGET, DEFAULT_NODE_BUDGET, LUBY_UNIT, SOLUTION,
                           SWAP_GRID_BUDGET, UNSATISFIABLE, SolverOutcome,
                           SolverProblem, SolveStats, _broken_regions,
                           _checked_witness, _Engine, _swap_grid, find_witness,
                           luby, modification_witness, parse_puzzle_line,
                           read_corpus, restart_ladder, solve, solve_equal,
                           value_swap)


def test_full_board_solves(board):
    outcome = solve(SolverProblem(ConstraintSet.full(board)))
    assert outcome.status == SOLUTION
    assert verify_grid(outcome.grid, ConstraintSet.full(board)) == frozenset()


def test_order_six_full_model_solves_within_a_small_budget():
    # The ascending search assigns all 1,296 cells in 1,064 nodes, on an
    # explicit stack rather than Python's, whose recursion limit it passes.
    full = ConstraintSet.full(Board(6))
    outcome = solve(SolverProblem(full), budget=2_000)
    assert outcome.status == SOLUTION and outcome.stats.nodes == 1_064
    assert verify_grid(outcome.grid, full) == frozenset()


def test_corpus_puzzle_solution_extends_givens(board, corpus_path):
    puzzles, errors = read_corpus(corpus_path, board)
    assert errors == []
    assert len(puzzles) == 6
    givens = puzzles[0]
    assert 81 - givens.values.count(0) == 17
    outcome = solve(SolverProblem(ConstraintSet.full(board), givens=givens))
    assert outcome.status == SOLUTION
    for cell, val in enumerate(givens.values):
        if val:
            assert outcome.grid.values[cell] == val


def test_same_row_equality_unsatisfiable(board):
    # Pairs are flat cell indices: cells 0 and 1 are (1,1) and (1,2).
    problem = SolverProblem(ConstraintSet.full(board),
                            equalities=((0, 1),))
    outcome = solve(problem)
    assert outcome.status == UNSATISFIABLE
    assert outcome.stats.degenerate


def test_equality_inside_present_region_flags_degenerate(board):
    # Cells (5,1) and (5,2), flat 36 and 37, share a present row even when
    # their columns are absent, so forcing them equal contradicts the model.
    problem = SolverProblem(parse_missing(board, "C1,C2"),
                            equalities=((36, 37),))
    outcome = solve(problem)
    assert outcome.status == UNSATISFIABLE
    assert outcome.stats.degenerate
    assert outcome.stats.nodes == 0


def test_equality_across_absent_column_solves(board):
    # With C1 absent, (1,1) and (4,1), flat 0 and 27, share only that
    # column and may coincide; the solver must exhibit a grid doing so.
    problem = SolverProblem(parse_missing(board, "C1,C2"),
                            equalities=((0, 27),))
    outcome = solve(problem)
    assert outcome.status == SOLUTION
    grid = outcome.grid
    assert cell_value(grid, 1, 1) == cell_value(grid, 4, 1)
    violated = verify_grid(grid, ConstraintSet.full(board))
    assert violated <= {board.parse_label("C1"), board.parse_label("C2")}
    assert violated


def test_givens_conflict_is_unsatisfiable(board):
    values = [0] * 81
    values[board.cell_index(1, 1)] = 5
    values[board.cell_index(1, 9)] = 5
    problem = SolverProblem(ConstraintSet.full(board),
                            givens=Grid(board, tuple(values)))
    outcome = solve(problem)
    assert outcome.status == UNSATISFIABLE


def test_pair_order_does_not_change_the_search(board):
    # Flat pairs are taken as given, not normalized: (a, b) and (b, a)
    # must give the same grid and the same statistics.
    cset = parse_missing(board, "C1,C2")
    outcomes = [solve(SolverProblem(cset, extra_smalls=(smalls,),
                                    equalities=(eq,)), value_order_seed=2)
                for smalls, eq in (((1, 28), (0, 27)), ((28, 1), (27, 0)))]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0].is_solution


def test_problem_rejects_givens_of_another_board(board, board2):
    with pytest.raises(ValueError, match="different board"):
        SolverProblem(ConstraintSet.full(board),
                      givens=Grid(board2, (0,) * 16))
    assert SolverProblem(ConstraintSet.full(board2)).board == board2


def test_budget_outcome_is_reported(board):
    problem = SolverProblem(ConstraintSet.full(board))
    outcome = solve(problem, budget=0)
    assert outcome.status == BUDGET
    assert outcome.grid is None


def test_extra_smalls_are_enforced(board2):
    # Forbid the two diagonal corners, flat 0 and 15, from agreeing on top
    # of the full model; the solver must still find a grid.
    problem = SolverProblem(ConstraintSet.full(board2),
                            extra_smalls=((0, 15),))
    outcome = solve(problem)
    assert outcome.status == SOLUTION
    assert cell_value(outcome.grid, 1, 1) != cell_value(outcome.grid, 4, 4)


def test_solution_stats_count_decisions(board):
    outcome = solve(SolverProblem(ConstraintSet.full(board)))
    assert outcome.stats.nodes >= 0
    assert outcome.stats.propagations > 0


def test_value_order_seed_changes_solution_not_validity(board):
    full = ConstraintSet.full(board)
    plain = solve(SolverProblem(full))
    shuffled = solve(SolverProblem(full), value_order_seed=3)
    assert plain.status == shuffled.status == SOLUTION
    assert verify_grid(shuffled.grid, full) == frozenset()
    repeat = solve(SolverProblem(full), value_order_seed=3)
    assert repeat.grid == shuffled.grid


def test_solver_matches_brute_force_on_small_boards(board2):
    rng = random.Random(20)
    base = pattern_solution(board2)
    agree = 0
    for trial in range(100):
        mask = rng.getrandbits(12)
        bigs = ConstraintSet(board2, mask)
        values = [0] * 16
        for cell in rng.sample(range(16), 10):
            keep = rng.random() < 0.8
            values[cell] = base.values[cell] if keep else rng.randint(1, 4)
        extras = []
        eqs = []
        if rng.random() < 0.5:
            extras.append(tuple(rng.sample(range(16), 2)))
        if rng.random() < 0.5:
            eqs.append(tuple(rng.sample(range(16), 2)))
        problem = SolverProblem(bigs, tuple(extras), tuple(eqs),
                                Grid(board2, tuple(values)))
        outcome = solve(problem)
        assert outcome.status in (SOLUTION, UNSATISFIABLE)
        assert outcome.is_solution == brute_force_satisfiable(problem)
        agree += 1
    assert agree == 100


def row_one_engine(board2, domains):
    """An engine on the order-2 model with only R1 present, its four cells
    given `domains` (value bit masks) and R1 marked for the sweep."""
    engine = _Engine(SolverProblem(ConstraintSet(board2, 1)))
    assert engine.regions == [(0, 1, 2, 3)]
    engine.dom[:4] = domains
    engine.dirty = {0}
    return engine


def test_hidden_single_is_set(board2):
    # Value 1 has one home in R1, so that cell takes it.
    engine = row_one_engine(board2, [0b0011, 0b1110, 0b1110, 0b1110])
    assert engine.propagate()
    assert engine.dom[:4] == [0b0001, 0b1110, 0b1110, 0b1110]


def test_only_home_of_two_values_fails(board2):
    # Values 1 and 2 both have their one home in R1 at cell 0: no value
    # can take it, so propagation fails.
    engine = row_one_engine(board2, [0b0011, 0b1100, 0b1100, 0b1100])
    assert engine.propagate() is False


@pytest.mark.parametrize("text, nodes", [
    ("B1,B2,B4,B5", 57), ("R1,C1,B2,B4,B5", 1_136),
    ("B1,B2,B4,B6,B8,B9", 564), ("R1,R4,B1,B5,B7,B8", 497)])
def test_witness_search_trees_are_pinned(board, text, nodes):
    # Four classify -n 6 catalog entries, each raced over its in-region cell
    # pairs that no present constraint covers: absent constraints by id,
    # each region's pairs ascending, a pair in two absent regions once.  A
    # change to propagation that weakens or strengthens its fixpoint
    # changes a total.
    cset = parse_missing(board, text)
    regions = cell_region_ids(board)
    pairs = dict.fromkeys(
        pair for cid in cset.missing_ids
        for pair in combinations(region_cells(cid, board), 2))
    uncovered = [(a, b) for a, b in pairs if not any(
        map(cset.contains, set(regions[a]) & set(regions[b])))]
    outcome, _ = solve_equal(
        (pin_equal(cset, pair) for pair in uncovered), 16_000)
    assert outcome.status == SOLUTION
    assert outcome.stats.nodes == nodes


def test_modification_witness_families(board, monkeypatch):
    # Models a one-cell overwrite (R1,C1,B1) or a two-cell swap (C1,C3)
    # breaks, both special cases of a value swap, split on the first grid.
    monkeypatch.setattr(redoku.solver, "SWAP_GRIDS", 1)
    for text in ("R1,C1,B1", "C1,C3"):
        cset = parse_missing(board, text)
        grid = modification_witness(cset)
        assert grid is not None
        assert verify_grid(grid, cset) == frozenset()
        assert verify_grid(grid, ConstraintSet.full(board))

    # Box quads and two bands of boxes: no one- or two-cell edit breaks
    # only boxes, but a longer chain does.
    monkeypatch.undo()
    for text in ("B1,B2,B4,B5", "B1,B2,B3,B4,B5,B6"):
        cset = parse_missing(board, text)
        grid = modification_witness(cset)
        assert grid is not None
        assert verify_grid(grid, cset) == frozenset()
        violated = verify_grid(grid, ConstraintSet.full(board))
        assert violated and violated <= set(cset.missing_ids)


def test_swap_grid_past_its_budget_is_skipped(board, monkeypatch):
    # Two order-5 value orders stall past the grid budget.  A grid build
    # stopped there leaves no grid, and swaps, witness or probe, go on to
    # the next grid instead of failing on the missing one.  Here grid 0,
    # which splits R1,C1,B1 and confirms pair (1,2)-(1,5), stops.
    cset = parse_missing(board, "R1,C1,B1")
    base = expand_small(parse_missing(board, "R2,R5,R8,C2,C5,C8"))
    assert value_swap([(cset, (), None)])[:2] == (0, 0)
    assert probe_pair(board, base, (1, 4)).provenance == "swap:0"
    builds = []
    real = redoku.solver.solve

    def solve(problem, budget=DEFAULT_NODE_BUDGET, value_order_seed=None):
        if not problem.equalities:
            builds.append(budget)
            if value_order_seed is None:
                return SolverOutcome(BUDGET, None, SolveStats(budget, 0))
        return real(problem, budget, value_order_seed)
    monkeypatch.setattr(redoku.solver, "solve", solve)
    _swap_grid.cache_clear()
    try:
        assert _swap_grid(3, 0) is None
        index, alternative, grid = value_swap([(cset, (), None)])
        assert index > 0 and alternative == 0
        assert grid == modification_witness(cset)
        record = probe_pair(board, base, (1, 4))
        assert record.provenance.startswith("swap:")
        assert record.provenance != "swap:0" and record.nodes == 0
        assert builds and set(builds) == {SWAP_GRID_BUDGET}
    finally:
        _swap_grid.cache_clear()


def test_checked_witness_rejects_both_faults(board):
    # A moved witness whose present region repeats a value, and a grid that
    # satisfies every region, each fail the check of their one scan.
    def check(grid):
        return _checked_witness(grid, record.cset, _broken_regions(grid))

    record = next(r for r in _level(3, 6)[0] if r.witness is not None
                  and r.catalog_match != r.cset.missing_labels())
    cid = record.cset.present_ids[0]
    a, b = region_cells(cid, board)[:2]
    values = list(record.witness.values)
    values[b] = values[a]
    with pytest.raises(RuntimeError, match="violates a present constraint"):
        check(Grid(board, tuple(values)))
    assert check(record.witness) == record.witness
    with pytest.raises(RuntimeError, match="is a fully valid grid"):
        check(_swap_grid(3, 0))


def test_find_witness_rejects_full_model(board):
    with pytest.raises(ValueError):
        find_witness(ConstraintSet.full(board))


def test_find_witness_none_for_entailed_models(board):
    assert find_witness(parse_missing(board, "B2")) is None
    assert find_witness(parse_missing(board, "R2,R5,R8,C2,C5,C8")) is None


def test_find_witness_for_stuck_models(board):
    for text in ("C1,C3", "R1,R2", "R1,C1,B1", "B1,B2,B4,B5"):
        cset = parse_missing(board, text)
        grid = find_witness(cset)
        assert grid is not None
        assert verify_grid(grid, cset) == frozenset()
        assert verify_grid(grid, ConstraintSet.full(board))


def recording_solves(monkeypatch):
    """Record (problem, value_order_seed, budget, nodes, status) of every
    equality solve, in call order."""
    calls = []
    real = redoku.solver.solve

    def solve(problem, budget=DEFAULT_NODE_BUDGET, value_order_seed=None):
        outcome = real(problem, budget=budget,
                       value_order_seed=value_order_seed)
        if problem.equalities:
            calls.append((problem, value_order_seed, budget,
                          outcome.stats.nodes, outcome.status))
        return outcome
    monkeypatch.setattr(redoku.solver, "solve", solve)
    return calls


def test_witnesses_and_probes_share_one_ladder(board, corpus_path,
                                               monkeypatch):
    # A corpus probe races its puzzles, each up the Luby ladder of an equal
    # share of the budget: a puzzle's solves are that ladder's rungs, in
    # order, until the top or until a rung refutes it.  Neither the closure
    # nor any puzzle decides this pair: the first puzzle is refuted by
    # propagation, the last after 15 rungs, and the other four climb all 22.
    puzzles, _ = read_corpus(corpus_path, board)
    calls = recording_solves(monkeypatch)
    record = probe_pair(
        board, expand_small(parse_missing(board, "R1,B1,B4,B5,B6,B7")),
        (3, 4), corpus=puzzles, budget=16_000)
    assert record.verdict == INCONCLUSIVE and record.seed_index is None
    ladder = list(restart_ladder(16_000 // len(puzzles)))
    assert ladder[0] == (None, LUBY_UNIT) == (None, 64)
    climbs = []
    for puzzle in puzzles:
        climb = [call for call in calls if call[0].givens is puzzle]
        assert [(seed, limit) for _, seed, limit, _, _ in climb] == ladder[
            :len(climb)]
        statuses = [status for *_, status in climb]
        assert UNSATISFIABLE not in statuses[:-1]
        assert statuses[-1] == UNSATISFIABLE or len(climb) == len(ladder)
        climbs.append(len(climb))
    assert climbs == [1, 22, 22, 22, 22, 15] and len(ladder) == 22
    assert sum(nodes for *_, nodes, _ in calls) == record.nodes


@pytest.mark.parametrize("text", ["B1,B2,B5,B6", "R1,C1,B2,B5,B6"])
def test_order_four_witnesses_need_no_search(text):
    # Order-4 catalog entries whose equality races took 2.37 M and 1.23 M
    # nodes (minutes): a value swap on the first grid witnesses each.
    board4 = Board(4)
    cset = parse_missing(board4, text)
    start = time.monotonic()
    grid = find_witness(cset)
    assert time.monotonic() - start < 1.0
    assert grid is not None
    assert verify_grid(grid, cset) == frozenset()
    violated = verify_grid(grid, ConstraintSet.full(board4))
    assert violated and violated <= set(cset.missing_ids)


def test_luby_terms():
    assert [luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


@pytest.mark.parametrize("budget", [10, 63, 64, 1_000, 16_000])
def test_restart_ladder_sums_to_its_budget(budget):
    ladder = restart_ladder(budget)
    assert sum(nodes for _, nodes in ladder) == budget
    assert [seed for seed, _ in ladder] == [None] + list(range(len(ladder) - 1))
    # Every rung but the last, which is cut, is a Luby term of LUBY_UNIT.
    assert [nodes for _, nodes in ladder[:-1]] == [
        LUBY_UNIT * luby(i) for i in range(1, len(ladder))]
    assert 0 < ladder[-1][1] <= LUBY_UNIT * luby(len(ladder))
    if budget == 1_000:
        assert [nodes for _, nodes in ladder] == [
            64, 64, 128, 64, 64, 128, 256, 64, 64, 104]


@pytest.mark.parametrize("budget", [0, -5])
def test_solve_equal_rejects_a_budget_below_one(board, budget):
    with pytest.raises(ValueError, match="budget must be positive"):
        solve_equal([pin_equal(ConstraintSet.full(board), (0, 12))], budget)


def test_solve_equal_retires_a_refuted_alternative(board, board2,
                                                   monkeypatch):
    # At order 2 propagation alone rules out every full-model pair, so the
    # first alternative is refuted by its first rung; the second, a pair of
    # column C1 in a model without C1 and C2, still joins and solves.
    base = expand_small(ConstraintSet.full(board2))
    pair = sorted(base)[0]
    bigs, extras = _decompose(board2, base - {pair})
    apart = parse_missing(board2, "C1,C2")
    calls = []
    real = redoku.solver.solve
    def solve(problem, budget, value_order_seed=None):
        outcome = real(problem, budget=budget,
                       value_order_seed=value_order_seed)
        calls.append((problem.equalities, outcome.status))
        return outcome
    monkeypatch.setattr(redoku.solver, "solve", solve)
    refuted = pin_equal(bigs, pair, extras)
    outcome, index = solve_equal([refuted, pin_equal(apart, (0, 8))], 1_000)
    assert calls == [((pair,), UNSATISFIABLE), (((0, 8),), SOLUTION)]
    assert outcome.is_solution and index == 1
    assert outcome.grid.values[0] == outcome.grid.values[8]
    assert verify_grid(outcome.grid, apart) == frozenset()
    # Refuted alternatives alone end the search as unsatisfiable; one that
    # only runs out of rungs leaves it over budget.
    calls.clear()
    outcome, _ = solve_equal([refuted, refuted], 1_000)
    assert outcome.status == UNSATISFIABLE and len(calls) == 2
    calls.clear()
    full = ConstraintSet.full(board)
    stuck, extras = _decompose(board, expand_small(full) - {(29, 46)})
    outcome, _ = solve_equal(
        [pin_equal(full, (0, 1)), pin_equal(stuck, (29, 46), extras)], 100)
    # Its ladder for 100 nodes has two rungs, 64 and 36 nodes.
    assert calls == [(((0, 1),), UNSATISFIABLE)] + [(((29, 46),), BUDGET)] * 2
    assert outcome.status == BUDGET and outcome.stats.nodes == 100


def test_parse_puzzle_line(board, board2):
    line = "1" + "0" * 40 + "." * 40
    grid = parse_puzzle_line(board, line)
    assert cell_value(grid, 1, 1) == 1
    assert 81 - grid.values.count(0) == 1
    with pytest.raises(ValueError):
        parse_puzzle_line(board, "123")
    with pytest.raises(ValueError):
        parse_puzzle_line(board, "x" * 81)
    # Only the ASCII digits 1..side are values: str.isdigit() also accepts
    # characters such as the superscript two, which int() then rejects.
    with pytest.raises(ValueError, match="bad character '\u00b2'"):
        parse_puzzle_line(board, "\u00b2" + "0" * 80)
    with pytest.raises(ValueError, match="bad character '5'"):
        parse_puzzle_line(board2, "5" + "0" * 15)


def test_read_corpus_reports_a_non_ascii_line(board, tmp_path):
    good = "1" + "0" * 80
    path = tmp_path / "corpus.txt"
    # A UTF-8 e-acute, then 80 blanks; a non-ASCII comment stays ignored.
    path.write_bytes(good.encode() + b"\n\xc3\xa9" + b"0" * 80
                     + b"\n# caf\xc3\xa9\n")
    puzzles, errors = read_corpus(path, board)
    assert puzzles == [parse_puzzle_line(board, good)]
    assert [lineno for lineno, _ in errors] == [2]
    assert "0xc3" in errors[0][1]


def test_read_corpus_reports_bad_lines(board, bad_corpus_path):
    puzzles, errors = read_corpus(bad_corpus_path, board)
    assert len(puzzles) == 2
    assert [lineno for lineno, _ in errors] == [3, 4, 5, 6]
    assert "80" in errors[0][1]
    assert "82" in errors[1][1]
    assert "'x'" in errors[2][1]
    assert "'a'" in errors[3][1]
