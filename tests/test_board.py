import random

import pytest

from helpers import (box_of, cell_region_ids, cell_value, empty_grid,
                     pattern_solution)
from redoku.board import (BOX, COL, ROW, Board, Chute, ConstraintSet, Grid,
                          chutes, chute_members, parse_missing, region_cells,
                          verify_grid)
from redoku.pipeline import (SUDOKU, CatalogEntry, ClassificationReport,
                             ClassRecord)
from redoku.rewrite import LEMMA_I, Step
from redoku.smalls import REDUNDANT, ProbeRecord
from redoku.solver import SOLUTION, SolverOutcome, SolverProblem, SolveStats
from redoku.symmetry import Symmetry


def test_board_dimensions(board):
    assert board.side == 9
    assert board.num_cells == 81
    assert board.num_big == 27
    assert board.full_mask == (1 << 27) - 1


def test_cell_index_round_trip(board):
    seen = set()
    for r in range(1, 10):
        for c in range(1, 10):
            flat = board.cell_index(r, c)
            assert board.cell_coords(flat) == (r, c)
            seen.add(flat)
    assert seen == set(range(81))


def test_cell_index_rejects_out_of_range(board):
    for r, c in ((0, 1), (1, 0), (10, 1), (1, 10)):
        with pytest.raises(ValueError):
            board.cell_index(r, c)


def test_box_layout(board):
    assert box_of(board, 1, 1) == 1
    assert box_of(board, 1, 9) == 3
    assert box_of(board, 5, 5) == 5
    assert box_of(board, 9, 1) == 7
    assert box_of(board, 9, 9) == 9


def test_id_label_round_trip(board):
    labels = [board.id_label(i) for i in range(27)]
    assert labels[0] == "R1" and labels[8] == "R9"
    assert labels[9] == "C1" and labels[17] == "C9"
    assert labels[18] == "B1" and labels[26] == "B9"
    for i, label in enumerate(labels):
        assert board.parse_label(label) == i
        assert board.parse_label(label.lower()) == i


def test_parse_label_rejects_garbage(board):
    for bad in ("", "R0", "R10", "X1", "B", "12"):
        with pytest.raises(ValueError):
            board.parse_label(bad)


def test_region_cells_partition(board):
    for kind in (ROW, COL, BOX):
        cover = []
        for idx in range(1, 10):
            cover.extend(region_cells(board.make_id(kind, idx), board))
        assert sorted(cover) == list(range(81))
    row4 = region_cells(board.make_id(ROW, 4), board)
    assert [board.cell_coords(c) for c in row4] == [(4, c) for c in range(1, 10)]


def test_each_cell_in_three_regions(board):
    for cell in range(81):
        kinds = sorted(board.id_kind(cid) for cid in cell_region_ids(board)[cell])
        assert kinds == [ROW, COL, BOX]


def test_chute_members(board):
    cs = chutes(board)
    assert len(cs) == 6
    lines, boxes = chute_members(cs[0], board)
    assert [board.id_label(i) for i in lines] == ["R1", "R2", "R3"]
    assert [board.id_label(i) for i in boxes] == ["B1", "B2", "B3"]
    lines, boxes = chute_members(cs[5], board)
    assert [board.id_label(i) for i in lines] == ["C7", "C8", "C9"]
    assert [board.id_label(i) for i in boxes] == ["B3", "B6", "B9"]


def test_constraint_set_round_trip(board):
    cset = parse_missing(board, "C2,R5,B2,B5,B7")
    assert cset.num_missing == 5
    assert cset.missing_labels() == "R5,C2,B2,B5,B7"
    assert parse_missing(board, cset.missing_labels()) == cset
    assert parse_missing(board, "missing=" + cset.missing_labels()) == cset


def test_parse_missing_empty_is_full(board):
    assert parse_missing(board, "") == ConstraintSet.full(board)
    assert parse_missing(board, "  ").is_full()


def test_parse_missing_rejects_unknown_label(board):
    with pytest.raises(ValueError, match="ZZ"):
        parse_missing(board, "B2,ZZ")


def test_from_missing_deduplicates(board):
    a = ConstraintSet.from_missing(board, ["R1", "R1", "C3"])
    b = ConstraintSet.from_missing(board, ["C3", "R1"])
    assert a == b and a.num_missing == 2


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_missing_labels_list_absent_ids_in_order(order):
    board, rng = Board(order), random.Random(61)
    masks = [board.full_mask, 0] + [rng.getrandbits(board.num_big)
                                    for _ in range(50)]
    for mask in masks:
        assert ConstraintSet(board, mask).missing_labels() == ",".join(
            board.id_label(i) for i in range(board.num_big)
            if not mask >> i & 1)


def test_grid_accessors(board):
    grid = pattern_solution(board)
    assert grid.is_complete()
    assert grid.values.count(0) == 0
    assert cell_value(grid, 1, 1) == 1
    empty = empty_grid(board)
    assert empty.values.count(0) == 81
    assert not empty.is_complete()


def test_grid_line_round_trip(board):
    grid = pattern_solution(board)
    line = grid.to_line()
    assert len(line) == 81 and line.isdigit()
    assert Grid(board, tuple(int(ch) for ch in line)) == grid


def test_pattern_solution_is_valid(board):
    for shift in range(3):
        grid = pattern_solution(board, shift)
        assert verify_grid(grid, ConstraintSet.full(board)) == frozenset()


def test_verify_grid_pinpoints_violations(board):
    grid = pattern_solution(board)
    # Swapping two cells of one row violates exactly their columns' and
    # boxes' constraints; the shared row stays a permutation.
    values = list(grid.values)
    values[0], values[8] = values[8], values[0]  # cells (1,1) and (1,9)
    swapped = Grid(board, tuple(values))
    violated = verify_grid(swapped, ConstraintSet.full(board))
    labels = {board.id_label(i) for i in violated}
    assert labels == {"C1", "C9", "B1", "B3"}
    cset = parse_missing(board, "C1,C9,B1,B3")
    assert verify_grid(swapped, cset) == frozenset()


def test_verify_grid_rejects_incomplete(board):
    with pytest.raises(ValueError):
        verify_grid(empty_grid(board), ConstraintSet.full(board))


def test_order_two_board(board2):
    assert board2.side == 4
    assert board2.num_big == 12
    assert board2.num_cells == 16
    grid = pattern_solution(board2)
    assert verify_grid(grid, ConstraintSet.full(board2)) == frozenset()


def _value_types(board):
    """One value of each of the package's 13 value types."""
    cset, grid = ConstraintSet.full(board), pattern_solution(board)
    stats = SolveStats(0, 0)
    ident = tuple(range(board.side))
    return [
        board, Chute(True, 1), cset, grid,
        Step(Chute(True, 1), LEMMA_I, 18),
        ProbeRecord((0, 1), REDUNDANT, None, 0, 0),
        SolverProblem(cset), stats, SolverOutcome(SOLUTION, grid, stats),
        CatalogEntry(cset, grid),
        ClassRecord(cset, 1, SUDOKU, cset, 0, None, None),
        ClassificationReport(board, 0, 1, (), (), 0.0),
        Symmetry(board, False, ident, ident),
    ]


def test_value_types_are_immutable(board):
    values = _value_types(board)
    assert len({type(value) for value in values}) == 13
    for value in values:
        for field in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))


def test_checked_value_types_reject_bad_keyword_arguments(board):
    ident = tuple(range(9))
    cases = [
        (lambda: Board(n=1), "board order must be >= 2, got 1"),
        (lambda: ConstraintSet(board=board, mask=-1),
         "constraint mask out of range"),
        (lambda: ConstraintSet(board=board, mask=board.full_mask + 1),
         "constraint mask out of range"),
        (lambda: Grid(board=board, values=(0,) * 80),
         "expected 81 values, got 80"),
        (lambda: Grid(board=board, values=(10,) * 81),
         "cell value 10 out of domain"),
        (lambda: SolverProblem(ConstraintSet.full(board),
                               givens=empty_grid(Board(2))),
         "givens grid belongs to a different board"),
        (lambda: Symmetry(board=board, transpose=False, rows=(0,) * 9,
                          cols=ident), "lines are not permuted"),
        (lambda: Symmetry(board=board, transpose=False, rows=ident,
                          cols=(3, 1, 2, 0, 4, 5, 6, 7, 8)),
         "line permutation splits a band or stack"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError, match=message):
            build()


def test_value_hashes_are_their_fields_tuple_hashes(board):
    # Set and dict orders, and so report orders, rest on these hashes.
    for mask in (0, 5, board.full_mask):
        assert hash(ConstraintSet(board, mask)) == hash((board, mask))
    assert hash(board) == hash((3,))
