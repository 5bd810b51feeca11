import random

from redoku.board import ConstraintSet, parse_missing
from redoku.pipeline import minimal_catalog
from redoku.rewrite import LEMMA_I, LEMMA_II, close_mask, closure
from redoku.symmetry import group_images

from helpers import applicable_steps


def random_order_fixpoint(cset, rng):
    """Close a model applying a randomly chosen applicable step each time."""
    current = cset
    while True:
        steps = applicable_steps(current)
        if not steps:
            return current
        step = rng.choice(steps)
        current = ConstraintSet(current.board,
                                current.mask | 1 << step.derived)


def test_missing_box_closes_in_one_step(board):
    fixpoint, steps = closure(parse_missing(board, "B2"))
    assert fixpoint.is_full()
    assert len(steps) == 1
    assert steps[0].lemma == LEMMA_I
    assert board.id_label(steps[0].derived) == "B2"


def test_missing_row_closes_in_one_step(board):
    fixpoint, steps = closure(parse_missing(board, "R2"))
    assert fixpoint.is_full()
    assert len(steps) == 1
    assert steps[0].lemma == LEMMA_II
    assert board.id_label(steps[0].derived) == "R2"


def test_full_model_closes_with_no_steps(board):
    fixpoint, steps = closure(ConstraintSet.full(board))
    assert fixpoint.is_full()
    assert steps == ()


def test_parallel_lines_in_one_stack_are_stuck(board):
    cset = parse_missing(board, "C1,C3")
    fixpoint, steps = closure(cset)
    assert steps == ()
    assert fixpoint == cset


def test_derivation_chains(board):
    # One line missing from each orientation still closes: each chute
    # with all boxes present rederives its one absent line.
    fixpoint, steps = closure(parse_missing(board, "R4,C9"))
    assert fixpoint.is_full()
    assert len(steps) == 2
    # A missing line plus a missing box in the same band blocks both
    # rules for that band until another chute supplies progress.
    fixpoint, steps = closure(parse_missing(board, "R1,B1"))
    assert fixpoint.is_full()
    lemmas = [s.lemma for s in steps]
    assert LEMMA_I in lemmas and LEMMA_II in lemmas


def test_probe_base_model_closes(board):
    fixpoint, steps = closure(parse_missing(board, "R2,R5,R8,C2,C5,C8"))
    assert fixpoint.is_full()
    assert len(steps) == 6


def test_closure_only_adds(board):
    rng = random.Random(3)
    for _ in range(50):
        cset = ConstraintSet(board, rng.getrandbits(27))
        fixpoint, _ = closure(cset)
        assert fixpoint.mask & cset.mask == cset.mask


def test_close_mask_agrees_with_closure(board):
    rng = random.Random(4)
    for _ in range(200):
        mask = rng.getrandbits(27)
        fixpoint, _ = closure(ConstraintSet(board, mask))
        assert close_mask(3, mask) == fixpoint.mask


def test_closure_is_confluent(board):
    rng = random.Random(7)
    for _ in range(60):
        cset = ConstraintSet(board, rng.getrandbits(27))
        reference = closure(cset)[0]
        for _ in range(5):
            assert random_order_fixpoint(cset, rng) == reference


def test_trace_is_deterministic(board):
    cset = parse_missing(board, "R1,R5,B2,B9")
    first = closure(cset)
    for _ in range(5):
        fixpoint, steps = closure(cset)
        assert (fixpoint, steps) == first


def test_step_render_names_chute_and_derived(board):
    _, steps = closure(parse_missing(board, "B2"))
    text = steps[0].render(board)
    assert "H1" in text and "B2" in text and LEMMA_I in text


def test_classify_with_catalog(board):
    fixpoint, _ = closure(parse_missing(board, "B2"))
    assert fixpoint.is_full()

    stuck = parse_missing(board, "C1,C3")
    fixpoint, _ = closure(stuck)
    assert not fixpoint.is_full()

    # Two parallel lines of one chute form a known non-Sudoku class; the
    # catalog entry R1,R2 covers C1,C3 through one of its group images.
    catalog = minimal_catalog(board, 2)
    assert [entry.label for entry in catalog] == ["R1,R2"]
    images = group_images(catalog[0].cset)
    assert any(fixpoint.mask & ~image == 0 for image in images)


def test_order_two_closure(board2):
    # At order 2 a chute holds two lines and two boxes; the same two
    # rules apply.
    fixpoint, steps = closure(parse_missing(board2, "B1"))
    assert fixpoint.is_full()
    assert len(steps) == 1
