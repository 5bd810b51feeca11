# Redundancy lemmas over chutes and their fixpoint closure.
#
# Inside one chute, the n line constraints together entail any one box once
# the other n-1 boxes are present (step kind "LemmaI"), and dually the n
# boxes entail a missing line when the other n-1 lines are present
# ("LemmaII").  Closing a model under both steps is confluent, so the
# fixpoint is order-independent even though the recorded trace is not.

from functools import lru_cache
from typing import NamedTuple, Optional

from .board import Board, Chute, ConstraintSet, chute_members, chutes

LEMMA_I = "LemmaI"
LEMMA_II = "LemmaII"


class Step(NamedTuple):
    """One lemma application: which chute fired and which id it derived."""

    chute: Chute
    lemma: str
    derived: int

    def render(self, board: Board) -> str:
        return f"{self.lemma} {self.chute.label} derives {board.id_label(self.derived)}"


@lru_cache(maxsize=None)
def _chute_tables(n: int) -> tuple[tuple[Chute, int, int], ...]:
    """(chute, line mask, box mask) triples, H1..Hn then V1..Vn."""
    board = Board(n)
    return tuple((ch, *(sum(1 << i for i in ids)
                        for ids in chute_members(ch, board)))
                 for ch in chutes(board))


def _step_for_chute(mask: int, ch: Chute, lmask: int, bmask: int) -> Optional[Step]:
    if mask & lmask == lmask:
        gap = bmask & ~mask
        if gap and gap & (gap - 1) == 0:
            return Step(ch, LEMMA_I, gap.bit_length() - 1)
    if mask & bmask == bmask:
        gap = lmask & ~mask
        if gap and gap & (gap - 1) == 0:
            return Step(ch, LEMMA_II, gap.bit_length() - 1)
    return None


def closure(cset: ConstraintSet) -> tuple[ConstraintSet, tuple[Step, ...]]:
    """Fixpoint under both lemmas plus the trace of applied steps.

    Always applies the first applicable step in chute order, so the trace is
    deterministic; by confluence the fixpoint itself does not depend on the
    strategy.
    """
    tables = _chute_tables(cset.board.n)
    mask = cset.mask
    trace = []
    while True:
        for ch, lmask, bmask in tables:
            step = _step_for_chute(mask, ch, lmask, bmask)
            if step is not None:
                trace.append(step)
                mask |= 1 << step.derived
                break
        else:
            return ConstraintSet(cset.board, mask), tuple(trace)


def close_mask(n: int, mask: int) -> int:
    """The closure fixpoint of a bare presence mask."""
    return closure(ConstraintSet(Board(n), mask))[0].mask
