# Core vocabulary for Sudoku constraint models: cells, regions, big-constraint
# identifiers, constraint sets, and grids, parameterized by board order
# (order 3 = the standard 9x9 board with 27 big constraints).

from collections import namedtuple
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

ROW, COL, BOX = 0, 1, 2
KIND_LETTERS = "RCB"


class Board(namedtuple("Board", "n")):
    """Board geometry for a given order n (side n*n, 3*n*n big constraints)."""

    __slots__ = ()

    def __new__(cls, n: int = 3):
        if n < 2:
            raise ValueError(f"board order must be >= 2, got {n}")
        return super().__new__(cls, n)

    @property
    def side(self) -> int:
        return self.n * self.n

    @property
    def num_cells(self) -> int:
        return self.side * self.side

    @property
    def num_big(self) -> int:
        return 3 * self.side

    @property
    def full_mask(self) -> int:
        return (1 << self.num_big) - 1

    # --- cells -------------------------------------------------------------

    def cell_index(self, row: int, col: int) -> int:
        """Flat index of a 1-based (row, col) cell."""
        if not (1 <= row <= self.side and 1 <= col <= self.side):
            raise ValueError(f"cell ({row},{col}) out of range for side {self.side}")
        return (row - 1) * self.side + (col - 1)

    def cell_coords(self, cell: int) -> tuple[int, int]:
        return cell // self.side + 1, cell % self.side + 1

    def box_of(self, row: int, col: int) -> int:
        """1-based box index of a cell, boxes numbered row-major."""
        return ((row - 1) // self.n) * self.n + (col - 1) // self.n + 1

    # --- big-constraint ids --------------------------------------------------

    # Ids are 0-based and ordered R1..RN, C1..CN, B1..BN; bit i of a
    # constraint-set mask holds the presence of id i.

    def make_id(self, kind: int, index: int) -> int:
        if kind not in (ROW, COL, BOX):
            raise ValueError(f"bad constraint kind {kind}")
        if not 1 <= index <= self.side:
            raise ValueError(f"constraint index {index} out of range 1..{self.side}")
        return kind * self.side + index - 1

    def id_kind(self, cid: int) -> int:
        return cid // self.side

    def id_label(self, cid: int) -> str:
        if not 0 <= cid < self.num_big:
            raise ValueError(f"constraint id {cid} out of range")
        return f"{KIND_LETTERS[self.id_kind(cid)]}{cid % self.side + 1}"

    def parse_label(self, label: str) -> int:
        label = label.strip()
        if len(label) < 2 or label[0].upper() not in KIND_LETTERS:
            raise ValueError(f"bad constraint label {label!r}")
        try:
            index = int(label[1:])
        except ValueError:
            raise ValueError(f"bad constraint label {label!r}") from None
        return self.make_id(KIND_LETTERS.index(label[0].upper()), index)

    @property
    def region_cells_all(self) -> tuple[tuple[int, ...], ...]:
        return _regions(self.n)

    @property
    def cell_region_ids(self) -> tuple[tuple[int, int, int], ...]:
        """For each cell, the 3 region ids (row, col, box) containing it."""
        return _cell_regions(self.n)


@lru_cache(maxsize=None)
def _regions(n: int) -> tuple[tuple[int, ...], ...]:
    # Rows, then columns, then boxes row-major, each in row-major order.
    side = n * n
    return tuple([tuple(range(r * side, r * side + side)) for r in range(side)]
                 + [tuple(range(c, side * side, side)) for c in range(side)]
                 + [tuple((k // n * n + i) * side + k % n * n + j
                          for i in range(n) for j in range(n))
                    for k in range(side)])


@lru_cache(maxsize=None)
def _cell_regions(n: int) -> tuple[tuple[int, int, int], ...]:
    side = n * n
    return tuple((r, side + c, 2 * side + r // n * n + c // n)
                 for r in range(side) for c in range(side))


@lru_cache(maxsize=None)
def _labels(n: int) -> tuple[str, ...]:
    return tuple(map(Board(n).id_label, range(3 * n * n)))


class Chute(NamedTuple):
    """A band (horizontal) or stack (vertical): n lines plus n boxes."""

    horizontal: bool
    index: int  # 1..n

    @property
    def label(self) -> str:
        return f"{'H' if self.horizontal else 'V'}{self.index}"


def chutes(board: Board) -> tuple[Chute, ...]:
    """All 2n chutes, horizontal 1..n then vertical 1..n."""
    return tuple(Chute(horizontal, i) for horizontal in (True, False)
                 for i in range(1, board.n + 1))


def chute_members(chute: Chute, board: Board) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Line ids and box ids belonging to a chute.

    Horizontal chute i owns rows (i-1)n+1..in and the boxes of that band;
    vertical chute j owns the corresponding columns and stack boxes.
    """
    n = board.n
    if not 1 <= chute.index <= n:
        raise ValueError(f"chute index {chute.index} out of range 1..{n}")
    k, kind = chute.index - 1, ROW if chute.horizontal else COL
    return (tuple(board.make_id(kind, k * n + j + 1) for j in range(n)),
            tuple(board.make_id(BOX, (k * n + j if chute.horizontal
                                      else j * n + k) + 1) for j in range(n)))


class ConstraintSet(namedtuple("ConstraintSet", "board mask")):
    """A subset of the 3n^2 big constraints, stored as a presence bitmask."""

    __slots__ = ()

    def __new__(cls, board: Board, mask: int):
        if not 0 <= mask <= board.full_mask:
            raise ValueError("constraint mask out of range for board")
        return super().__new__(cls, board, mask)

    @classmethod
    def full(cls, board: Board) -> "ConstraintSet":
        return cls(board, board.full_mask)

    @classmethod
    def from_missing(cls, board: Board, missing) -> "ConstraintSet":
        """Build a set from an iterable of missing ids (or labels)."""
        mask = board.full_mask
        for item in missing:
            cid = board.parse_label(item) if isinstance(item, str) else item
            if not 0 <= cid < board.num_big:
                raise ValueError(f"constraint id {cid} out of range")
            mask &= ~(1 << cid)
        return cls(board, mask)

    def contains(self, cid: int) -> bool:
        return bool(self.mask >> cid & 1)

    @property
    def present_ids(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.board.num_big) if self.mask >> i & 1)

    @property
    def missing_ids(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.board.num_big) if not self.mask >> i & 1)

    @property
    def num_missing(self) -> int:
        return self.board.num_big - bin(self.mask).count("1")

    def is_full(self) -> bool:
        return self.mask == self.board.full_mask

    def missing_labels(self) -> str:
        """Comma-separated missing-constraint labels; empty string = full set."""
        labels = _labels(self.board.n)
        return ",".join(labels[i] for i in self.missing_ids)

    def __str__(self) -> str:
        return f"missing={{{self.missing_labels()}}}"


def parse_missing(board: Board, text: str) -> ConstraintSet:
    """Parse the text form of a model: comma-separated missing labels.

    An empty string denotes the full model.  A leading "missing=" prefix
    is tolerated.
    """
    text = text.strip()
    if text.lower().startswith("missing="):
        text = text[len("missing="):]
    if not text:
        return ConstraintSet.full(board)
    return ConstraintSet.from_missing(
        board, (tok for tok in text.split(",") if tok.strip()))


def region_cells(cid: int, board: Board) -> tuple[int, ...]:
    """Cells of a region in row-major order (flat indices)."""
    if not 0 <= cid < board.num_big:
        raise ValueError(f"constraint id {cid} out of range for order {board.n}")
    return board.region_cells_all[cid]


class Grid(namedtuple("Grid", "board values")):
    """Assignment of cell values, 0 = unassigned, row-major flat storage."""

    __slots__ = ()

    def __new__(cls, board: Board, values: tuple[int, ...]):
        if len(values) != board.num_cells:
            raise ValueError(
                f"expected {board.num_cells} values, got {len(values)}")
        if not 0 <= min(values) <= max(values) <= board.side:
            v = next(v for v in values if not 0 <= v <= board.side)
            raise ValueError(f"cell value {v} out of domain 1..{board.side}")
        return super().__new__(cls, board, values)

    @classmethod
    def empty(cls, board: Board) -> "Grid":
        return cls(board, (0,) * board.num_cells)

    def get(self, row: int, col: int) -> int:
        return self.values[self.board.cell_index(row, col)]

    def is_complete(self) -> bool:
        return 0 not in self.values

    def to_line(self) -> str:
        """One-line text form: digits with 0 for blanks (comma-separated
        when values exceed one digit)."""
        sep = "" if self.board.side <= 9 else ","
        return sep.join(map(str, self.values))

    def __str__(self) -> str:
        side = self.board.side
        rows = []
        for r in range(side):
            row = self.values[r * side:(r + 1) * side]
            rows.append(" ".join(str(v) if v else "." for v in row))
        return "\n".join(rows)


def verify_grid(grid: Grid, cset: ConstraintSet) -> frozenset[int]:
    """Ids of the constraints in `cset` whose region holds a duplicate.

    The grid must be complete; an empty result means the grid satisfies
    the model.
    """
    if grid.board != cset.board:
        raise ValueError("grid and constraint set belong to different boards")
    if not grid.is_complete():
        raise ValueError("verify_grid requires a complete grid")
    get, side = _region_getters(grid.board.n), grid.board.side
    return frozenset(cid for cid in cset.present_ids
                     if len(set(get[cid](grid.values))) < side)


@lru_cache(maxsize=None)
def _region_getters(n: int) -> tuple[itemgetter, ...]:
    return tuple(itemgetter(*cells) for cells in _regions(n))
