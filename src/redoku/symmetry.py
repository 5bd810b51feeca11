# Board symmetries, acting on constraint models, cells and grids.  The group
# is generated by transposition, permutations of bands (row blocks) and
# stacks (column blocks), and permutations of lines inside one band or
# stack; its order is 2 * (n! * (n!)^n)^2.  Canonical forms take the
# lexicographically smallest presence vector (R1 most significant, then
# C1.., then B1..) over the group.

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from math import factorial

from .board import Board, ConstraintSet, Grid


def group_order(board: Board) -> int:
    f = factorial(board.n)
    return 2 * (f * f ** board.n) ** 2


@dataclass(frozen=True)
class Symmetry:
    """One board symmetry: an optional transpose, then a row permutation
    that keeps the rows of each band together and a column permutation
    that keeps the columns of each stack together.  It acts on cells, on
    grids, and on constraint ids and presence masks."""

    board: Board
    transpose: bool
    rows: tuple[int, ...]  # rows[r] = the row that row r moves to, 0-based
    cols: tuple[int, ...]

    def __post_init__(self):
        n, side = self.board.n, self.board.side
        for lines in (self.rows, self.cols):
            if sorted(lines) != list(range(side)):
                raise ValueError("lines are not permuted")
            if any(lines[i] // n != lines[i - i % n] // n for i in range(side)):
                raise ValueError("line permutation splits a band or stack")

    @cached_property
    def cells(self) -> tuple[int, ...]:
        """cells[c] = the cell that cell c moves to (flat indices)."""
        side, rows, cols = self.board.side, self.rows, self.cols
        if self.transpose:
            return tuple(rows[c] * side + cols[r]
                         for r in range(side) for c in range(side))
        return tuple(rows[r] * side + cols[c]
                     for r in range(side) for c in range(side))

    @cached_property
    def labels(self) -> tuple[int, ...]:
        """labels[i] = the id of the region that region i moves to.  A
        region's first and last cells share no other region, so it is the
        one region that holds both their images."""
        regions = self.board.cell_region_ids
        return tuple(
            (set(regions[self.cells[cells[0]]])
             & set(regions[self.cells[cells[-1]]])).pop()
            for cells in self.board.region_cells_all)

    def apply_mask(self, mask: int) -> int:
        out = 0
        for i, j in enumerate(self.labels):
            if mask >> i & 1:
                out |= 1 << j
        return out

    def apply(self, cset: ConstraintSet) -> ConstraintSet:
        return ConstraintSet(self.board, self.apply_mask(cset.mask))

    def compose(self, other: "Symmetry") -> "Symmetry":
        """The symmetry acting as `other` first, then self."""
        first_rows, first_cols = ((other.cols, other.rows) if self.transpose
                                  else (other.rows, other.cols))
        return Symmetry(self.board, self.transpose != other.transpose,
                        tuple(self.rows[r] for r in first_rows),
                        tuple(self.cols[c] for c in first_cols))

    def inverse(self) -> "Symmetry":
        rows, cols = (tuple(sorted(range(len(lines)), key=lines.__getitem__))
                      for lines in (self.rows, self.cols))
        if self.transpose:
            rows, cols = cols, rows
        return Symmetry(self.board, self.transpose, rows, cols)

    def move(self, grid: Grid) -> Grid:
        """The grid in which cell g(c) holds the value of cell c."""
        values = [0] * self.board.num_cells
        for cell, image in enumerate(self.cells):
            values[image] = grid.values[cell]
        return Grid(self.board, tuple(values))


def _line_swaps(board: Board, pairs, columns: bool = False) -> Symmetry:
    """Exchange each pair of 0-based rows (or columns) in `pairs`."""
    ident = tuple(range(board.side))
    lines = list(ident)
    for a, b in pairs:
        lines[a], lines[b] = lines[b], lines[a]
    if columns:
        return Symmetry(board, False, ident, tuple(lines))
    return Symmetry(board, False, tuple(lines), ident)


def generators(board: Board) -> tuple[Symmetry, ...]:
    """A generating set: transpose, adjacent band and stack swaps, and
    adjacent line swaps inside each band and stack."""
    n, side = board.n, board.side
    ident = tuple(range(side))
    gens = [Symmetry(board, True, ident, ident)]
    for k in range(n - 1):
        chutes = [(k * n + off, k * n + n + off) for off in range(n)]
        gens += [_line_swaps(board, chutes), _line_swaps(board, chutes, True)]
    for line in range(side - 1):
        if line % n != n - 1:
            gens += [_line_swaps(board, [(line, line + 1)]),
                     _line_swaps(board, [(line, line + 1)], True)]
    return tuple(gens)


# --- completions: stabilizers and carriers ---------------------------------


def _completions(board: Board, source: int, target: int):
    """Symmetries g with absent(g(source)) within absent(target), at most
    one per coarse element (transpose, band and stack permutations).

    The coarse image must keep the target's present boxes.  In each band
    and stack, a line permutation then pairs the image's lines with the
    target's, both sorted present lines first; it puts the image's absent
    lines onto absent lines of the target whenever any line permutation
    can.  A symmetry keeps the number of absent constraints, so for equal
    masks the subset is an equality.
    """
    n, side = board.n, board.side
    for transpose in (False, True):
        for sigma in permutations(range(n)):
            for tau in permutations(range(n)):
                coarse = Symmetry(
                    board, transpose,
                    tuple(sigma[r // n] * n + r % n for r in range(side)),
                    tuple(tau[c // n] * n + c % n for c in range(side)))
                image = coarse.apply_mask(source)
                if target >> 2 * side & ~image >> 2 * side:
                    continue  # a present box of the target has no source
                fix = [list(range(side)), list(range(side))]
                for offset, perm in zip((0, side), fix):
                    for chute in range(0, side, n):
                        lines = range(chute, chute + n)
                        src = sorted(lines,
                                     key=lambda i: not image >> offset + i & 1)
                        dst = sorted(lines,
                                     key=lambda i: not target >> offset + i & 1)
                        for a, b in zip(src, dst):
                            perm[a] = b
                g = Symmetry(board, transpose,
                             tuple(fix[0][r] for r in coarse.rows),
                             tuple(fix[1][c] for c in coarse.cols))
                if target & ~g.apply_mask(source) == 0:
                    yield g


def carrier(entry: ConstraintSet, cset: ConstraintSet) -> Symmetry | None:
    """A symmetry g with absent(g(entry)) within absent(cset), or None."""
    return next(_completions(cset.board, entry.mask, cset.mask), None)


def stabilizer_generators(cset: ConstraintSet) -> tuple[Symmetry, ...]:
    """Generators of the symmetries that map the model onto itself.

    Each coarse element (transpose, band and stack permutations) whose image
    of the model has the model's boxes and its count of present lines per
    band and stack gives one completion onto the model itself.  The
    transpositions of two lines of one band or stack that are both present
    or both absent are added.  Any symmetry fixing the model, followed by
    the inverse of the completion of its coarse element, permutes lines
    inside bands and stacks and fixes the model, so it is a product of those
    transpositions: the generators reach the whole stabilizer without
    enumerating it.
    """
    board, mask = cset.board, cset.mask
    n, side = board.n, board.side
    gens = list(_completions(board, mask, mask))
    for columns in (False, True):
        offset = side if columns else 0
        for chute in range(0, side, n):
            for a, b in combinations(range(chute, chute + n), 2):
                if not (mask >> offset + a ^ mask >> offset + b) & 1:
                    gens.append(_line_swaps(board, [(a, b)], columns))
    return tuple(gens)


def pair_orbits(cset: ConstraintSet, pairs) -> dict:
    """Orbits of cell pairs under the symmetries that fix the model.

    `pairs` holds (a, b) flat-index pairs with a < b and must be mapped onto
    itself by those symmetries, as the model's expanded pair set is.
    Returns, for each pair, (root, g): root is the smallest pair of its
    orbit, and g is a symmetry of the stabilizer carrying root onto the
    pair.  A breadth-first search over the generators builds each orbit and
    composes the symmetries along the way.
    """
    board = cset.board
    ident = tuple(range(board.side))
    gens = stabilizer_generators(cset)
    orbits = {}
    for root in sorted(pairs):
        if root in orbits:
            continue
        orbits[root] = (root, Symmetry(board, False, ident, ident))
        frontier = [root]
        while frontier:
            reached = []
            for a, b in frontier:
                carry = orbits[a, b][1]
                for g in gens:
                    x, y = g.cells[a], g.cells[b]
                    image = (x, y) if x < y else (y, x)
                    if image not in orbits:
                        orbits[image] = (root, g.compose(carry))
                        reached.append(image)
            frontier = reached
    return orbits


# --- canonical forms -------------------------------------------------------
#
# Every group element factors as (optional transpose) then a band permutation
# sigma, a stack permutation tau, and line permutations inside each band and
# stack.  For fixed (transpose, sigma, tau) the inner line permutations act
# independently on disjoint id segments, so the lexicographic minimum is
# reached by sorting presence bits inside each segment (absent lines get the
# more significant positions).  Minimizing over the 2 * (n!)^2 coarse
# elements therefore minimizes over the whole group.


@lru_cache(maxsize=None)
def _coarse_descriptors(n: int):
    """Per coarse element: (swap_sides, row segment sources, column segment
    sources, box bit image)."""
    side = n * n
    descs = []
    for swap in (False, True):
        for sigma in permutations(range(n)):
            for tau in permutations(range(n)):
                src_rows = [0] * n
                for band in range(n):
                    src_rows[sigma[band]] = band
                src_cols = [0] * n
                for stack in range(n):
                    src_cols[tau[stack]] = stack
                bimg = [0] * side
                for j in range(side):
                    br, bc = divmod(j, n)
                    if swap:
                        br, bc = bc, br
                    bimg[j] = sigma[br] * n + tau[bc]
                descs.append((swap, tuple(src_rows), tuple(src_cols), tuple(bimg)))
    return tuple(descs)


def _element_key(n: int, rows: int, cols: int, boxes: int, desc) -> int:
    side = n * n
    swap, src_r, src_c, bimg = desc
    if swap:
        rows, cols = cols, rows
    seg = (1 << n) - 1
    key = 0
    for k in range(n):
        c = bin(rows >> src_r[k] * n & seg).count("1")
        key |= ((1 << c) - 1) << (3 * side - k * n - n)
        c = bin(cols >> src_c[k] * n & seg).count("1")
        key |= ((1 << c) - 1) << (2 * side - k * n - n)
    for j in range(side):
        if boxes >> j & 1:
            key |= 1 << (side - 1 - bimg[j])
    return key


@lru_cache(maxsize=None)
def _fast_tables(n: int):
    """Chunk-indexed key tables per coarse element, orders n <= 3 only.

    Key(mask) = TR[row chunk] | TC[col chunk] | TB[box chunk], with the
    segment sort and bit placement folded in (row/col chunks traded when the
    element transposes).
    """
    side = n * n
    seg = (1 << n) - 1
    plain, swapped = [], []
    for swap, src_r, src_c, bimg in _coarse_descriptors(n):
        tr, tc, tb = [], [], []
        for x in range(1 << side):
            kr = kc = kb = 0
            for k in range(n):
                c = bin(x >> src_r[k] * n & seg).count("1")
                kr |= ((1 << c) - 1) << (3 * side - k * n - n)
                c = bin(x >> src_c[k] * n & seg).count("1")
                kc |= ((1 << c) - 1) << (2 * side - k * n - n)
            for j in range(side):
                if x >> j & 1:
                    kb |= 1 << (side - 1 - bimg[j])
            tr.append(kr)
            tc.append(kc)
            tb.append(kb)
        entry = (tuple(tr), tuple(tc), tuple(tb))
        (swapped if swap else plain).append(entry)
    return tuple(plain), tuple(swapped)


def canonical_key(cset: ConstraintSet) -> int:
    """Smallest presence vector over the group, packed R1-first."""
    return _canonical_key(cset.board.n, cset.mask)


def _canonical_key(n: int, mask: int) -> int:
    side = n * n
    chunk = (1 << side) - 1
    rows = mask & chunk
    cols = mask >> side & chunk
    boxes = mask >> 2 * side & chunk
    if n <= 3:
        plain, swapped = _fast_tables(n)
        return min(
            min(tr[rows] | tc[cols] | tb[boxes] for tr, tc, tb in plain),
            min(tr[cols] | tc[rows] | tb[boxes] for tr, tc, tb in swapped),
        )
    return min(
        _element_key(n, rows, cols, boxes, desc)
        for desc in _coarse_descriptors(n))


def _key_to_mask(key: int, num_big: int) -> int:
    mask = 0
    for i in range(num_big):
        if key >> (num_big - 1 - i) & 1:
            mask |= 1 << i
    return mask


def canonicalize(cset: ConstraintSet) -> ConstraintSet:
    """Class representative: the group image with the smallest presence vector."""
    return ConstraintSet(
        cset.board, _key_to_mask(canonical_key(cset), cset.board.num_big))


@lru_cache(maxsize=None)
def _segment_patterns(n: int) -> tuple[tuple[int, ...], ...]:
    """n-bit patterns grouped by popcount."""
    pats: list[list[int]] = [[] for _ in range(n + 1)]
    for x in range(1 << n):
        pats[bin(x).count("1")].append(x)
    return tuple(tuple(p) for p in pats)


def group_images(cset: ConstraintSet) -> frozenset[int]:
    """Presence masks of every image of the model under the group."""
    board = cset.board
    n, side = board.n, board.side
    chunk = (1 << side) - 1
    seg = (1 << n) - 1
    rows0 = cset.mask & chunk
    cols0 = cset.mask >> side & chunk
    boxes0 = cset.mask >> 2 * side & chunk
    pats = _segment_patterns(n)
    images: set[int] = set()
    for swap, src_r, src_c, bimg in _coarse_descriptors(n):
        rows, cols = (cols0, rows0) if swap else (rows0, cols0)
        row_opts = []
        col_opts = []
        for k in range(n):
            c = bin(rows >> src_r[k] * n & seg).count("1")
            row_opts.append(tuple(p << k * n for p in pats[c]))
            c = bin(cols >> src_c[k] * n & seg).count("1")
            col_opts.append(tuple(p << k * n for p in pats[c]))
        box_img = 0
        for j in range(side):
            if boxes0 >> j & 1:
                box_img |= 1 << bimg[j]
        box_part = box_img << 2 * side
        row_chunks = [0]
        for opts in row_opts:
            row_chunks = [base | p for base in row_chunks for p in opts]
        col_chunks = [0]
        for opts in col_opts:
            col_chunks = [base | p for base in col_chunks for p in opts]
        images.update(
            r | c << side | box_part for r in row_chunks for c in col_chunks)
    return frozenset(images)


def orbit_size(cset: ConstraintSet) -> int:
    return len(group_images(cset))
