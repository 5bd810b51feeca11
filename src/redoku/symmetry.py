# Board symmetries, acting on constraint models, cells and grids.  The group
# is generated by transposition, permutations of bands (row blocks) and
# stacks (column blocks), and permutations of lines inside one band or
# stack; its order is 2 * (n! * (n!)^n)^2.  Canonical forms take the
# lexicographically smallest presence vector (R1 most significant, then
# C1.., then B1..) over the group.

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from math import comb, factorial, prod
from operator import itemgetter

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

    def _image(self, cell: int) -> int:
        r, c = divmod(cell, self.board.side)
        if self.transpose:
            r, c = c, r
        return self.rows[r] * self.board.side + self.cols[c]

    @cached_property
    def cells(self) -> tuple[int, ...]:
        """cells[c] = the cell that cell c moves to (flat indices)."""
        return tuple(map(self._image, range(self.board.num_cells)))

    @cached_property
    def labels(self) -> tuple[int, ...]:
        """labels[i] = the id of the region that region i moves to.  A
        region's first and last cells share no other region, so it is the
        one region that holds both their images (`cells` is not filled)."""
        regions = self.board.cell_region_ids
        return tuple(
            (set(regions[self._image(cells[0])])
             & set(regions[self._image(cells[-1])])).pop()
            for cells in self.board.region_cells_all)

    def apply_mask(self, mask: int) -> int:
        # Models are mostly present constraints: clear the absent ones'
        # images from the full mask.
        full = (1 << len(self.labels)) - 1
        out, absent = full, full & ~mask
        while absent:
            bit = absent & -absent
            out ^= 1 << self.labels[bit.bit_length() - 1]
            absent ^= bit
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


@lru_cache(maxsize=None)
def _coarse(n: int) -> tuple[Symmetry, ...]:
    """The 2 * (n!)^2 coarse elements: an optional transpose, then a band
    permutation sigma and a stack permutation tau that keep the order of
    lines inside each band and stack.  Transpose varies slowest, then
    sigma, then tau; the first completion found in this order decides
    every carrier."""
    board, side = Board(n), n * n
    return tuple(
        Symmetry(board, transpose,
                 tuple(sigma[r // n] * n + r % n for r in range(side)),
                 tuple(tau[c // n] * n + c % n for c in range(side)))
        for transpose in (False, True)
        for sigma in permutations(range(n))
        for tau in permutations(range(n)))


def _completions(board: Board, source: int, target: int):
    """Symmetries g with absent(g(source)) within absent(target), at most
    one per coarse element.

    The coarse image must keep the target's present boxes, and no band or
    stack of it may have more absent lines than the target's.  In each band
    and stack, a line permutation then pairs the image's lines with the
    target's, both sorted present lines first, which puts the image's
    absent lines onto absent lines of the target.  A symmetry keeps the
    number of absent constraints, so for equal masks the subset is an
    equality.
    """
    n, side = board.n, board.side
    seg = (1 << n) - 1
    for coarse in _coarse(n):
        image = coarse.apply_mask(source)
        if target >> 2 * side & ~image >> 2 * side:
            continue  # a present box of the target has no source
        if any((image >> shift & seg).bit_count()
               < (target >> shift & seg).bit_count()
               for shift in range(0, 2 * side, n)):
            continue  # a segment has more absent lines than the target's
        fix = [list(range(side)), list(range(side))]
        for offset, perm in zip((0, side), fix):
            for chute in range(0, side, n):
                lines = range(chute, chute + n)
                src = sorted(lines, key=lambda i: not image >> offset + i & 1)
                dst = sorted(lines, key=lambda i: not target >> offset + i & 1)
                for a, b in zip(src, dst):
                    perm[a] = b
        g = Symmetry(board, coarse.transpose,
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
    Returns, for each pair, (root, g, previous): root is the smallest pair
    of its orbit, and the generator g carries the pair `previous`, one step
    nearer the root, onto it; the root has (root, None, None).  A
    breadth-first search over the generators builds each orbit;
    carry_from_root composes the steps.
    """
    gens = stabilizer_generators(cset)
    orbits = {}
    for root in sorted(pairs):
        if root in orbits:
            continue
        orbits[root] = (root, None, None)
        frontier = [root]
        while frontier:
            reached = []
            for a, b in frontier:
                for g in gens:
                    x, y = g.cells[a], g.cells[b]
                    image = (x, y) if x < y else (y, x)
                    if image not in orbits:
                        orbits[image] = (root, g, (a, b))
                        reached.append(image)
            frontier = reached
    return orbits


def carry_from_root(board: Board, orbits: dict, pair) -> Symmetry:
    """The symmetry of the stabilizer carrying the root of pair's orbit
    onto pair, composed from the steps pair_orbits recorded."""
    ident = tuple(range(board.side))
    carry = Symmetry(board, False, ident, ident)
    _, g, previous = orbits[pair]
    while g is not None:
        carry = carry.compose(g)
        _, g, previous = orbits[previous]
    return carry


# --- canonical forms -------------------------------------------------------
#
# Every group element is a coarse element followed by line permutations
# inside each band and stack.  Those act on disjoint segments of the line
# ids, so over the elements sharing one coarse part the lexicographically
# smallest presence vector puts each segment's absent lines first: it is
# the image key of the coarse image, and the minimum over the group is the
# minimum over the 2 * (n!)^2 coarse elements.  Keys pack R1 as the most
# significant bit.  A coarse image's row part depends only on the transpose
# flag and the band permutation, and is smallest with the bands' present
# counts ascending; its column part likewise on the flag and the stack
# permutation.  So _canonical_key finds the minimum in stages: rows, then
# columns, then the box bits of the elements left.


def _image_key(n: int, image: int) -> int:
    """Packed key of a coarse image, each segment's absent lines first."""
    side = n * n
    seg = (1 << n) - 1
    key = 0
    for k in range(2 * n):  # row bands, then column stacks
        present = (image >> k * n & seg).bit_count()
        key |= ((1 << present) - 1) << 3 * side - k * n - n
    # Boxes keep their presence bits, B1 most significant.
    return key | int(f"{image >> 2 * side:0{side}b}"[::-1], 2)


def canonical_key(cset: ConstraintSet) -> int:
    """Smallest presence vector over the group, packed R1-first."""
    return _canonical_key(cset.board.n, cset.mask)


def _canonical_key(n: int, mask: int) -> int:
    """The smallest _image_key over the coarse elements, in stages."""
    side, seg = n * n, (1 << n) - 1
    counts = [(mask >> k * n & seg).bit_count() for k in range(2 * n)]
    boxes = f"{mask >> 2 * side:0{side}b}"[::-1]  # B1 first
    by_band = [boxes[a * n:a * n + n] for a in range(n)]
    # Transposed, the image's rows come from the stacks, its columns from
    # the bands, and its box (a, b) from box (b, a).
    views = ((counts[:n], counts[n:], by_band),
             (counts[n:], counts[:n], ["".join(s) for s in zip(*by_band)]))
    heads = [(tuple(sorted(rows)), tuple(sorted(cols)))
             for rows, cols, _ in views]
    row_head, col_head = min(heads)
    # For each stack order that sorts the column counts, bands of equal
    # count may come in any order, so the smallest box bits list the bands'
    # boxes, read in that stack order, ascending within each count.
    picks = [itemgetter(*tau) for tau in permutations(range(n))]
    best = min(sorted(zip(rows, map(pick, box_rows)))
               for (rows, cols, box_rows), head in zip(views, heads)
               if head == (row_head, col_head)
               for pick in picks if pick(cols) == col_head)
    image = int("".join("".join(line) for _, line in best)[::-1], 2)
    image <<= 2 * side
    for k, present in enumerate(row_head + col_head):
        image |= ((1 << present) - 1) << k * n
    return _image_key(n, image)


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
    """Presence masks of every image of the model under the group: each
    coarse image with every arrangement of each segment's lines.  The
    oracle that tests and perfbench/check.py compare orbit_size with."""
    n, side = cset.board.n, cset.board.side
    seg = (1 << n) - 1
    pats = _segment_patterns(n)
    images: set[int] = set()
    for g in _coarse(n):
        image = g.apply_mask(cset.mask)
        partial = [image >> 2 * side << 2 * side]
        for shift in range(0, 2 * side, n):
            options = pats[(image >> shift & seg).bit_count()]
            partial = [base | p << shift for base in partial for p in options]
        images.update(partial)
    return frozenset(images)


def orbit_size(cset: ConstraintSet) -> int:
    """Number of group images, counted without building them.

    A coarse element permutes the 2n line segments, so every image has as
    many line arrangements as the model: the product over the segments of
    C(n, absent lines).  Two coarse images share all their arrangements
    when their image keys agree and none otherwise, so the orbit holds that
    product times the number of distinct keys.  Those are counted on the
    arrangement with each segment's absent lines first: coarse elements
    keep the order of lines inside segments, so its coarse images keep
    that form and are equal exactly when their keys are."""
    n, mask = cset.board.n, cset.mask
    seg = (1 << n) - 1
    arrangements = prod(comb(n, (mask >> shift & seg).bit_count())
                        for shift in range(0, 2 * n * n, n))
    first = _key_to_mask(_image_key(n, mask), cset.board.num_big)
    return arrangements * len({g.apply_mask(first) for g in _coarse(n)})
