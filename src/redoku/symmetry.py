# Board symmetries, acting on constraint models, cells and grids.  The group
# is generated by transposition, permutations of bands (row blocks) and
# stacks (column blocks), and permutations of lines inside one band or
# stack; its order is 2 * (n! * (n!)^n)^2.  Canonical forms take the
# smallest presence vector (R1 most significant) over the group; carriers
# and stabilizers complete a coarse element only once it is chosen.

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import groupby, permutations
from math import comb, factorial, prod
from operator import ge, itemgetter, or_

from .board import Board, ConstraintSet, Grid


class Symmetry(namedtuple("Symmetry", "board transpose rows cols")):
    """One board symmetry: an optional transpose, then a row permutation
    that keeps the rows of each band together and a column permutation
    that keeps the columns of each stack together; rows[r] is the row that
    row r moves to, 0-based, and likewise cols.  It acts on cells, on grids,
    and on constraint ids and presence masks.  It has no __slots__, so that
    cells and labels can be cached."""

    def __new__(cls, board: Board, transpose: bool, rows: tuple[int, ...],
                cols: tuple[int, ...]):
        n, side = board.n, board.side
        for lines in (rows, cols):
            if sorted(lines) != list(range(side)):
                raise ValueError("lines are not permuted")
            if any(lines[i] // n != lines[i - i % n] // n for i in range(side)):
                raise ValueError("line permutation splits a band or stack")
        return super().__new__(cls, board, transpose, rows, cols)

    @cached_property
    def cells(self) -> tuple[int, ...]:
        """cells[c] = the cell that cell c moves to: cell (r, c), read as
        (c, r) when transposed, goes to rows[r] * side + cols[c]."""
        starts = [r * self.board.side for r in self.rows]
        if self.transpose:
            return tuple(s + c for c in self.cols for s in starts)
        return tuple(s + c for s in starts for c in self.cols)

    @cached_property
    def labels(self) -> tuple[int, ...]:
        """labels[i] = the id of the region that region i moves to.  A line
        follows its line permutation, rows and columns exchanged when
        transposed; a box follows its band and stack."""
        n, side = self.board.n, self.board.side
        rows, cols = self.rows, tuple(side + c for c in self.cols)
        bands = [2 * side + r // n * n for r in self.rows[::n]]
        stacks = [c // n for c in self.cols[::n]]
        if self.transpose:
            return cols + rows + tuple(b + s for s in stacks for b in bands)
        return rows + cols + tuple(b + s for b in bands for s in stacks)

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

    def compose(self, other: "Symmetry") -> "Symmetry":
        """The symmetry acting as `other` first, then self."""
        first_rows, first_cols = ((other.cols, other.rows) if self.transpose
                                  else (other.rows, other.cols))
        return Symmetry(self.board, self.transpose != other.transpose,
                        tuple(self.rows[r] for r in first_rows),
                        tuple(self.cols[c] for c in first_cols))

    def move(self, grid: Grid) -> Grid:
        """The grid in which cell g(c) holds the value of cell c."""
        values = [0] * self.board.num_cells
        for cell, image in enumerate(self.cells):
            values[image] = grid.values[cell]
        return Grid(self.board, tuple(values))


def _line_swaps(board: Board, pairs, columns: bool = False) -> Symmetry:
    """Exchange each pair of 0-based rows (or columns) in `pairs`."""
    ident, lines = tuple(range(board.side)), list(range(board.side))
    for a, b in pairs:
        lines[a], lines[b] = lines[b], lines[a]
    moved = (ident, tuple(lines)) if columns else (tuple(lines), ident)
    return Symmetry(board, False, *moved)


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


@lru_cache(maxsize=None)
def _stack_moves(n: int) -> tuple[tuple[int, ...], ...]:
    """For each stack order tau, in _coarse's order, the box row (an n-bit
    integer, the first stack most significant) that each box row becomes."""
    return tuple(tuple(sum(1 << n - 1 - tau[s] for s in range(n)
                           if row >> n - 1 - s & 1) for row in range(1 << n))
                 for tau in permutations(range(n)))


def _fits(board: Board, source: int, target: int):
    """(coarse element g, g's image of source) for each g whose image keeps
    the target's present boxes and has, in no band or stack, fewer present
    lines than the target, in _coarse order.  Band and stack orders
    breaking the counts are dropped, and the boxes of each pair left are
    tested on box rows, band a's row moved by tau onto the target's row
    sigma(a), before any element is applied."""
    n, side = board.n, board.side
    coarse, moves = _coarse(n), _stack_moves(n)
    perms = list(permutations(range(n)))
    goal, need = _views(n, target)[0], _box_rows(n, target >> 2 * side)[0]
    for flag, (view, rows) in enumerate(zip(_views(n, source),
                                            _box_rows(n, source >> 2 * side))):
        bands, stacks = ([i for i, perm in enumerate(perms)
                          if all(map(ge, have, itemgetter(*perm)(want)))]
                         for have, want in zip(view, goal))
        moved = [(tau, [moves[tau][row] for row in rows]) for tau in stacks]
        for sigma in bands:
            wanted = itemgetter(*perms[sigma])(need)
            for tau, have in moved:
                if not any(w & ~h for w, h in zip(wanted, have)):
                    g = coarse[(flag * len(perms) + sigma) * len(perms) + tau]
                    yield g, g.apply_mask(source)


def _completion(g: Symmetry, image: int, source: int,
                target: int) -> Symmetry | None:
    """g of _fits, then in each band and stack the line permutation pairing
    the image's lines with the target's, both sorted present lines first,
    so that absent lines go onto absent lines; None unless absent(g(source))
    is then within absent(target), an equality for equal masks.  It moves
    boxes as g does."""
    board, n, side = g.board, g.board.n, g.board.side
    fix = [list(range(side)), list(range(side))]
    for at, perm in zip((0, side), fix):
        for chute in range(0, side, n):
            lines = range(chute, chute + n)
            src = sorted(lines, key=lambda i: not image >> at + i & 1)
            dst = sorted(lines, key=lambda i: not target >> at + i & 1)
            for a, b in zip(src, dst):
                perm[a] = b
    g = Symmetry(board, g.transpose, tuple(fix[0][r] for r in g.rows),
                 tuple(fix[1][c] for c in g.cols))
    return g if target & ~g.apply_mask(source) == 0 else None


def carrier(entry: ConstraintSet, cset: ConstraintSet) -> Symmetry | None:
    """A symmetry g with absent(g(entry)) within absent(cset), or None: the
    first completion of the elements of _fits, built one at a time.  Lines
    go to lines and boxes to boxes, so an entry with more absent lines or
    more absent boxes than the model has no carrier."""
    source, target, lines = entry.mask, cset.mask, 2 * cset.board.side
    if ((source & (1 << lines) - 1).bit_count()
            < (target & (1 << lines) - 1).bit_count()
            or (source >> lines).bit_count() < (target >> lines).bit_count()):
        return None
    return next((g for coarse, image in _fits(cset.board, source, target)
                 if (g := _completion(coarse, image, source, target))), None)


def stabilizer_generators(cset: ConstraintSet) -> tuple[Symmetry, ...]:
    """A generating set of the symmetries that map the model onto itself.

    Each coarse element of _fits from the model onto itself is known by its
    box permutation, which its completion keeps; the completion is built
    and kept only if that box permutation is not yet generated.  The
    transpositions of neighbouring lines of one band or stack, both present
    or both absent, are added.  Any symmetry fixing the model, followed by
    the inverse of the kept completions' product with its coarse part,
    permutes lines inside bands and stacks and fixes the model, so it is a
    product of those transpositions: the generators reach the whole
    stabilizer without enumerating it.
    """
    board, mask = cset.board, cset.mask
    n, side = board.n, board.side
    gens, reached = [], {tuple(range(2 * side, 3 * side))}
    for coarse, image in _fits(board, mask, mask):
        if (coarse.labels[2 * side:] not in reached
                and (g := _completion(coarse, image, mask, mask))):
            gens.append(g)
            frontier = list(reached)
            while frontier:
                boxes = frontier.pop()
                for h in gens:
                    moved = tuple(map(h.labels.__getitem__, boxes))
                    if moved not in reached:
                        reached.add(moved)
                        frontier.append(moved)
    for at, columns in ((0, False), (side, True)):
        for chute in range(0, side, n):
            lines = sorted(range(chute, chute + n),
                           key=lambda i: mask >> at + i & 1)
            gens += [_line_swaps(board, [(a, b)], columns)
                     for a, b in zip(lines, lines[1:])
                     if not (mask >> at + a ^ mask >> at + b) & 1]
    return tuple(gens)


def pair_orbits(cset: ConstraintSet, pairs) -> dict:
    """Orbits of cell pairs under the symmetries that fix the model.

    `pairs` holds (a, b) flat-index pairs with a < b and must be mapped onto
    itself by those symmetries, as the model's expanded pair set is.
    Returns, for each pair, (root, g, previous): root is the smallest pair
    of its orbit, and the generator g carries the pair `previous`, one step
    nearer the root, onto it; the root has (root, None, None).  A
    breadth-first search over stabilizer_generators builds each orbit;
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
    onto pair, composed from the steps pair_orbits recorded; each carry
    replaces its pair's step as one step from the root (path compression)."""
    root, g, previous = orbits[pair]
    if g is None:
        return _coarse(board.n)[0]  # the identity, built once per order
    if previous != root:
        g = g.compose(carry_from_root(board, orbits, previous))
        orbits[pair] = (root, g, root)
    return g


# --- canonical forms -------------------------------------------------------
#
# Every group element is a coarse element followed by line permutations
# inside each band and stack.  Those act on disjoint segments of the line
# ids, so over the elements sharing one coarse part the lexicographically
# smallest presence vector puts each segment's absent lines first, and the
# minimum over the group is the minimum over the 2 * (n!)^2 coarse elements.
# Keys pack R1 as the most significant bit.  A coarse image's row part
# depends only on the transpose flag and the band permutation, and is
# smallest with the bands' present counts ascending; its column part
# likewise on the flag and the stack permutation.  So _canonical_key finds
# the minimum in stages: rows, then columns, then the box bits of the
# elements left.  Caches filled on first use hold each line pattern's
# stages, each box pattern's rows and each count tuple's sorting orders.


@lru_cache(maxsize=None)
def _box_rows(n: int, boxes: int) -> tuple[tuple[int, ...], ...]:
    """Box rows of the model and of its transpose, as n-bit integers: row a
    holds band a's boxes, the first most significant."""
    text = f"{boxes:0{n * n}b}"[::-1]  # B1 first
    return (tuple(int(text[a * n:a * n + n], 2) for a in range(n)),
            tuple(int(text[b::n], 2) for b in range(n)))


@lru_cache(maxsize=None)
def _sorts(counts: tuple[int, ...]):
    """The counts ascending, and for each order tau sorting them (tau[j] is
    the chute put j-th), a table of count << n | box row read in its order."""
    n, head = len(counts), tuple(sorted(counts))
    picks = [itemgetter(*tau) for tau in permutations(range(n))]
    reads = [[int("".join(pick(f"{row:0{n}b}")), 2) for row in range(1 << n)]
             for pick in picks if pick(counts) == head]
    return head, tuple(tuple(count << n | row for count in range(n + 1)
                             for row in read) for read in reads)


def _views(n: int, mask: int):
    """(present lines per band, per stack) of the model and of its
    transpose, whose rows come from the stacks."""
    seg = (1 << n) - 1
    counts = tuple((mask >> k * n & seg).bit_count() for k in range(2 * n))
    return (counts[:n], counts[n:]), (counts[n:], counts[:n])


@lru_cache(maxsize=None)
def _line_views(n: int, lines: int):
    """The key's line bits, each segment's absent lines first, from the
    smallest (sorted band counts, sorted stack counts) over the views; the
    line arrangements times 2 * (n!)^2 (see orbit_size); and for each view
    reaching them, its flag, band counts << n and stack tables."""
    views = [(_sorts(rows), _sorts(cols), flag, tuple(c << n for c in rows))
             for flag, (rows, cols) in enumerate(_views(n, lines))]
    head = min((rows[0], cols[0]) for rows, cols, _, _ in views)
    key = int("".join(f"{(1 << p) - 1:0{n}b}" for p in head[0] + head[1]), 2)
    scale = prod(comb(n, p) for p in head[0] + head[1]) * 2 * factorial(n) ** 2
    return key, scale, tuple((flag, shifted, tables)
                             for (row_head, _), (col_head, tables), flag,
                             shifted in views if (row_head, col_head) == head)


def _canonical_key(n: int, mask: int, sizes: dict | None = None) -> int:
    """The line bits of _line_views, then the box rows of the smallest
    candidate: for each view and stack order left, the view's bands read
    in that order and sorted, its smallest image, since bands of equal
    count may come in any order.  A key not yet in `sizes` gets its orbit
    size there, counted from the same candidates (see orbit_size)."""
    key, scale, views = _line_views(n, mask & (1 << 2 * n * n) - 1)
    boxes = _box_rows(n, mask >> 2 * n * n)
    candidates = [sorted(map(table.__getitem__, map(or_, shifted, boxes[flag])))
                  for flag, shifted, tables in views for table in tables]
    best = min(candidates)
    for band in best:
        key = key << n | band & (1 << n) - 1
    if sizes is not None and key not in sizes:
        sizes[key] = scale // (candidates.count(best) * prod(
            factorial(len(list(same))) for _, same in groupby(best)))
    return key


def _key_to_mask(key: int, num_big: int) -> int:
    return int(f"{key:0{num_big}b}"[::-1], 2)


def group_images(cset: ConstraintSet) -> frozenset[int]:
    """Presence masks of every image of the model under the group: each
    coarse image with every arrangement of each segment's lines.  The
    oracle that tests and perfbench/check.py compare orbit_size with."""
    n, side = cset.board.n, cset.board.side
    seg = (1 << n) - 1
    pats = [[p for p in range(1 << n) if p.bit_count() == k]
            for k in range(n + 1)]
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
    when their keys agree and none otherwise, so the orbit holds that
    product times the number of distinct keys, which is 2 * (n!)^2 over the
    number of coarse elements that fix the model's segment counts and box
    rows.  As many carry the model onto its key: for each smallest
    candidate of _canonical_key, the band orders that permute its equal
    bands.  The sweep gets each class's size from the call keying it."""
    sizes = {}
    _canonical_key(cset.board.n, cset.mask, sizes)
    return sizes.popitem()[1]
