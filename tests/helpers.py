"""Shared test utilities: brute-force references for the solver, for
class enumeration and for catalog coverage, and small readers of the
program's results that only tests use."""

from itertools import combinations, product
from math import factorial

from redoku.board import Board, ConstraintSet, verify_grid, Grid
from redoku.pipeline import (NOT_SUDOKU, SUDOKU, _level, enumerate_classes,
                             minimal_catalog)
from redoku.rewrite import _chute_tables, _step_for_chute
from redoku.solver import SolverProblem
from redoku.symmetry import (Symmetry, _canonical_key, _coarse, _completion,
                             _fits, _key_to_mask, _line_swaps, canonical_key,
                             group_images)


def pattern_solution(board: Board, shift: int = 0) -> Grid:
    """A complete valid grid built by the cyclic offset pattern.

    value(r, c) = ((r-1)*n + (r-1)//n + (c-1) + shift) mod n^2 + 1 places
    each value once per row, column, and box for any order.
    """
    n, side = board.n, board.side
    vals = []
    for r in range(side):
        for c in range(side):
            vals.append((r * n + r // n + c + shift) % side + 1)
    return Grid(board, tuple(vals))


def group_order(board: Board) -> int:
    f = factorial(board.n)
    return 2 * (f * f ** board.n) ** 2


def generators(board: Board) -> tuple[Symmetry, ...]:
    """A generating set of the whole group: transpose, adjacent band and
    stack swaps, and adjacent line swaps inside each band and stack; the
    breadth-first oracle of orbits and random group elements."""
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


def inverse(g: Symmetry) -> Symmetry:
    """The symmetry undoing g: g.compose(inverse(g)) is the identity."""
    rows, cols = (tuple(sorted(range(len(lines)), key=lines.__getitem__))
                  for lines in (g.rows, g.cols))
    if g.transpose:
        rows, cols = cols, rows
    return Symmetry(g.board, g.transpose, rows, cols)


def image_key(n: int, image: int) -> int:
    """Packed key of a coarse image, each segment's absent lines first."""
    side = n * n
    seg = (1 << n) - 1
    key = 0
    for k in range(2 * n):  # row bands, then column stacks
        present = (image >> k * n & seg).bit_count()
        key |= ((1 << present) - 1) << 3 * side - k * n - n
    # Boxes keep their presence bits, B1 most significant.
    return key | int(f"{image >> 2 * side:0{side}b}"[::-1], 2)


def completions(board: Board, source: int, target: int) -> list:
    """Every symmetry g with absent(g(source)) within absent(target) that
    symmetry.carrier may return, at most one per coarse element, in the
    order carrier tries them: the completion of each element of _fits."""
    return [g for coarse, image in _fits(board, source, target)
            if (g := _completion(coarse, image, source, target))]


def unfiltered_completions(board: Board, source: int, target: int):
    """Completions of source into target by a walk over every coarse
    element in _coarse order, each applied before any test; the reference
    for the counts prefilter of symmetry._fits."""
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


def canonicalize(cset: ConstraintSet) -> ConstraintSet:
    """Class representative: the group image with the smallest presence vector."""
    return ConstraintSet(
        cset.board, _key_to_mask(canonical_key(cset), cset.board.num_big))


def applicable_steps(cset: ConstraintSet):
    """Lemma steps that fire on the model right now, in chute order H1..Vn."""
    steps = []
    for ch, lmask, bmask in _chute_tables(cset.board.n):
        step = _step_for_chute(cset.mask, ch, lmask, bmask)
        if step is not None:
            steps.append(step)
    return tuple(steps)


def class_orbit_sizes(board: Board, n_missing: int) -> tuple[int, ...]:
    """Raw set count per class, aligned with enumerate_classes order."""
    return tuple(r.orbit_size for r in _level(board.n, n_missing)[0])


def brute_force_satisfiable(problem: SolverProblem) -> bool:
    """Exhaustive satisfiability check; only sane for order-2 boards.

    Enumerates every assignment of the free cells and tests the full
    problem semantics, with no propagation or pruning shortcuts shared
    with the real solver.
    """
    board = problem.board
    side = board.side
    givens = problem.givens.values if problem.givens else (0,) * board.num_cells
    free = [i for i in range(board.num_cells) if not givens[i]]
    values = list(givens)
    for combo in product(range(1, side + 1), repeat=len(free)):
        for cell, val in zip(free, combo):
            values[cell] = val
        grid = Grid(board, tuple(values))
        if verify_grid(grid, problem.bigs):
            continue
        if any(values[a] == values[b] for a, b in problem.extra_smalls):
            continue
        if any(values[a] != values[b] for a, b in problem.equalities):
            continue
        return True
    return False


def brute_force_classes(board: Board, n_missing: int):
    """Class representatives and raw counts by canonicalizing every
    missing-id combination, in order of first appearance.

    Returns (masks, counts); costs one canonical key per raw model, so it
    is only sane for small levels.
    """
    counts = {}
    for missing in combinations(range(board.num_big), n_missing):
        mask = board.full_mask
        for cid in missing:
            mask &= ~(1 << cid)
        key = _canonical_key(board.n, mask)
        counts[key] = counts.get(key, 0) + 1
    masks = [_key_to_mask(key, board.num_big) for key in counts]
    return masks, list(counts.values())


def covers(entry_images, mask: int) -> bool:
    """A model is covered when some image of the entry keeps at most the
    model's own constraints: absent(image) within absent(model)."""
    return any(mask & ~image == 0 for image in entry_images)


def derive_from_catalog(board: Board, n_missing: int, catalog=None):
    """Classify without any closure: match raw masks against the catalog.

    A class whose absent set contains some catalog image's absent set is
    not Sudoku (dropping constraints never restores solutions); anything
    unmatched is claimed Sudoku.  Sound on its negative side everywhere,
    and complete on the horizon the catalog was built for, this gives an
    independent route to the same split as run_classification.
    """
    if catalog is None:
        catalog = minimal_catalog(board, max(2, n_missing))
    images = [group_images(entry.cset) for entry in catalog]
    out = {SUDOKU: [], NOT_SUDOKU: []}
    for cset in enumerate_classes(board, n_missing):
        matched = any(covers(imgs, cset.mask) for imgs in images)
        out[NOT_SUDOKU if matched else SUDOKU].append(cset)
    return out
