# Binary-inequality view of constraint models: expanding big constraints to
# deduplicated cell-pair inequalities, counting them, and probing whether a
# pair can be dropped without weakening the model: a closure certificate
# proves it can, a witness grid from a value swap that it cannot; only a
# corpus-seeded probe searches.  A probe splits its base into whole regions
# and leftover pairs once; the Rest of every pair it tries comes from that.

import random
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .board import Board, ConstraintSet, Grid, region_cells
from .rewrite import closure
from .solver import SolverProblem, solve_equal, value_swap
from .symmetry import carry_from_root, pair_orbits

CONFIRMED_NEEDED = "confirmed-needed"
REDUNDANT = "redundant"
INCONCLUSIVE = "inconclusive"
SEARCH = "search"
CLOSURE = "closure"
UNDECIDED = "undecided"


def pair_cells(board: Board, pair) -> tuple[tuple[int, int], tuple[int, int]]:
    """The 1-based (row, col) cells of a flat pair, for output."""
    a, b = pair
    return board.cell_coords(a), board.cell_coords(b)


@lru_cache(maxsize=None)
def _region_pairs(n: int) -> tuple[frozenset, ...]:
    board = Board(n)
    return tuple(frozenset(combinations(region_cells(cid, board), 2))
                 for cid in range(board.num_big))


def expand_small(cset: ConstraintSet) -> frozenset:
    """All cell-pair inequalities implied by the present big constraints.

    Pairs inside several present regions (a line and a box overlap in n
    cells) appear once.
    """
    tables = _region_pairs(cset.board.n)
    pairs = set()
    for cid in cset.present_ids:
        pairs |= tables[cid]
    return frozenset(pairs)


def small_count_range(classes):
    """Extremes of the expanded-pair count over a list of models.

    Returns (min_count, max_count, argmin, argmax) where the arg slots hold
    every input model attaining that extreme, in input order.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("small_count_range needs at least one model")
    counts = [len(expand_small(c)) for c in classes]
    lo, hi = min(counts), max(counts)
    return lo, hi, *(tuple(c for c, k in zip(classes, counts) if k == end)
                     for end in (lo, hi))


def sample_probes(base, count: int, seed: int = 0) -> list:
    """Deterministic seeded sample of pairs from a small-constraint set."""
    ordered = sorted(base)
    if count >= len(ordered):
        return ordered
    return sorted(random.Random(seed).sample(ordered, count))


def _decompose(board: Board, rest: frozenset):
    # Split a pair set into whole regions, over which the solver propagates
    # region-wise, plus leftover pairs.
    whole = sum(1 << cid for cid, pairs in enumerate(_region_pairs(board.n))
                if pairs <= rest)
    holders = _pair_regions(board.n)
    return ConstraintSet(board, whole), tuple(sorted(
        p for p in rest if not holders.get(p, 0) & whole))


@lru_cache(maxsize=None)
def _pair_regions(n: int) -> dict:
    """Pair of cells sharing a region -> mask of the regions holding it."""
    holders = {}
    for cid, pairs in enumerate(_region_pairs(n)):
        for pair in pairs:
            holders[pair] = holders.get(pair, 0) | 1 << cid
    return holders


def _without(board: Board, split, pair):
    """_decompose(board, base - {pair}), from split = _decompose(board, base)
    and a pair of base: the regions holding the pair stop being whole, and
    their pairs that no region still whole covers join the leftovers."""
    (bigs, extras), holders = split, _pair_regions(board.n)
    whole = bigs.mask & ~holders.get(pair, 0)
    freed = {p for cid, pairs in enumerate(_region_pairs(board.n))
             if (bigs.mask ^ whole) >> cid & 1
             for p in pairs if not holders[p] & whole}
    return ConstraintSet(board, whole), tuple(sorted(freed.union(extras)
                                                     - {pair}))


def _closed_rest(board: Board, base, split, pair):
    """Rest = `base` minus `pair`, split (_without), its whole regions closed
    under the chute lemmas: (closed bigs, leftovers, certificate).

    The lemmas are entailments, so the closed Rest admits exactly Rest's
    grids.  A re-derived region holding both cells of the pair proves that
    Rest keeps them apart; the certificate is that region's label and the
    rendered closure trace up to its derivation, else None.
    """
    if pair not in base:
        raise ValueError(f"probe pair {pair} is not in the base set")
    bigs, extras = _without(board, split, pair)
    closed, trace = closure(bigs)
    for end, step in enumerate(trace, 1):
        if set(pair) <= set(region_cells(step.derived, board)):
            return closed, extras, (board.id_label(step.derived),
                                    tuple(s.render(board) for s in trace[:end]))
    return closed, extras, None


class ProbeRecord(NamedTuple):
    """Outcome of one equality probe against a pair of a small set."""

    pair: tuple[int, int]
    verdict: str
    witness: Grid | None
    nodes: int
    propagations: int
    seed_index: int | None = None
    # CLOSURE, "swap:" and the grid index of solver.value_swap, UNDECIDED,
    # SEARCH (corpus probes only), or "transported:" and "r1,c1-r2,c2"
    # naming the pair whose witness was moved onto this one (see _share).
    provenance: str = SEARCH
    # REDUNDANT only: (region label, rendered trace), see _closed_rest.
    certificate: tuple[str, tuple[str, ...]] | None = None

    def to_json_dict(self, board: Board) -> dict:
        cells, certificate = pair_cells(board, self.pair), self.certificate
        return {
            "pair": [list(cells[0]), list(cells[1])],
            "verdict": self.verdict,
            "witness": self.witness.to_line() if self.witness else None,
            "nodes": self.nodes,
            "propagations": self.propagations,
            "seed_index": self.seed_index,
            "provenance": self.provenance,
            "certificate": certificate and {"region": certificate[0],
                                            "trace": list(certificate[1])},
        }


def _certified(pair, certificate) -> ProbeRecord:
    return ProbeRecord(pair, REDUNDANT, None, 0, 0, provenance=CLOSURE,
                       certificate=certificate)


@lru_cache(maxsize=4)
def _partners(base: frozenset, cells: int) -> list:
    # For each cell a, the mask of the cells b with (a, b) in base.
    partners = [0] * cells
    for a, b in base:
        partners[a] |= 1 << b
    return partners


def _needed(base, pair, witness: Grid, provenance: str) -> ProbeRecord:
    # A swapped or moved witness must make exactly the probed pair equal:
    # each cell's partners are matched against the mask of its value's cells.
    values, same = witness.values, [0] * (witness.board.side + 1)
    for cell, value in enumerate(values):
        same[value] |= 1 << cell
    partners = zip(_partners(frozenset(base), len(values)), values)
    if values[pair[0]] != values[pair[1]] or sum(
            [(m & same[v]).bit_count() for m, v in partners]) != 1:
        equal = [p for p in base if values[p[0]] == values[p[1]]]
        raise RuntimeError(f"witness for pair {pair} ({provenance}) makes "
                           f"pairs {equal[:3]} equal")
    return ProbeRecord(pair, CONFIRMED_NEEDED, witness, 0, 0,
                       provenance=provenance)


DEFAULT_PROBE_BUDGET = 200_000


def probe_pair(board: Board, base, pair, corpus=None,
               budget: int = DEFAULT_PROBE_BUDGET, orbit=(),
               split=None) -> ProbeRecord:
    """Test one pair of `base`: can the remaining pairs still force it apart?

    Builds Rest = base minus the pair from `split`, base's _decompose (made
    here if not given), and closes its whole regions under the chute
    lemmas (_closed_rest).  If a re-derived region holds both cells, Rest
    entails the pair: the verdict is `redundant`, after no search, and the
    record carries the closure certificate.  On the blank board, a value
    swap (solver.value_swap) through the whole regions and leftover pairs
    of Rest that makes the pair equal confirms it as needed, after no
    search: tried grid-major over the pairs of `orbit`, pairs whose probes
    a symmetry maps onto this one's, else on the pair, each pair's Rest
    derived from `split` only when its turn first comes, and the record is
    the confirmed pair's; failing both, the pair is inconclusive,
    `undecided`, after no search.  A swap keeps no givens, so a `corpus`
    skips it: solver.solve_equal races its puzzles, unpinned, on the closed
    Rest, each on an equal share of `budget`; `seed_index` names the one
    that solved, and no grid, which proves nothing, is inconclusive.
    """
    if corpus and budget < len(corpus):
        raise ValueError(f"node budget {budget} is below the corpus size "
                         f"{len(corpus)}: every puzzle needs a node")
    pair, split = tuple(pair), split or _decompose(board, base)
    bigs, extras, certificate = _closed_rest(board, base, split, pair)
    if certificate:
        return _certified(pair, certificate)
    if not corpus:
        mates = orbit or [pair]
        found = value_swap((*_without(board, split, mate), [mate])
                           for mate in mates)
        if not found:
            return ProbeRecord(pair, INCONCLUSIVE, None, 0, 0,
                               provenance=UNDECIDED)
        index, k, grid = found
        return _needed(base, mates[k], grid, f"swap:{index}")
    outcome, index = solve_equal(
        (SolverProblem(bigs, extras, (pair,), givens) for givens in corpus),
        budget // len(corpus))
    verdict = CONFIRMED_NEEDED if outcome.is_solution else INCONCLUSIVE
    return ProbeRecord(pair, verdict, outcome.grid, outcome.stats.nodes,
                       outcome.stats.propagations, index)


def probe_minimality(board: Board, base, probes, corpus=None,
                     budget: int = DEFAULT_PROBE_BUDGET) -> list:
    """Probe a selection of pairs; the records keep the given order.

    When `base` is the expansion of a model and no corpus is given, a
    symmetry fixing the model maps the probe of one pair onto the probe of
    its image, and the closure of its Rest onto the closure of the image's,
    so the requested pairs of one orbit share one probe: the first is
    probed, its swaps tried grid-major over the pairs of the orbit, root
    first, and its record speaks for them all (_share).  In a certified
    orbit every pair gets its own certificate.  Corpus givens break the
    symmetry, so with a corpus, as for a `base` that is not a model
    expansion, every pair gets its own probe; `budget` bounds those alone.
    """
    base = frozenset(base)
    probes = [tuple(pair) for pair in probes]
    split = _decompose(board, base)
    if corpus or split[1]:
        return [probe_pair(board, base, pair, corpus=corpus, budget=budget,
                           split=split) for pair in probes]
    orbits, mates, members = pair_orbits(split[0], base), {}, {}
    for pair, (root, _, _) in orbits.items():  # root -> its orbit, in order
        mates.setdefault(root, []).append(pair)
    for pair in dict.fromkeys(probes):  # root -> its requested pairs
        # A pair outside `base` is its own root; probe_pair rejects it.
        members.setdefault(orbits.get(pair, (pair,))[0], []).append(pair)
    probed = {root: probe_pair(board, base, pairs[0], budget=budget,
                               orbit=mates.get(root, ()), split=split)
              for root, pairs in members.items()}
    return [_share(board, base, split, probed[orbits[pair][0]], orbits,
                   pair) for pair in probes]


def _share(board: Board, base, split, source: ProbeRecord, orbits,
           pair) -> ProbeRecord:
    """The record of `pair` in the orbit probe whose record is `source`:
    source itself for its own pair; if source was certified, the closure
    certificate of `pair`'s own Rest; if source is undecided, source's
    record with `pair` in it; if source was confirmed, its witness moved
    by the symmetry that carries source's pair onto `pair`: cell
    to_pair(c) takes the value of cell to_source(c), where to_source and
    to_pair carry the orbit's root onto the two pairs.
    """
    if source.pair == pair:
        return source
    if source.verdict == REDUNDANT:
        certificate = _closed_rest(board, base, split, pair)[2]
        if certificate is None:
            raise RuntimeError(f"closure certifies pair {source.pair} but "
                               f"not its orbit mate {pair}")
        return _certified(pair, certificate)
    if source.verdict != CONFIRMED_NEEDED:
        return source._replace(pair=pair)
    (r1, c1), (r2, c2) = pair_cells(board, source.pair)
    to_source = carry_from_root(board, orbits, source.pair)
    values, moved = source.witness.values, [0] * board.num_cells
    for cell, image in zip(to_source.cells,
                           carry_from_root(board, orbits, pair).cells):
        moved[image] = values[cell]
    return _needed(base, pair, Grid(board, tuple(moved)),
                   f"transported:{r1},{c1}-{r2},{c2}")
