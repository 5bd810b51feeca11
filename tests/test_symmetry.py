import random

import pytest

from collections import Counter
from itertools import combinations, permutations, product
from math import comb, prod

import redoku.symmetry
from redoku.board import (Board, ConstraintSet, parse_missing, region_cells,
                          verify_grid)
from redoku.pipeline import _level, enumerate_classes
from redoku.smalls import expand_small, sample_probes
from redoku.symmetry import (Symmetry, _canonical_key, _coarse,
                             _key_to_mask, canonical_key, carrier,
                             carry_from_root, group_images,
                             orbit_size, pair_orbits, stabilizer_generators)

from helpers import (canonicalize, completions, covers, generators,
                     group_order, image_key, inverse, pattern_solution,
                     unfiltered_completions)


def bfs_walk(cset):
    """Yield the orbit of a mask under the generator closure, by plain BFS,
    each mask once; a membership test stops as soon as it meets its mask.

    Independent of the canonical-form machinery; used as an oracle.
    """
    gens = generators(cset.board)
    seen = {cset.mask}
    frontier = [cset.mask]
    yield cset.mask
    while frontier:
        nxt = []
        for mask in frontier:
            for g in gens:
                image = g.apply_mask(mask)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
                    yield image
        frontier = nxt


def bfs_orbit(cset):
    return frozenset(bfs_walk(cset))


def identity(board):
    ident = tuple(range(board.side))
    return Symmetry(board, False, ident, ident)


def swaps(board, pairs, columns=False):
    """Exchange each pair of 0-based rows (or columns) in `pairs`."""
    ident = tuple(range(board.side))
    lines = list(ident)
    for a, b in pairs:
        lines[a], lines[b] = lines[b], lines[a]
    if columns:
        return Symmetry(board, False, ident, tuple(lines))
    return Symmetry(board, False, tuple(lines), ident)


def random_element(board, rng, length=12):
    gens = generators(board)
    elem = identity(board)
    for _ in range(length):
        elem = elem.compose(rng.choice(gens))
    return elem


def moved(board, g, label):
    return board.id_label(g.labels[board.parse_label(label)])


def test_group_order(board, board2):
    assert group_order(board) == 3_359_232
    assert group_order(board2) == 2 * (2 * 2 ** 2) ** 2


def test_generators_are_permutations(board):
    for g in generators(board):
        assert sorted(g.labels) == list(range(27))
        gg = g.compose(g)
        assert gg.labels == tuple(range(27))  # all generators are involutions
        assert gg == identity(board)


def test_transpose_maps_kinds(board):
    ident = tuple(range(9))
    t = Symmetry(board, True, ident, ident)
    assert moved(board, t, "R3") == "C3"
    assert moved(board, t, "C7") == "R7"
    assert moved(board, t, "B2") == "B4"
    assert moved(board, t, "B5") == "B5"


def test_band_and_stack_swaps(board):
    b = swaps(board, [(r, r + 6) for r in range(3)])  # bands 1 and 3
    assert moved(board, b, "R1") == "R7"
    assert moved(board, b, "B2") == "B8"
    assert moved(board, b, "C4") == "C4"
    # stacks 2 and 3
    s = swaps(board, [(c, c + 3) for c in range(3, 6)], columns=True)
    assert moved(board, s, "C4") == "C7"
    assert moved(board, s, "B5") == "B6"
    assert moved(board, s, "R9") == "R9"


def test_line_swaps_stay_inside_chutes(board):
    r = swaps(board, [(3, 5)])
    assert moved(board, r, "R4") == "R6"
    with pytest.raises(ValueError):
        swaps(board, [(2, 3)])  # rows 3 and 4
    with pytest.raises(ValueError):
        swaps(board, [(0, 8)], columns=True)  # columns 1 and 9


def test_inverse_and_compose(board):
    rng = random.Random(5)
    for _ in range(20):
        g = random_element(board, rng)
        gi = g.compose(inverse(g))
        assert gi.labels == tuple(range(27))
        assert gi == inverse(g).compose(g) == identity(board)


def test_orbit_sizes_match_bfs(board):
    for text, expect in (("R1", 18), ("B1", 9), ("R1,R2", 18),
                         ("R1,C1,B1", None), ("B1,B2,B4,B5", None)):
        cset = parse_missing(board, text)
        orbit = bfs_orbit(cset)
        assert orbit_size(cset) == len(orbit)
        if expect is not None:
            assert len(orbit) == expect
        assert group_images(cset) == orbit


@pytest.mark.parametrize("order, top", [(2, 12), (3, 7)])
def test_counted_orbit_sizes_match_images(order, top):
    # Each class and one random image of it, which need not list each
    # segment's absent lines first as the class does.
    board = Board(order)
    rng = random.Random(43)
    for k in range(top + 1):
        for cset in enumerate_classes(board, k):
            size = len(group_images(cset))
            assert orbit_size(cset) == size
            assert orbit_size(random_element(board, rng).apply(cset)) == size


def coarse_image_orbit_size(cset):
    """The orbit size as distinct coarse images of the arrangement with
    each segment's absent lines first, times the line arrangements."""
    n, mask = cset.board.n, cset.mask
    seg = (1 << n) - 1
    arrangements = prod(comb(n, (mask >> shift & seg).bit_count())
                        for shift in range(0, 2 * n * n, n))
    first = _key_to_mask(image_key(n, mask), cset.board.num_big)
    return arrangements * len({g.apply_mask(first) for g in _coarse(n)})


def test_stabilizer_orbit_sizes_match_coarse_images():
    # Random order-4 models, and order-3 models with large stabilizers:
    # transpose-symmetric ones, and ones whose bands' counts tie.
    board4, board3 = Board(4), Board(3)
    rng = random.Random(47)
    csets = []
    for _ in range(200):
        missing = rng.sample(range(board4.num_big), rng.randint(1, 10))
        csets.append(ConstraintSet.from_missing(board4, missing))
    csets += [ConstraintSet.full(board3), ConstraintSet.full(board4)]
    csets += [parse_missing(board3, text) for text in (
        "R1,C1", "R1,R4,R7,C1,C4,C7", "R2,R5,R8,C2,C5,C8", "B1,B5,B9",
        "B1,B2,B4,B5", "R1,R4,R7", "R1,C1,B1,B5,B9")]
    for cset in csets:
        assert orbit_size(cset) == coarse_image_orbit_size(cset)
        if cset.board.n == 3:
            assert orbit_size(cset) == len(group_images(cset))


def test_single_box_orbits_agree(board):
    # Band and stack swaps carry any one box to any other, so every
    # single-box model shares one orbit of size 9.
    assert canonical_key(parse_missing(board, "B5")) == canonical_key(
        parse_missing(board, "B1"))
    cset = parse_missing(board, "B5")
    assert orbit_size(cset) == len(bfs_orbit(cset)) == 9


def test_symmetric_probe_set_orbit(board):
    # The fully symmetric line set is fixed by transposition *and* every
    # band/stack permutation composed with matching line swaps, so its
    # orbit collapses to within-chute line choices: 3^6 / overcounting.
    cset = parse_missing(board, "R2,R5,R8,C2,C5,C8")
    assert orbit_size(cset) == len(bfs_orbit(cset)) == 729


def test_canonical_key_constant_on_orbits(board):
    rng = random.Random(11)
    for trial in range(25):
        mask = rng.getrandbits(27)
        cset = ConstraintSet(board, mask)
        key = canonical_key(cset)
        for _ in range(8):
            g = random_element(board, rng)
            assert canonical_key(g.apply(cset)) == key


def test_canonicalize_is_idempotent_and_in_orbit(board):
    rng = random.Random(13)
    for trial in range(25):
        mask = rng.getrandbits(27)
        cset = ConstraintSet(board, mask)
        canon = canonicalize(cset)
        assert canonicalize(canon) == canon
        assert canon.mask in bfs_walk(cset)
        assert canonical_key(canon) == canonical_key(cset)


def test_canonical_key_separates_orbits(board):
    # Same missing-count, provably different orbits: a missing row versus
    # a missing box.
    a = parse_missing(board, "R1")
    b = parse_missing(board, "B1")
    assert canonical_key(a) != canonical_key(b)
    assert group_images(a).isdisjoint(group_images(b))


def test_order_two_group(board2):
    cset = parse_missing(board2, "R1")
    assert orbit_size(cset) == len(bfs_orbit(cset)) == 8
    full = ConstraintSet.full(board2)
    assert orbit_size(full) == 1


def orbit_sizes(cset):
    orbits = pair_orbits(cset, expand_small(cset))
    return sorted(Counter(root for root, *_ in orbits.values()).values())


def test_probe_model_pair_orbits(board):
    # The stabilizer of R2,R5,R8,C2,C5,C8 (order 4,608) splits its 648
    # pairs into 11 orbits, and the benchmark's 64-pair draw meets them all.
    cset = parse_missing(board, "R2,R5,R8,C2,C5,C8")
    base = expand_small(cset)
    sizes = orbit_sizes(cset)
    assert len(sizes) == 11 and sum(sizes) == 648
    orbits = pair_orbits(cset, base)
    draw = sample_probes(base, 64, seed=1542757380)
    assert len({orbits[pair][0] for pair in draw}) == 11


def test_full_model_pair_orbits(board):
    # Pairs sharing a line and a box, a line only, or a box only.
    assert orbit_sizes(ConstraintSet.full(board)) == [162, 162, 486]


def test_orbit_carriers_fix_the_model(board):
    cset = parse_missing(board, "R2,R5,R8,C2,C5,C8")
    present = {frozenset(region_cells(cid, board)) for cid in cset.present_ids}
    orbits = pair_orbits(cset, expand_small(cset))
    for pair, (root, *_) in orbits.items():
        g = carry_from_root(board, orbits, pair)
        assert g.apply(cset) == cset
        cells = g.cells
        assert tuple(sorted((cells[root[0]], cells[root[1]]))) == pair
        for region in present:
            assert frozenset(cells[c] for c in region) in present


def test_each_carry_is_composed_once(board, monkeypatch):
    # carry_from_root writes each carry back as one step from the root, so
    # carrying every pair composes one symmetry per pair that is not a root,
    # and a second round composes none.
    cset = parse_missing(board, "R2,R5,R8,C2,C5,C8")
    orbits = pair_orbits(cset, expand_small(cset))
    composed, real = [], Symmetry.compose

    def compose(self, other):
        composed.append(other)
        return real(self, other)
    monkeypatch.setattr(Symmetry, "compose", compose)
    carries = [carry_from_root(board, orbits, pair) for pair in sorted(orbits)]
    assert len(composed) <= len(orbits) - 11
    assert [carry_from_root(board, orbits, pair)
            for pair in sorted(orbits)] == carries
    assert len(composed) <= len(orbits) - 11


def test_stabilizer_generators_act_on_regions(board):
    rng = random.Random(17)
    models = [parse_missing(board, "R2,R5,R8,C2,C5,C8"),
              ConstraintSet.full(board), parse_missing(board, "R1,C1,B1")]
    models += [ConstraintSet(board, rng.getrandbits(27)) for _ in range(4)]
    for cset in models:
        gens = stabilizer_generators(cset)
        assert gens
        for g in gens:
            assert g.apply(cset) == cset
            for cid in range(board.num_big):
                image = {g.cells[c] for c in region_cells(cid, board)}
                assert image == set(region_cells(g.labels[cid], board))


def every_completion(cset):
    """The stabilizer generators before pruning: one completion per coarse
    element that fixes the model, and every transposition of two lines of
    one band or stack that are both present or both absent."""
    board, mask = cset.board, cset.mask
    n, side = board.n, board.side
    gens = completions(board, mask, mask)
    for at, columns in ((0, False), (side, True)):
        for chute in range(0, side, n):
            for a, b in combinations(range(chute, chute + n), 2):
                if not (mask >> at + a ^ mask >> at + b) & 1:
                    gens.append(swaps(board, [(a, b)], columns))
    return gens


def roots_under(gens, pairs):
    """Each pair's smallest orbit mate under the group the gens generate."""
    roots = {}
    for pair in sorted(pairs):
        if pair in roots:
            continue
        roots[pair], frontier = pair, [pair]
        while frontier:
            a, b = frontier.pop()
            for g in gens:
                image = tuple(sorted((g.cells[a], g.cells[b])))
                if image not in roots:
                    roots[image] = pair
                    frontier.append(image)
    return roots


def test_pruned_generators_give_the_same_pair_orbits(board):
    # A completion is kept only if its coarse part is new, and only
    # transpositions of neighbouring same-status lines are kept: the 648-pair
    # model goes from 78 generators to 11 and the full model from 90 to 17
    # (order 4: 1,200 to 31), with the orbits of every completion.
    rng = random.Random(29)
    models = [ConstraintSet.full(board),
              parse_missing(board, "R2,R5,R8,C2,C5,C8"),
              parse_missing(board, "R1,B1,B4,B5,B8,B9")]
    models += [ConstraintSet(board, rng.getrandbits(27)) for _ in range(4)]
    models.append(ConstraintSet.full(Board(4)))
    for cset in models:
        pairs = expand_small(cset)
        got = {pair: step[0] for pair, step in pair_orbits(cset, pairs).items()}
        assert got == roots_under(every_completion(cset), pairs)
    counts = [(len(stabilizer_generators(cset)), len(every_completion(cset)))
              for cset in (models[1], models[0], models[-1])]
    assert counts == [(11, 78), (17, 90), (31, 1_200)]


def test_stabilizer_builds_only_the_kept_completions(board, monkeypatch):
    # A coarse element's box permutation is known before its completion is
    # built, so only the kept completions are: 5 of the 72 coarse elements
    # for the 648-pair model and for the full model, 7 of 1,152 at order 4.
    built = []

    def completion(*args):
        built.append(real(*args))
        return built[-1]
    real = redoku.symmetry._completion
    monkeypatch.setattr(redoku.symmetry, "_completion", completion)
    counts = []
    for cset in (parse_missing(board, "R2,R5,R8,C2,C5,C8"),
                 ConstraintSet.full(board), ConstraintSet.full(Board(4))):
        built.clear()
        gens = stabilizer_generators(cset)
        assert built == list(gens[:len(built)])
        counts.append(len(built))
    assert counts == [5, 5, 7]


def random_lines(n, rng):
    """A random line permutation that keeps each band (or stack) whole."""
    chutes = rng.sample(range(n), n)
    return tuple(chute * n + line for chute in chutes
                 for line in rng.sample(range(n), n))


@pytest.mark.parametrize("order", [2, 3, 4])
def test_cells_and_labels_match_their_definitions(order):
    # cells and labels are computed from the line permutations; check them
    # against the definitions: cell (r, c), read as (c, r) when transposed,
    # goes to rows[r] * side + cols[c], and a region goes to the one region
    # that holds the images of its first and last cells.
    board = Board(order)
    side, regions = board.side, board.cell_region_ids
    rng = random.Random(19)
    for i in range(40):
        g = Symmetry(board, bool(i % 2), random_lines(order, rng),
                     random_lines(order, rng))
        cells = []
        for cell in range(board.num_cells):
            r, c = divmod(cell, side)
            if g.transpose:
                r, c = c, r
            cells.append(g.rows[r] * side + g.cols[c])
        assert g.cells == tuple(cells)
        assert g.labels == tuple(
            (set(regions[cells[members[0]]])
             & set(regions[cells[members[-1]]])).pop()
            for members in board.region_cells_all)


def test_symmetry_rejects_lines_leaving_their_band(board2):
    ident = tuple(range(4))
    with pytest.raises(ValueError):
        Symmetry(board2, False, (0, 2, 1, 3), ident)
    with pytest.raises(ValueError):
        Symmetry(board2, False, ident, (0, 0, 2, 3))


def _whole_group(board):
    """Every symmetry of a small board, listed without the generators."""
    n, side = board.n, board.side
    lines = [p for p in permutations(range(side))
             if all(len({p[i] // n for i in range(k, k + n)}) == 1
                    for k in range(0, side, n))]
    return [Symmetry(board, t, rows, cols)
            for t in (False, True) for rows in lines for cols in lines]


def test_pair_orbits_match_whole_stabilizer(board2):
    group = _whole_group(board2)
    assert len(group) == group_order(board2)
    rng = random.Random(3)
    for mask in [board2.full_mask] + [rng.getrandbits(12) for _ in range(12)]:
        cset = ConstraintSet(board2, mask)
        pairs = expand_small(cset)
        stabilizer = [g for g in group if g.apply_mask(mask) == mask]
        orbits = pair_orbits(cset, pairs)
        assert set(orbits) == set(pairs)
        for pair in pairs:
            expect = {tuple(sorted((g.cells[pair[0]], g.cells[pair[1]])))
                      for g in stabilizer}
            got = {p for p in pairs if orbits[p][0] == orbits[pair][0]}
            assert got == expect


@pytest.mark.parametrize("order", [2, 3])
def test_carrier_exists_exactly_when_the_entry_covers(order):
    board = Board(order)
    rng = random.Random(23)
    found = Counter()
    for _ in range(200):
        entry = ConstraintSet(board, rng.getrandbits(board.num_big)
                              | rng.getrandbits(board.num_big))
        mask = rng.getrandbits(board.num_big)
        if rng.random() < 0.5:
            mask &= rng.getrandbits(board.num_big)
        g = carrier(entry, ConstraintSet(board, mask))
        covered = covers(group_images(entry), mask)
        assert (g is not None) == covered
        found[covered] += 1
        if g is None:
            continue
        assert mask & ~g.apply_mask(entry.mask) == 0
        for cid in range(board.num_big):
            image = {g.cells[c] for c in region_cells(cid, board)}
            assert image == set(region_cells(g.labels[cid], board))
    assert found[True] > 20 and found[False] > 20


@pytest.mark.parametrize("order, top", [(2, 12), (3, 7)])
def test_carrier_prefilter_loses_no_carrier(order, top):
    # Every (catalog entry, stuck fixpoint) pair a level's sweep can meet:
    # the counts prefilter of carrier keeps every completion, in the order
    # of an unfiltered walk over the coarse elements.
    board = Board(order)
    for k in range(top + 1):
        records, catalog = _level(order, k)
        fixpoints = {r.fixpoint.mask for r in records
                     if not r.fixpoint.is_full()}
        for mask, entry in product(sorted(fixpoints), catalog):
            walk = list(unfiltered_completions(board, entry.cset.mask, mask))
            assert completions(board, entry.cset.mask, mask) == walk
            assert carrier(entry.cset, ConstraintSet(board, mask)) == (
                walk[0] if walk else None)


def test_carrier_of_a_model_onto_itself_is_the_identity(board):
    rng = random.Random(29)
    for _ in range(10):
        cset = ConstraintSet(board, rng.getrandbits(27))
        assert carrier(cset, cset) == identity(board)
        image = random_element(board, rng).apply(cset)
        assert carrier(cset, image).apply(cset) == image


@pytest.mark.parametrize("order", [2, 3])
def test_compose_inverse_and_move_act_on_cells(order):
    board = Board(order)
    rng = random.Random(31)
    grid = pattern_solution(board)
    full = ConstraintSet.full(board)
    for _ in range(20):
        g, h = random_element(board, rng), random_element(board, rng)
        gh = g.compose(h)
        assert gh.cells == tuple(g.cells[h.cells[c]]
                                 for c in range(board.num_cells))
        assert inverse(g).compose(g) == identity(board)
        assert all(inverse(g).cells[g.cells[c]] == c
                   for c in range(board.num_cells))
        out = g.move(grid)
        assert all(out.values[g.cells[c]] == grid.values[c]
                   for c in range(board.num_cells))
        assert verify_grid(out, full) == frozenset()


def packed(board, mask):
    """The presence vector of a mask as a key: R1 most significant."""
    return sum(1 << board.num_big - 1 - i
               for i in range(board.num_big) if mask >> i & 1)


def test_order_four_keys_and_images_match_bfs():
    board = Board(4)
    rng = random.Random(37)
    masks = [board.full_mask ^ 1 << i for i in range(board.num_big)]
    masks += [board.full_mask ^ 1 << a ^ 1 << b
              for a, b in (rng.sample(range(board.num_big), 2)
                           for _ in range(10))]
    for mask in masks:
        cset = ConstraintSet(board, mask)
        orbit = bfs_orbit(cset)
        assert canonical_key(cset) == min(packed(board, m) for m in orbit)
        assert group_images(cset) == orbit
        assert orbit_size(cset) == len(orbit)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_staged_keys_match_image_keys(order):
    board = Board(order)
    rng = random.Random(41)
    masks = [rng.getrandbits(board.num_big)
             for _ in range(300 if order < 4 else 20)]
    if order == 3:  # bands, stacks and boxes that tie
        masks += [parse_missing(board, "R2,R5,R8,C2,C5,C8").mask,
                  board.full_mask]
        masks += [cset.mask for cset in enumerate_classes(board, 6)]
    for mask in masks:
        assert _canonical_key(order, mask) == min(
            image_key(order, g.apply_mask(mask)) for g in _coarse(order))


def test_order_two_keys_are_smallest_images_of_bfs_orbits(board2):
    """Every order-2 mask, against orbits built by BFS over the generators
    alone: each key is the smallest packed image of the mask's orbit, and
    there are as many keys as orbits."""
    smallest, orbits = {}, 0
    for mask in range(1 << board2.num_big):
        if mask not in smallest:
            orbit = bfs_orbit(ConstraintSet(board2, mask))
            orbits += 1
            low = min(packed(board2, m) for m in orbit)
            smallest.update(dict.fromkeys(orbit, low))
    keys = {mask: _canonical_key(2, mask) for mask in smallest}
    assert keys == smallest
    assert len(set(keys.values())) == orbits
