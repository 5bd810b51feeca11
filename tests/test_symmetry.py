import random

import pytest

from collections import Counter
from itertools import permutations

from redoku.board import Board, ConstraintSet, parse_missing, region_cells
from redoku.smalls import expand_small, sample_probes
from redoku.symmetry import (LabelPermutation, Symmetry, band_swap_perm,
                             canonical_key, canonicalize, col_swap_perm,
                             generators, group_images, group_order,
                             orbit_size, pair_orbits, row_swap_perm,
                             stabilizer_generators, stack_swap_perm,
                             transpose_perm)


def bfs_orbit(cset):
    """Orbit of a mask under the generator closure, by plain BFS.

    Independent of the canonical-form machinery; used as an oracle.
    """
    gens = generators(cset.board)
    seen = {cset.mask}
    frontier = [cset.mask]
    while frontier:
        nxt = []
        for mask in frontier:
            for g in gens:
                image = g.apply_mask(mask)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return frozenset(seen)


def random_element(board, rng, length=12):
    gens = generators(board)
    elem = LabelPermutation.identity(board)
    for _ in range(length):
        elem = elem.compose(rng.choice(gens))
    return elem


def test_group_order(board, board2):
    assert group_order(board) == 3_359_232
    assert group_order(board2) == 2 * (2 * 2 ** 2) ** 2


def test_generators_are_permutations(board):
    for g in generators(board):
        assert sorted(g.mapping) == list(range(27))
        gg = g.compose(g)
        assert gg.mapping == tuple(range(27))  # all generators are involutions


def test_transpose_maps_kinds(board):
    t = transpose_perm(board)
    assert board.id_label(t.mapping[board.parse_label("R3")]) == "C3"
    assert board.id_label(t.mapping[board.parse_label("C7")]) == "R7"
    assert board.id_label(t.mapping[board.parse_label("B2")]) == "B4"
    assert board.id_label(t.mapping[board.parse_label("B5")]) == "B5"


def test_band_and_stack_swaps(board):
    b = band_swap_perm(board, 1, 3)
    assert board.id_label(b.mapping[board.parse_label("R1")]) == "R7"
    assert board.id_label(b.mapping[board.parse_label("B2")]) == "B8"
    assert board.id_label(b.mapping[board.parse_label("C4")]) == "C4"
    s = stack_swap_perm(board, 2, 3)
    assert board.id_label(s.mapping[board.parse_label("C4")]) == "C7"
    assert board.id_label(s.mapping[board.parse_label("B5")]) == "B6"
    assert board.id_label(s.mapping[board.parse_label("R9")]) == "R9"


def test_line_swaps_stay_inside_chutes(board):
    r = row_swap_perm(board, 4, 6)
    assert board.id_label(r.mapping[board.parse_label("R4")]) == "R6"
    with pytest.raises(ValueError):
        row_swap_perm(board, 3, 4)
    with pytest.raises(ValueError):
        col_swap_perm(board, 1, 9)


def test_inverse_and_compose(board):
    rng = random.Random(5)
    for _ in range(20):
        g = random_element(board, rng)
        gi = g.compose(g.inverse())
        assert gi.mapping == tuple(range(27))


def test_orbit_sizes_match_bfs(board):
    for text, expect in (("R1", 18), ("B1", 9), ("R1,R2", 18),
                         ("R1,C1,B1", None), ("B1,B2,B4,B5", None)):
        cset = parse_missing(board, text)
        orbit = bfs_orbit(cset)
        assert orbit_size(cset) == len(orbit)
        if expect is not None:
            assert len(orbit) == expect
        assert group_images(cset) == orbit


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
        assert canon.mask in bfs_orbit(cset)
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
    return sorted(Counter(root for root, _ in orbits.values()).values())


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
    for pair, (root, cells) in pair_orbits(cset, expand_small(cset)).items():
        assert tuple(sorted((cells[root[0]], cells[root[1]]))) == pair
        for region in present:
            assert frozenset(cells[c] for c in region) in present


def test_stabilizer_generators_act_on_regions(board):
    rng = random.Random(17)
    models = [parse_missing(board, "R2,R5,R8,C2,C5,C8"),
              ConstraintSet.full(board), parse_missing(board, "R1,C1,B1")]
    models += [ConstraintSet(board, rng.getrandbits(27)) for _ in range(4)]
    for cset in models:
        gens = stabilizer_generators(cset)
        assert gens
        for g in gens:
            assert g.labels.apply(cset) == cset
            for cid in range(board.num_big):
                image = {g.cells[c] for c in region_cells(cid, board)}
                assert image == set(region_cells(g.labels.mapping[cid], board))


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
        stabilizer = [g for g in group if g.labels.apply_mask(mask) == mask]
        orbits = pair_orbits(cset, pairs)
        assert set(orbits) == set(pairs)
        for pair in pairs:
            expect = {tuple(sorted((g.cells[pair[0]], g.cells[pair[1]])))
                      for g in stabilizer}
            got = {p for p in pairs if orbits[p][0] == orbits[pair][0]}
            assert got == expect
