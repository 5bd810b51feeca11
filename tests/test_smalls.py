import ast
import random
import re
from collections import Counter
from itertools import combinations

import pytest

import redoku.smalls
import redoku.solver
from redoku.board import (Board, ConstraintSet, Grid, parse_missing,
                          region_cells)
from redoku.pipeline import SUDOKU, _level
from redoku.smalls import (CLOSURE, CONFIRMED_NEEDED, INCONCLUSIVE, REDUNDANT,
                           SEARCH, UNDECIDED, _decompose, _needed, _without,
                           expand_small, pair_cells, probe_minimality,
                           probe_pair, sample_probes, small_count_range)
from redoku.solver import read_corpus
from redoku.symmetry import pair_orbits

from helpers import cell_value, pattern_solution

MODEL = "R2,R5,R8,C2,C5,C8"


def test_full_expansion_count(board):
    base = expand_small(ConstraintSet.full(board))
    assert len(base) == 810


def test_per_cell_degree(board):
    base = expand_small(ConstraintSet.full(board))
    degree = {cell: 0 for cell in range(81)}
    for a, b in base:
        degree[a] += 1
        degree[b] += 1
    assert set(degree.values()) == {20}


def test_overlap_accounting(board):
    # A row shares 3 pairs with each of its 3 boxes, so dropping the row
    # loses only 36 - 9 pairs; a box shares 9 pairs with rows and 9 with
    # columns, so dropping it loses 36 - 18.
    assert len(expand_small(parse_missing(board, "R1"))) == 810 - 27
    assert len(expand_small(parse_missing(board, "B1"))) == 810 - 18
    assert len(expand_small(parse_missing(board, "R2,R5,R8,C2,C5,C8"))) == 648


def test_expansion_is_monotone(board):
    bigger = expand_small(parse_missing(board, "R1"))
    smaller = expand_small(parse_missing(board, "R1,B5"))
    assert smaller < bigger


def test_pair_cells_of_a_flat_pair(board, board2):
    assert pair_cells(board, (0, 1)) == ((1, 1), (1, 2))
    assert pair_cells(board, (10, 80)) == ((2, 2), (9, 9))
    assert pair_cells(board2, (5, 15)) == ((2, 2), (4, 4))


def test_small_count_range(board):
    classes = [ConstraintSet.full(board),
               parse_missing(board, "R1"),
               parse_missing(board, "B1"),
               parse_missing(board, "R9")]
    lo, hi, argmin, argmax = small_count_range(classes)
    assert (lo, hi) == (783, 810)
    assert argmin == (classes[1], classes[3])
    assert argmax == (classes[0],)
    with pytest.raises(ValueError):
        small_count_range([])


def test_sample_probes_deterministic(board):
    base = expand_small(ConstraintSet.full(board))
    a = sample_probes(base, 10, seed=4)
    b = sample_probes(base, 10, seed=4)
    assert a == b and len(a) == 10
    assert sample_probes(base, 10, seed=5) != a
    assert all(p in base for p in a)
    assert sample_probes(base, 10**6) == sorted(base)


def test_decompose_splits_regions_and_leftovers(board):
    base = expand_small(parse_missing(board, "R2,R5,R8,C2,C5,C8"))
    pair = sorted(base)[0]
    bigs, extras = _decompose(board, frozenset(base - {pair}))
    # The dropped pair lies in both R1 and B1, demoting them from whole
    # regions to leftover pairs; the other present regions survive.
    assert bigs.num_missing == 8
    assert extras
    # Leftovers are flat pairs, smaller cell first, in ascending order.
    assert list(extras) == sorted(extras)
    assert all(p < q for p, q in extras)
    recovered = set(extras)
    assert pair not in recovered
    full_again = expand_small(bigs) | recovered
    assert full_again == base - {pair}


@pytest.mark.parametrize("order, models", [
    (3, ["", "R2,R5,R8,C2,C5,C8", "R1,B1,B4,B5,B8,B9"]),
    (2, ["", "R1,B1,B3,B4"])])
def test_rest_derived_from_the_base_split(order, models):
    # Each pair's Rest, derived from base's split, is the split of base
    # minus the pair: for model expansions, and for random pair sets whose
    # split has leftover pairs.
    board, rng = Board(order), random.Random(order)
    bases = [expand_small(parse_missing(board, text)) for text in models]
    for _ in range(3):
        pairs = sorted(expand_small(ConstraintSet(
            board, rng.getrandbits(board.num_big))))
        bases.append(frozenset(pairs) - set(rng.sample(pairs, 6)))
        assert _decompose(board, bases[-1])[1]
    for base in bases:
        split = _decompose(board, base)
        for pair in base:
            assert _without(board, split, pair) == _decompose(board,
                                                              base - {pair})


def test_needed_rejects_a_witness_with_other_equal_pairs(board):
    # _needed counts equal pairs without listing them: a grid making no
    # pair of base equal, or one more than the probed pair, still fails
    # with the pairs it makes equal.
    base = expand_small(ConstraintSet.full(board))
    grid = pattern_solution(board)
    with pytest.raises(RuntimeError, match=r"makes pairs \[\] equal"):
        _needed(base, (0, 1), grid, "swap:0")
    values = list(grid.values)
    values[1] = values[0]  # equal to cell 0 in R1 and to its twin in C2
    twin = next(c for c in range(10, 81, 9) if values[c] == values[0])
    with pytest.raises(RuntimeError) as raised:
        _needed(base, (0, 1), Grid(board, tuple(values)), "swap:0")
    equal = re.search(r"makes pairs (.*) equal", str(raised.value)).group(1)
    assert sorted(ast.literal_eval(equal)) == [(0, 1), (1, twin)]


def test_probe_pair_confirms_needed(board):
    base = expand_small(parse_missing(board, "R2,R5,R8,C2,C5,C8"))
    pair = (board.cell_index(1, 1), board.cell_index(1, 2))
    record = probe_pair(board, base, pair)
    assert record.verdict == CONFIRMED_NEEDED
    assert record.witness is not None
    grid = record.witness
    cells = pair_cells(board, pair)
    assert cell_value(grid, *cells[0]) == cell_value(grid, *cells[1])
    assert record.seed_index is None


def test_probe_pair_rejects_foreign_pair(board):
    base = expand_small(parse_missing(board, "R2,R5,R8,C2,C5,C8"))
    # Cells sharing only the absent row R2 are covered by no present
    # region, so their pair is outside the base set.
    with pytest.raises(ValueError):
        probe_pair(board, base,
                   (board.cell_index(2, 1), board.cell_index(2, 5)))


def test_probe_with_corpus_seeds(board, corpus_path):
    puzzles, _ = read_corpus(corpus_path, board)
    base = expand_small(parse_missing(board, "R2,R5,R8,C2,C5,C8"))
    pair = (board.cell_index(5, 1), board.cell_index(5, 2))
    record = probe_pair(board, base, pair, corpus=puzzles)
    assert record.verdict == CONFIRMED_NEEDED
    assert record.seed_index is not None


def test_corpus_probe_shares_one_budget(board, corpus_path):
    # The corpus puzzles split the probe's budget between them; with the
    # whole budget per puzzle this pair spent more than the budget.
    puzzles, _ = read_corpus(corpus_path, board)
    base = expand_small(parse_missing(board, "R2,R5,R8,C2,C5,C8"))
    pair = (board.cell_index(4, 2), board.cell_index(4, 6))
    assert pair == (28, 32)
    record = probe_pair(board, base, pair, corpus=puzzles)
    assert record.verdict == CONFIRMED_NEEDED
    assert record.nodes <= 200_000


def test_probe_pair_rejects_a_budget_below_the_corpus_size(board,
                                                           corpus_path):
    puzzles, _ = read_corpus(corpus_path, board)
    base = expand_small(parse_missing(board, MODEL))
    pair = (board.cell_index(5, 1), board.cell_index(5, 2))
    with pytest.raises(ValueError, match="below the corpus size 6"):
        probe_pair(board, base, pair, corpus=puzzles, budget=5)
    # One node per puzzle is the least budget accepted.
    record = probe_pair(board, base, pair, corpus=puzzles, budget=6)
    assert record.nodes <= 6


def test_full_base_probe_fixture(board):
    # Dropping one box-only pair from the complete pair set demotes B4,
    # and the rows of its chute with the other two boxes re-derive it
    # (Lemma I), so the closure certifies the pair with no search.  Before
    # the probe closed the rest, it spent its whole budget of 200,000 nodes
    # here and was inconclusive.
    base = expand_small(ConstraintSet.full(board))
    probes = sample_probes(base, 1, seed=0)
    assert probes == [(29, 46)]
    assert pair_cells(board, probes[0]) == ((4, 3), (6, 2))
    record = probe_pair(board, base, probes[0])
    assert record.verdict == REDUNDANT
    assert record.witness is None
    assert (record.nodes, record.propagations) == (0, 0)
    assert record.provenance == CLOSURE
    region, trace = record.certificate
    assert region == "B4" and trace[-1].endswith("derives B4")
    assert {(4, 3), (6, 2)} <= {
        board.cell_coords(c)
        for c in region_cells(board.parse_label(region), board)}


# A pair the closure of its rest cannot decide: (1,4)-(1,5) of this model
# shares only the present box B2, and no grid makes it equal.
UNDECIDED_MODEL = "R1,B1,B4,B5,B6,B7"
UNDECIDED_PAIR = (3, 4)


def test_unseeded_probe_stays_within_small_budget(board, monkeypatch):
    # Sixteen restart rungs of at least 1,000 nodes each once spent 16,000
    # nodes on such a pair at a budget of 2,000; a blank-board probe that
    # neither the closure nor a swap decides now ends undecided, unsearched.
    calls = recording_solves(monkeypatch)
    base = expand_small(parse_missing(board, UNDECIDED_MODEL))
    record = probe_pair(board, base, UNDECIDED_PAIR, budget=2_000)
    assert calls == []
    assert (record.verdict, record.provenance) == (INCONCLUSIVE, UNDECIDED)
    assert record.certificate is None and record.witness is None
    assert (record.nodes, record.propagations) == (0, 0)


def test_probe_sweep_has_no_heavy_tail(board, monkeypatch):
    # One search per orbit once spent up to 154,774 nodes on this model's
    # whole 648-pair sweep.  Now its 11 orbits are probed once each, from
    # their roots, and no pair is searched: the swaps confirm every pair,
    # and with no swap grid every pair ends undecided.
    base = expand_small(parse_missing(board, MODEL))
    for grids, verdict in ((None, CONFIRMED_NEEDED), (0, INCONCLUSIVE)):
        if grids is not None:
            monkeypatch.setattr(redoku.solver, "SWAP_GRIDS", grids)
        probed = counting_probes(monkeypatch)
        calls = recording_solves(monkeypatch)
        records = probe_minimality(board, base, sorted(base))
        assert len(probed) == 11
        assert calls == []
        assert [r.pair for r in records] == sorted(base)
        assert all(r.verdict == verdict for r in records)
        assert sum(r.nodes + r.propagations for r in records) == 0


def replay_certificate(board, base, data):
    """Check the certificate of a JSON probe record from cell coordinates
    alone, without rewrite.closure: starting from the whole regions of the
    rest, each step must fire on the regions so far, and the region it
    ends with must hold both cells of the pair."""
    n, side = board.n, board.side

    def cells(label):
        kind, k = "RCB".index(label[0]), int(label[1:]) - 1
        return {r * side + c for r in range(side) for c in range(side)
                if (r, c, r // n * n + c // n)[kind] == k}
    labels = [f"{kind}{k}" for kind in "RCB" for k in range(1, side + 1)]
    (r1, c1), (r2, c2) = data["pair"]
    pair = ((r1 - 1) * side + c1 - 1, (r2 - 1) * side + c2 - 1)
    rest = base - {pair}
    present = {label for label in labels
               if set(combinations(sorted(cells(label)), 2)) <= rest}
    for step in data["certificate"]["trace"]:
        lemma, chute, verb, derived = step.split()
        axis, band = "HV".index(chute[0]), int(chute[1:]) - 1
        lines = {f"{'RC'[axis]}{band * n + j + 1}" for j in range(n)}
        boxes = {label for label in labels if label[0] == "B"
                 and all(divmod(cell, side)[axis] // n == band
                         for cell in cells(label))}
        whole, gapped = {"LemmaI": (lines, boxes),
                         "LemmaII": (boxes, lines)}[lemma]
        assert verb == "derives"
        assert whole <= present and gapped - present == {derived}
        present.add(derived)
    assert data["certificate"]["region"] == derived
    assert set(pair) <= cells(derived)


@pytest.mark.parametrize("model, certified", [("", 810),
                                              (UNDECIDED_MODEL, 42)])
def test_redundant_certificates_replay(board, model, certified):
    # Every pair of the full model is certified, and the closure certifies
    # 42 of the 690 pairs of the other model; each record's certificate,
    # computed for its own pair even when its orbit shares one probe,
    # replays on its own.
    base = expand_small(parse_missing(board, model))
    records = [r.to_json_dict(board)
               for r in probe_minimality(board, base, sorted(base), budget=1)]
    redundant = [r for r in records if r["verdict"] == REDUNDANT]
    assert len(redundant) == certified
    for record in records:
        assert (record["certificate"] is None) == (record not in redundant)
    for record in redundant:
        assert (record["nodes"], record["witness"]) == (0, None)
        assert record["provenance"] == CLOSURE
        replay_certificate(board, base, record)


def test_exhaustive_unsat_ends_the_probe(board2, monkeypatch):
    # In an order-2 Latin square (no boxes) the columns and the other rows
    # force row 2 to hold every value once, a count over the whole grid
    # that no chute lemma makes, so the closure certifies nothing, and no
    # grid, so no swap, makes the pair equal.  A search would prove it
    # unequal, with no certificate; the probe runs none and leaves it
    # undecided.
    calls = recording_solves(monkeypatch)
    base = expand_small(parse_missing(board2, "B1,B2,B3,B4"))
    record = probe_pair(board2, base, (4, 5))
    assert calls == []
    assert (record.verdict, record.provenance) == (INCONCLUSIVE, UNDECIDED)
    assert record.witness is None and record.certificate is None
    assert (record.nodes, record.propagations) == (0, 0)


def equal_model_pairs(board, model, grid):
    """Cell pairs sharing a present row, column or box that the grid makes
    equal, found from cell coordinates alone."""
    missing = set(model.split(","))
    def regions(cell):
        r, c = divmod(cell, 9)
        return {f"R{r + 1}", f"C{c + 1}", f"B{r // 3 * 3 + c // 3 + 1}"}
    return [(a, b) for a in range(81) for b in range(a + 1, 81)
            if grid.values[a] == grid.values[b]
            and (regions(a) & regions(b)) - missing]


def counting_probes(monkeypatch):
    searched = []
    real = redoku.smalls.probe_pair
    def probe(board, base, pair, **kwargs):
        searched.append(tuple(pair))
        return real(board, base, pair, **kwargs)
    monkeypatch.setattr(redoku.smalls, "probe_pair", probe)
    return searched


def recording_solves(monkeypatch):
    """Record (pair, value-order seed, node limit, nodes, propagations) of
    every equality solve, in call order; swap grid builds pin no pair."""
    calls = []
    real = redoku.solver.solve
    def solve(problem, budget, value_order_seed=None):
        outcome = real(problem, budget=budget,
                       value_order_seed=value_order_seed)
        if problem.equalities:
            calls.append((problem.equalities[0], value_order_seed, budget,
                          outcome.stats.nodes, outcome.stats.propagations))
        return outcome
    monkeypatch.setattr(redoku.solver, "solve", solve)
    return calls


def requested_by_orbit(orbits, probes):
    """Orbit root -> the requested pairs of that orbit, in request order."""
    members = {}
    for pair in probes:
        members.setdefault(orbits[pair][0], []).append(pair)
    return members


def test_probe_minimality_transports_the_confirmed_witness(board,
                                                           monkeypatch):
    # Each orbit is probed once, from its first requested pair, and its
    # swaps are tried over the whole orbit: the confirmed pair's witness is
    # moved onto every other requested pair, and no pair is searched.
    cset = parse_missing(board, MODEL)
    base = expand_small(cset)
    probes = sample_probes(base, 24, seed=1)
    orbits = pair_orbits(cset, base)
    members = requested_by_orbit(orbits, probes)
    probed = counting_probes(monkeypatch)
    calls = recording_solves(monkeypatch)
    records = probe_minimality(board, base, probes)
    assert probed == [pairs[0] for pairs in members.values()]
    assert len(probed) < len(probes)
    assert calls == []
    assert [r.pair for r in records] == probes
    for root, pairs in members.items():
        orbit = [r for r in records if r.pair in pairs]
        sources = {r.provenance.split(":")[1] for r in orbit
                   if r.provenance.startswith("transported:")}
        swapped = [r for r in orbit if r.provenance.startswith("swap:")]
        # One swap confirms the orbit, on a requested pair or on a mate.
        assert len(swapped) <= 1 and len(sources) <= 1
        if swapped:
            (r1, c1), (r2, c2) = pair_cells(board, swapped[0].pair)
            assert sources <= {f"{r1},{c1}-{r2},{c2}"}
        for source in sources:
            a, b = (board.cell_index(*map(int, cell.split(",")))
                    for cell in source.split("-"))
            assert orbits[(a, b)][0] == root
        for record in orbit:
            assert record.verdict == CONFIRMED_NEEDED
            assert equal_model_pairs(board, MODEL, record.witness) == [
                record.pair]
            assert record.seed_index is None
            assert (record.nodes, record.propagations) == (0, 0)


def test_probe_minimality_shares_an_unconfirmed_search(board, monkeypatch):
    # With no swap grid nothing confirms a pair of this model, and the
    # closure certifies none: each orbit is probed once, from its first
    # requested pair, with no search, and every requested pair of it gets
    # that undecided record with its own pair, whatever the budget.
    monkeypatch.setattr(redoku.solver, "SWAP_GRIDS", 0)
    cset = parse_missing(board, MODEL)
    base = expand_small(cset)
    probes = sample_probes(base, 24, seed=5)
    members = requested_by_orbit(pair_orbits(cset, base), probes)
    probed = counting_probes(monkeypatch)
    calls = recording_solves(monkeypatch)
    records = probe_minimality(board, base, probes, budget=10)
    assert probed == [pairs[0] for pairs in members.values()]
    assert len(probed) < len(probes)
    assert calls == []
    assert [r.pair for r in records] == probes
    for record in records:
        assert record.verdict == INCONCLUSIVE
        assert record.provenance == UNDECIDED
        assert record.witness is None and record.certificate is None
        assert (record.nodes, record.propagations) == (0, 0)


def test_probe_draw_spends_few_nodes(board, corpus_path):
    # The benchmark's 64-pair draw seeded from the corpus: every pair is
    # searched, its puzzles racing up the restart ladder.  One ascending
    # solve per puzzle spent 38,988 nodes here, 33,358 of them on one pair.
    base = expand_small(parse_missing(board, MODEL))
    probes = sample_probes(base, 64, seed=1542757380)
    puzzles, _ = read_corpus(corpus_path, board)
    records = probe_minimality(board, base, probes, corpus=puzzles)
    assert all(r.verdict == CONFIRMED_NEEDED for r in records)
    assert sum(r.nodes for r in records) <= 2_208
    for r in records:
        givens = puzzles[r.seed_index].values
        assert all(g in (0, v) for g, v in zip(givens, r.witness.values))


def test_probe_draw_is_confirmed_by_swaps(board):
    # The benchmark's draw spends no solver node: each orbit is confirmed by
    # a value swap on one of its pairs, and the witness moved onto each
    # requested pair makes exactly that pair of the model equal.
    base = expand_small(parse_missing(board, MODEL))
    probes = sample_probes(base, 64, seed=1542757380)
    records = probe_minimality(board, base, probes)
    assert [r.pair for r in records] == probes
    for record in records:
        assert record.verdict == CONFIRMED_NEEDED
        assert (record.nodes, record.propagations) == (0, 0)
        assert record.provenance.startswith(("swap:", "transported:"))
        assert equal_model_pairs(board, MODEL, record.witness) == [
            record.pair]


def test_probe_draw_builds_one_swap_grid(board, monkeypatch):
    # Swaps are tried grid-major over each orbit's pairs, and every orbit of
    # the draw has a pair that grid 0 confirms, so the draw builds grid 0
    # alone, where trying each pair on every grid first built 6.
    base = expand_small(parse_missing(board, MODEL))
    probes = sample_probes(base, 64, seed=1542757380)
    probed, real = [], redoku.smalls.probe_pair

    def probe_pair(*args, **kwargs):
        probed.append(real(*args, **kwargs))
        return probed[-1]
    monkeypatch.setattr(redoku.smalls, "probe_pair", probe_pair)
    redoku.solver._swap_grid.cache_clear()
    probe_minimality(board, base, probes)
    assert redoku.solver._swap_grid.cache_info().currsize == 1
    assert [r.provenance for r in probed] == ["swap:0"] * 11


def test_probe_pair_tries_the_orbit_grid_major(board):
    # Alone, the root (1, 9) needs grid 5; with its orbit, a mate confirms
    # it on grid 0 before any later grid is built.
    cset = parse_missing(board, MODEL)
    base = expand_small(cset)
    orbit = [p for p, step in pair_orbits(cset, base).items()
             if step[0] == (1, 9)]
    record = probe_pair(board, base, (1, 9), orbit=orbit)
    assert record.provenance == "swap:0" and record.pair != (1, 9)
    assert record.pair in orbit
    assert equal_model_pairs(board, MODEL, record.witness) == [record.pair]
    assert probe_pair(board, base, (1, 9)).provenance == "swap:5"


def test_orbit_mates_are_split_only_when_reached(board, monkeypatch):
    # The root (0, 1) is confirmed by its own swap on grid 0, so none of the
    # 71 other pairs of its orbit is split into regions and leftovers:
    # _decompose runs once, on the base, and no mate's Rest is derived from
    # it: the root's is, for the closure and for the swap step.
    cset = parse_missing(board, MODEL)
    base = expand_small(cset)
    orbit = [p for p, step in pair_orbits(cset, base).items()
             if step[0] == (0, 1)]
    calls, derived = [], []

    def decompose(board, rest):
        calls.append(rest)
        return _decompose(board, rest)

    def without(board, split, pair):
        derived.append(pair)
        return _without(board, split, pair)
    monkeypatch.setattr(redoku.smalls, "_decompose", decompose)
    monkeypatch.setattr(redoku.smalls, "_without", without)
    record = probe_pair(board, base, (0, 1), orbit=orbit)
    assert len(orbit) == 72 and orbit[0] == (0, 1)
    assert (record.pair, record.provenance) == ((0, 1), "swap:0")
    assert calls == [base]
    assert derived == [(0, 1)] * 2


def split_by_orbit_root(board, classes):
    """Pairs of the classes' expansions by what decides their orbit's root
    probe: the closure, a value swap, or neither (undecided); and the
    number of classes with undecided pairs."""
    split, undecided = Counter(), set()
    for cset in classes:
        base = expand_small(cset)
        orbits = {}
        for pair, (root, _, _) in pair_orbits(cset, base).items():
            orbits.setdefault(root, []).append(pair)
        for root, orbit in orbits.items():
            record = probe_pair(board, base, root, orbit=orbit)
            kind = record.provenance.split(":")[0]
            split[kind] += len(orbit)
            assert record.nodes == 0
            if kind == UNDECIDED:
                assert record.verdict == INCONCLUSIVE
                undecided.add(cset)
    return dict(split), len(undecided)


@pytest.mark.parametrize("n, k, split, undecided", [
    (2, 4, {CLOSURE: 19, "swap": 319, UNDECIDED: 1}, 1),
    (3, 6, {CLOSURE: 1_026, "swap": 25_215, UNDECIDED: 57}, 14)])
def test_closure_and_swaps_leave_only_counted_pairs(n, k, split, undecided):
    # Over the Sudoku classes of the last Sudoku level, the closure and
    # orbit-wide swaps decide every pair but those that only counting
    # decides (57 pairs in 14 classes at order 3), each with no search, so
    # no needed pair is left undecided.
    classes = [r.cset for r in _level(n, k)[0] if r.verdict == SUDOKU]
    assert len(classes) == {2: 8, 3: 39}[n]
    board = classes[0].board
    assert split_by_orbit_root(board, classes) == (split, undecided)


def test_probe_minimality_with_corpus_searches_every_pair(board, corpus_path):
    puzzles, _ = read_corpus(corpus_path, board)
    cset = parse_missing(board, MODEL)
    base = expand_small(cset)
    orbits = pair_orbits(cset, base)
    pair = (board.cell_index(5, 1), board.cell_index(5, 2))
    same_orbit = [p for p in sorted(base)
                  if orbits[p][0] == orbits[pair][0]][:2]
    records = probe_minimality(board, base, same_orbit, corpus=puzzles)
    assert all(r.provenance == SEARCH and r.seed_index is not None
               for r in records)


def test_probe_minimality_of_a_pair_subset_searches_every_pair(board,
                                                               monkeypatch):
    # Twenty pairs of the model cover no whole region, so they are no model
    # expansion and have no symmetry to share searches along.
    base = expand_small(parse_missing(board, MODEL))
    sample = frozenset(sample_probes(base, 20, seed=2))
    probed = counting_probes(monkeypatch)
    records = probe_minimality(board, sample, sorted(sample))
    assert probed == [r.pair for r in records] == sorted(sample)
    assert all(r.provenance == UNDECIDED or r.provenance.startswith("swap:")
               for r in records)


def test_probe_minimality_rejects_foreign_pair(board):
    base = expand_small(parse_missing(board, MODEL))
    with pytest.raises(ValueError):
        probe_minimality(board, base,
                         [(board.cell_index(2, 1), board.cell_index(2, 5))])


def test_probe_minimality_runs_all(board):
    base = expand_small(parse_missing(board, "R2,R5,R8,C2,C5,C8"))
    probes = sample_probes(base, 3, seed=1)
    records = probe_minimality(board, base, probes)
    assert [r.pair for r in records] == probes
    assert all(r.verdict == CONFIRMED_NEEDED for r in records)


def test_probe_record_json_shape(board):
    base = expand_small(parse_missing(board, "R2,R5,R8,C2,C5,C8"))
    record = probe_pair(board, base, sample_probes(base, 1)[0])
    data = record.to_json_dict(board)
    assert set(data) == {"pair", "verdict", "witness", "nodes",
                         "propagations", "seed_index", "provenance",
                         "certificate"}
    # This pair's own first swap is on grid 2; through probe_minimality it
    # would take its orbit root's swap on grid 0, transported.
    assert data["provenance"] == "swap:2"
    assert (data["nodes"], data["propagations"]) == (0, 0)
    assert data["certificate"] is None
    assert isinstance(data["pair"], list) and len(data["pair"]) == 2
    if data["witness"] is not None:
        assert len(data["witness"]) == 81
