from collections import Counter

import pytest

import redoku.smalls
import redoku.solver
from redoku.board import ConstraintSet, parse_missing
from redoku.smalls import (CONFIRMED_NEEDED, INCONCLUSIVE, SEARCH, _decompose,
                           expand_small, experimental_reduce, pair_cells,
                           probe_minimality, probe_pair, sample_probes,
                           small_count_range)
from redoku.solver import read_corpus
from redoku.symmetry import pair_orbits

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


def test_probe_pair_confirms_needed(board):
    base = expand_small(parse_missing(board, "R2,R5,R8,C2,C5,C8"))
    pair = (board.cell_index(1, 1), board.cell_index(1, 2))
    record = probe_pair(board, base, pair)
    assert record.verdict == CONFIRMED_NEEDED
    assert record.witness is not None
    grid = record.witness
    cells = pair_cells(board, pair)
    assert grid.get(*cells[0]) == grid.get(*cells[1])
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


def test_full_base_probe_fixture(board):
    # Recorded behavior: dropping one box-only pair from the complete
    # pair set leaves the equality entailed impossible, so the probe can
    # never find a solution and must spend its whole budget saying so.
    base = expand_small(ConstraintSet.full(board))
    probes = sample_probes(base, 1, seed=0)
    assert probes == [(29, 46)]
    assert pair_cells(board, probes[0]) == ((4, 3), (6, 2))
    record = probe_pair(board, base, probes[0])
    assert record.verdict == INCONCLUSIVE
    assert record.witness is None
    assert record.nodes == 200_000


def test_unseeded_probe_stays_within_small_budget(board):
    # Sixteen restart rungs of at least 1,000 nodes each once spent 16,000
    # nodes on this pair at a budget of 2,000.
    base = expand_small(ConstraintSet.full(board))
    record = probe_pair(board, base, (29, 46), budget=2_000)
    assert record.verdict == INCONCLUSIVE
    assert record.nodes <= 2_000


def test_probe_sweep_has_no_heavy_tail(board):
    # Every orbit of the model's pairs holds a pair that finishes in a few
    # dozen nodes, yet one long ascending rung once spent 154,774 nodes on
    # the 11 searches of this sweep.  Node counts are deterministic.
    base = expand_small(parse_missing(board, MODEL))
    records = probe_minimality(board, base, sorted(base))
    assert sum(r.verdict == CONFIRMED_NEEDED for r in records) == 648
    searched = [r for r in records if r.provenance == SEARCH]
    assert len(searched) == 11
    assert sum(r.nodes for r in searched) <= 20_000


def test_exhaustive_unsat_ends_the_probe(board2, monkeypatch):
    # At order 2 propagation alone rules out every full-model pair, and a
    # complete search proves the same under any value order, so the probe
    # stops after one solve instead of climbing the restart ladder.
    calls = []
    real = redoku.solver.solve
    def solve(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(redoku.solver, "solve", solve)
    base = expand_small(ConstraintSet.full(board2))
    record = probe_pair(board2, base, sorted(base)[0])
    assert len(calls) == 1
    assert record.verdict == INCONCLUSIVE
    assert record.witness is None and record.nodes == 0


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


def test_probe_minimality_transports_witnesses(board, monkeypatch):
    cset = parse_missing(board, MODEL)
    base = expand_small(cset)
    probes = sample_probes(base, 24, seed=1)
    orbits = pair_orbits(cset, base)
    firsts = {}
    for pair in probes:
        firsts.setdefault(orbits[pair][0], pair)
    searched = counting_probes(monkeypatch)
    records = probe_minimality(board, base, probes)
    # One search per orbit, on its first requested pair.
    assert searched == list(firsts.values()) and len(searched) < len(probes)
    assert [r.pair for r in records] == probes
    by_pair = {r.pair: r for r in records}
    for record in records:
        assert record.verdict == CONFIRMED_NEEDED
        assert equal_model_pairs(board, MODEL, record.witness) == [record.pair]
        source = firsts[orbits[record.pair][0]]
        if record.pair == source:
            assert record.provenance == SEARCH and record.nodes > 0
            continue
        (r1, c1), (r2, c2) = pair_cells(board, source)
        assert record.provenance == f"transported:{r1},{c1}-{r2},{c2}"
        assert by_pair[source].provenance == SEARCH
        assert (record.nodes, record.propagations) == (0, 0)
        assert record.seed_index is None


def test_probe_minimality_searches_every_pair_at_tiny_budget(board,
                                                             monkeypatch):
    base = expand_small(parse_missing(board, MODEL))
    probes = sample_probes(base, 24, seed=5)
    searched = counting_probes(monkeypatch)
    records = probe_minimality(board, base, probes, budget=10)
    assert searched == probes
    assert all(r.verdict == INCONCLUSIVE and r.provenance == SEARCH
               and 0 < r.nodes <= 10 for r in records)


def test_probe_minimality_searches_a_prefix_of_each_orbit(board,
                                                          monkeypatch):
    # At a budget where some probes fail, an orbit is searched pair by pair
    # until one is confirmed; that witness then also serves the pairs
    # searched in vain before it.
    cset = parse_missing(board, MODEL)
    base = expand_small(cset)
    probes = sample_probes(base, 64, seed=1542757380)
    orbits = pair_orbits(cset, base)
    searched = counting_probes(monkeypatch)
    records = probe_minimality(board, base, probes, budget=50)
    assert Counter(r.verdict for r in records)[INCONCLUSIVE] > 0
    assert len(set(searched)) == len(searched) < len(probes)
    verdict = {r.pair: r.verdict for r in records}
    upgraded = 0
    for root in {orbits[p][0] for p in probes}:
        members = [p for p in probes if orbits[p][0] == root]
        done = [p for p in searched if orbits[p][0] == root]
        assert done == members[:len(done)]
        verdicts = {verdict[p] for p in members}
        if verdict[done[-1]] == CONFIRMED_NEEDED:
            assert verdicts == {CONFIRMED_NEEDED}
            upgraded += len(done) - 1
        else:
            assert done == members and verdicts == {INCONCLUSIVE}
    assert upgraded > 0


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
    searched = counting_probes(monkeypatch)
    records = probe_minimality(board, sample, sorted(sample))
    assert searched == sorted(sample)
    assert all(r.provenance == SEARCH for r in records)


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
                         "propagations", "seed_index", "provenance"}
    assert data["provenance"] == "search"
    assert isinstance(data["pair"], list) and len(data["pair"]) == 2
    if data["witness"] is not None:
        assert len(data["witness"]) == 81


def test_experimental_reduce_is_conservative(board):
    # With a healthy budget every pair of the minimal set gets confirmed,
    # so the heuristic drops nothing.
    base = expand_small(parse_missing(board, "R2,R5,R8,C2,C5,C8"))
    sample = frozenset(sample_probes(base, 20, seed=2))
    reduced, dropped = experimental_reduce(board, sample, seed=2,
                                           budget=200_000)
    assert dropped == []
    assert reduced == sample
