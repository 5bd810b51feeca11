import pytest

from redoku.board import ConstraintSet, parse_missing
from redoku.smalls import (CONFIRMED_NEEDED, INCONCLUSIVE, _decompose,
                           expand_small, experimental_reduce, flat_pair,
                           pair_cells, probe_minimality, probe_pair,
                           sample_probes, small_count_range)
from redoku.solver import read_corpus


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


def test_flat_pair_normalizes(board):
    assert flat_pair(board, (1, 2), (1, 1)) == (0, 1)
    assert pair_cells(board, (0, 1)) == ((1, 1), (1, 2))
    with pytest.raises(ValueError):
        flat_pair(board, (3, 3), (3, 3))


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
    recovered = set()
    for p, q in extras:
        recovered.add(flat_pair(board, p, q))
    assert pair not in recovered
    full_again = expand_small(bigs) | recovered
    assert full_again == base - {pair}


def test_probe_pair_confirms_needed(board):
    base = expand_small(parse_missing(board, "R2,R5,R8,C2,C5,C8"))
    pair = flat_pair(board, (1, 1), (1, 2))
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
        probe_pair(board, base, flat_pair(board, (2, 1), (2, 5)))


def test_probe_with_corpus_seeds(board, corpus_path):
    puzzles, _ = read_corpus(corpus_path, board)
    base = expand_small(parse_missing(board, "R2,R5,R8,C2,C5,C8"))
    pair = flat_pair(board, (5, 1), (5, 2))
    record = probe_pair(board, base, pair, corpus=puzzles)
    assert record.verdict == CONFIRMED_NEEDED
    assert record.seed_index is not None


def test_corpus_probe_shares_one_budget(board, corpus_path):
    # The corpus puzzles split the probe's budget between them; with the
    # whole budget per puzzle this pair spent more than the budget.
    puzzles, _ = read_corpus(corpus_path, board)
    base = expand_small(parse_missing(board, "R2,R5,R8,C2,C5,C8"))
    pair = flat_pair(board, (4, 2), (4, 6))
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
                         "propagations", "seed_index"}
    assert isinstance(data["pair"], list) and len(data["pair"]) == 2
    if data["witness"] is not None:
        assert len(data["witness"]) == 81


def test_experimental_reduce_is_conservative(board):
    # With a healthy budget every pair of the minimal set gets confirmed,
    # so the heuristic drops nothing.
    base = expand_small(parse_missing(board, "R2,R5,R8,C2,C5,C8"))
    sample = frozenset(sample_probes(base, 20, seed=2))
    reduced, dropped = experimental_reduce(board, sample, seed=2,
                                           budget=200_000, max_drops=2)
    assert reduced | set(dropped) == sample
    assert len(dropped) <= 2
