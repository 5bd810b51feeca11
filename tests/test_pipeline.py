import math
import re

import pytest

import redoku.pipeline
from redoku.board import Board, ConstraintSet, parse_missing, verify_grid
from redoku.pipeline import (NOT_SUDOKU, SUDOKU, UNRESOLVED, enumerate_classes,
                             minimal_catalog, raw_count, run_classification)
from redoku.symmetry import Symmetry, _canonical_key, carrier

from helpers import (brute_force_classes, canonical_key, class_orbit_sizes,
                     derive_from_catalog)


def test_enumeration_counts(board):
    assert len(enumerate_classes(board, 0)) == 1
    assert len(enumerate_classes(board, 1)) == 2
    assert len(enumerate_classes(board, 2)) == 7
    assert len(enumerate_classes(board, 3)) == 22


def test_orbit_sizes_sum_to_raw_count(board):
    for k in range(5):
        sizes = class_orbit_sizes(board, k)
        assert sum(sizes) == raw_count(board, k) == math.comb(27, k)


def test_orbit_size_sum_check_fires(board, monkeypatch, fresh_pipeline_caches):
    # One level-3 class counted one image too many must break the sum: the
    # size the sweep counts when it first keys R1,R2,R3's class is raised.
    wrong = canonical_key(parse_missing(board, "R1,R2,R3"))
    true_key = redoku.pipeline._canonical_key

    def corrupted(n, mask, sizes=None):
        first = sizes is not None and wrong not in sizes
        key = true_key(n, mask, sizes)
        if first and key == wrong:
            sizes[key] += 1
        return key
    monkeypatch.setattr(redoku.pipeline, "_canonical_key", corrupted)
    with pytest.raises(RuntimeError, match=re.escape("not C(27, 3)")):
        redoku.pipeline._level(3, 3)


@pytest.mark.parametrize("order, classes, sudoku", [
    (2, [1, 2, 7, 14, 27, 35], [1, 2, 6, 9, 8, 0]),
    (3, [1, 2, 7, 22, 60, 146, 320, 623], [1, 2, 6, 16, 33, 48, 39, 0]),
    (4, [1, 2, 7, 22, 73, 210, 599, 1_565],
     [1, 2, 6, 16, 45, 101, 195, 275])], ids=["order2", "order3", "order4"])
def test_sweeps_witness_every_class_without_a_race(order, classes, sudoku):
    # Classes and Sudoku classes per level, with every other class
    # witnessed: value swaps witness each catalog entry, and a class no
    # swap grid splits would be unresolved.
    counts = []
    for k in range(len(classes)):
        records = redoku.pipeline._level(order, k)[0]
        verdicts = [r.verdict for r in records]
        assert UNRESOLVED not in verdicts
        counts.append((len(records), verdicts.count(SUDOKU)))
    assert counts == list(zip(classes, sudoku))


@pytest.mark.parametrize("order, top", [(2, 12), (3, 4)])
def test_sweep_matches_brute_force_enumeration(order, top):
    board = Board(order)
    for k in range(top + 1):
        masks, counts = brute_force_classes(board, k)
        assert [c.mask for c in enumerate_classes(board, k)] == masks
        assert list(class_orbit_sizes(board, k)) == counts


@pytest.mark.parametrize("order, top", [(2, 12), (3, 6)])
def test_sweep_keys_every_single_drop(order, top):
    # Keying every single-constraint drop of every class one level down
    # must give exactly the classes the sweep finds from fewer drops.
    board = Board(order)
    for k in range(1, top + 1):
        keys = {_canonical_key(order, cset.mask ^ 1 << cid)
                for cset in enumerate_classes(board, k - 1)
                for cid in cset.present_ids}
        assert sorted(keys) == [canonical_key(cset)
                                for cset in enumerate_classes(board, k)]


def test_enumeration_reps_are_distinct_classes(board):
    reps = enumerate_classes(board, 2)
    keys = {canonical_key(c) for c in reps}
    assert len(keys) == len(reps)
    assert all(c.num_missing == 2 for c in reps)


def test_enumeration_rejects_bad_count(board):
    with pytest.raises(ValueError):
        enumerate_classes(board, -1)
    with pytest.raises(ValueError):
        enumerate_classes(board, 28)


def test_zero_and_one_missing_classify_sudoku(board):
    report = run_classification(board, 0)
    assert report.class_count == 1
    assert len(report.sudoku_classes) == 1
    report = run_classification(board, 1)
    assert report.class_count == 2
    assert len(report.sudoku_classes) == 2
    assert sorted(r.orbit_size for r in report.records) == [9, 18]


def test_small_missing_counts(board):
    for k, (sudoku, non) in {2: (6, 1), 3: (16, 6), 4: (33, 27),
                             5: (48, 98)}.items():
        report = run_classification(board, k)
        assert len(report.sudoku_classes) == sudoku
        assert len(report.non_sudoku_classes) == non
        assert not report.unresolved_classes


def test_catalog_smallest_member_is_parallel_line_pair(board):
    catalog = minimal_catalog(board, 2)
    assert len(catalog) == 1
    assert catalog[0].label == "R1,R2"
    # The same class contains every pair of parallel lines in one chute.
    assert canonical_key(catalog[0].cset) == canonical_key(
        parse_missing(board, "C1,C3"))


def test_catalog_at_six(board):
    catalog = minimal_catalog(board, 6)
    assert [e.label for e in catalog] == [
        "R1,R2",
        "R1,C1,B1",
        "B1,B2,B4,B5",
        "R1,R4,B1,B4",
        "R1,C1,B2,B4,B5",
        "B1,B2,B4,B6,B8,B9",
        "R1,R4,B1,B5,B7,B8",
    ]


def test_catalog_grows_by_one_at_seven(board):
    six = minimal_catalog(board, 6)
    seven = minimal_catalog(board, 7)
    assert len(seven) == len(six) + 1 == 8
    assert [e.label for e in seven[:7]] == [e.label for e in six]
    assert seven[-1].label == "R1,C1,B2,B4,B6,B8,B9"


def test_catalog_classes_keep_their_entry_witness(board, monkeypatch,
                                                  fresh_pipeline_caches):
    # Class witnesses are catalog witnesses moved by a symmetry, so the
    # sweep searches only for the catalog entries, in catalog order; the
    # two level-6 classes that are catalog entries keep the entry's own
    # grid.
    searched = []
    real_find_witness = redoku.pipeline.find_witness
    def find_witness(cset):
        searched.append(cset.missing_labels())
        return real_find_witness(cset)
    monkeypatch.setattr(redoku.pipeline, "find_witness", find_witness)
    report = run_classification(board, 6)
    entries = {e.label: e.witness for e in report.catalog}
    assert searched == [e.label for e in report.catalog] == [
        "R1,R2", "R1,C1,B1", "B1,B2,B4,B5", "R1,R4,B1,B4",
        "R1,C1,B2,B4,B5", "B1,B2,B4,B6,B8,B9", "R1,R4,B1,B5,B7,B8"]
    reused = {r.cset.missing_labels(): r.witness for r in report.records
              if r.cset.missing_labels() in entries}
    assert sorted(reused) == ["B1,B2,B4,B6,B8,B9", "R1,R4,B1,B5,B7,B8"]
    assert all(witness == entries[label]
               for label, witness in reused.items())
    full = ConstraintSet.full(board)
    for record in report.records:
        if record.verdict == NOT_SUDOKU:
            assert verify_grid(record.witness, record.cset) == frozenset()
            assert verify_grid(record.witness, full)


def test_catalog_witnesses_are_valid(board):
    full = ConstraintSet.full(board)
    for entry in minimal_catalog(board, 6):
        violated = verify_grid(entry.witness, entry.cset)
        assert violated == frozenset()
        assert verify_grid(entry.witness, full)


def test_catalog_entries_are_subset_minimal(board):
    from redoku.symmetry import group_images
    catalog = minimal_catalog(board, 7)
    images = [group_images(e.cset) for e in catalog]
    for i, entry in enumerate(catalog):
        for j, imgs in enumerate(images):
            if i == j:
                continue
            # No other entry's image may be missing-subset of this entry.
            assert not any(entry.cset.mask & ~img == 0 for img in imgs)


def test_order_two_catalog(board2):
    # Order 2 has 12 constraints, so horizon 12 reaches every model.
    catalog = minimal_catalog(board2, 12)
    assert [e.label for e in catalog] == [
        "R1,R2",
        "R1,C1,B1",
        "B1,B2,B3,B4",
        "R1,R3,B1,B3",
        "R1,C1,B2,B3,B4",
    ]
    full = ConstraintSet.full(board2)
    for entry in catalog:
        assert verify_grid(entry.witness, entry.cset) == frozenset()
        assert verify_grid(entry.witness, full)


def test_catalog_rejects_small_horizon(board):
    with pytest.raises(ValueError):
        minimal_catalog(board, 1)


@pytest.mark.parametrize("order, k", [(2, k) for k in range(13)]
                         + [(3, k) for k in (2, 3, 4)])
def test_derived_classification_matches_direct(order, k):
    board = Board(order)
    direct = run_classification(board, k)
    derived = derive_from_catalog(board, k)
    assert {c.mask for c in derived[SUDOKU]} == {
        c.mask for c in direct.sudoku_classes}
    assert {c.mask for c in derived[NOT_SUDOKU]} == {
        c.mask for c in direct.non_sudoku_classes}


@pytest.mark.parametrize("order, k", [(2, k) for k in range(13)]
                         + [(3, k) for k in range(7)])
def test_shared_matches_equal_per_class_matches(order, k):
    # The sweep matches each fixpoint once; matching every stuck class on
    # its own against the level's catalog must give the same entry and grid.
    records, catalog, _ = redoku.pipeline._level(order, k)
    for record in records:
        if record.verdict == SUDOKU:
            continue
        entry, g = next(((e, g) for e in catalog
                         if (g := carrier(e.cset, record.fixpoint))
                         is not None), (None, None))
        assert record.catalog_match == (entry.label if entry else None)
        assert record.witness == (g.move(entry.witness) if entry else None)


def test_level_matches_each_fixpoint_once(monkeypatch, fresh_pipeline_caches):
    # Level 6 of order 3: 281 stuck classes close to 52 distinct fixpoints,
    # 19 of them matched below level 6, whose matches pass on.  Matching
    # each class on its own would make 418 carrier calls and 281 moves;
    # matching each fixpoint again at every level made 107 and 52.
    _, _, below = redoku.pipeline._level(3, 5)
    calls = {"carrier": 0, "move": 0}
    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper
    monkeypatch.setattr(redoku.pipeline, "carrier",
                        counted("carrier", redoku.pipeline.carrier))
    monkeypatch.setattr(Symmetry, "move", counted("move", Symmetry.move))
    records, _, _ = redoku.pipeline._level(3, 6)
    fixpoints = {r.fixpoint.mask for r in records
                 if r.catalog_match is not None}
    assert sum(r.verdict == NOT_SUDOKU for r in records) == 281
    assert len(fixpoints) == 52 and len(fixpoints - set(below)) == 33
    assert calls == {"carrier": 70, "move": 33}


def test_sweep_applies_few_coarse_elements(monkeypatch, fresh_pipeline_caches):
    # Through order 3's level 6 the sweep applies 104 symmetries to masks:
    # boxes are tested before any coarse element is applied, and fixpoint
    # matches pass on between levels.  Applying each element that passed
    # the counts, and matching each fixpoint again at every level, took
    # 1,232.
    applied, real = [], Symmetry.apply_mask

    def apply_mask(self, mask):
        applied.append(self)
        return real(self, mask)
    monkeypatch.setattr(Symmetry, "apply_mask", apply_mask)
    for k in range(7):
        redoku.pipeline._level(3, k)
    assert len(applied) == 104


def test_records_carry_verifiable_evidence(board):
    report = run_classification(board, 3)
    full = ConstraintSet.full(board)
    for record in report.records:
        if record.verdict == SUDOKU:
            assert record.fixpoint.is_full()
            assert record.witness is None
        else:
            assert record.verdict == NOT_SUDOKU
            assert not record.fixpoint.is_full()
            assert record.catalog_match is not None
            assert verify_grid(record.witness, record.cset) == frozenset()
            assert verify_grid(record.witness, full)


def test_report_json_shape(board):
    report = run_classification(board, 2)
    data = report.to_json_dict()
    assert data["order"] == 3
    assert data["n_missing"] == 2
    assert data["raw_count"] == math.comb(27, 2) == 351
    assert data["class_count"] == 7
    assert data["sudoku_count"] == 6
    assert data["non_sudoku_count"] == 1
    assert data["unresolved_count"] == 0
    assert len(data["classes"]) == 7
    assert all({"missing", "orbit_size", "verdict", "fixpoint_missing",
                "closure_steps", "catalog_match", "witness"} == set(c)
               for c in data["classes"])
    assert data["catalog"][0]["missing"] == "R1,R2"


def test_order_two_classification(board2):
    # At order 2 the derivation rules are weaker relative to the board,
    # but the machinery runs end to end.
    report = run_classification(board2, 1)
    assert report.class_count == 2
    assert not report.unresolved_classes
