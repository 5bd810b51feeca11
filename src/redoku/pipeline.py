# Classification pipeline: one level-by-level sweep enumerates the canonical
# classes of models with a given number of absent big constraints, closes
# and classifies each one, and grows the minimal catalog of stuck models;
# the report aggregates one level of it.

import math
import time
from dataclasses import dataclass
from functools import lru_cache

from .board import Board, ConstraintSet, Grid
from .rewrite import close_mask
from .solver import _checked_witness, find_witness
from .symmetry import _canonical_key, _key_to_mask, carrier, orbit_size
from .symmetry import group_images  # noqa: F401 (perfbench/trace.py wraps it)

SUDOKU = "sudoku"
NOT_SUDOKU = "not-sudoku"
UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class CatalogEntry:
    """A witnessed, subset-minimal stuck model class."""

    cset: ConstraintSet
    witness: Grid

    @property
    def label(self) -> str:
        return self.cset.missing_labels()


@dataclass(frozen=True)
class ClassRecord:
    """Classification result for one canonical class."""

    cset: ConstraintSet
    orbit_size: int
    verdict: str
    fixpoint: ConstraintSet
    steps: int
    catalog_match: str | None
    witness: Grid | None

    def to_json_dict(self) -> dict:
        return {
            "missing": self.cset.missing_labels(),
            "orbit_size": self.orbit_size,
            "verdict": self.verdict,
            "fixpoint_missing": self.fixpoint.missing_labels(),
            "closure_steps": self.steps,
            "catalog_match": self.catalog_match,
            "witness": self.witness.to_line() if self.witness else None,
        }


@dataclass(frozen=True)
class ClassificationReport:
    board: Board
    n_missing: int
    raw_count: int
    records: tuple
    catalog: tuple
    elapsed: float

    @property
    def class_count(self) -> int:
        return len(self.records)

    @property
    def sudoku_classes(self) -> tuple[ConstraintSet, ...]:
        return tuple(r.cset for r in self.records if r.verdict == SUDOKU)

    @property
    def non_sudoku_classes(self) -> tuple[ConstraintSet, ...]:
        return tuple(r.cset for r in self.records if r.verdict == NOT_SUDOKU)

    @property
    def unresolved_classes(self) -> tuple[ConstraintSet, ...]:
        return tuple(r.cset for r in self.records if r.verdict == UNRESOLVED)

    def to_json_dict(self) -> dict:
        return {
            "order": self.board.n,
            "n_missing": self.n_missing,
            "raw_count": self.raw_count,
            "class_count": self.class_count,
            "sudoku_count": len(self.sudoku_classes),
            "non_sudoku_count": len(self.non_sudoku_classes),
            "unresolved_count": len(self.unresolved_classes),
            "sudoku_classes": [c.missing_labels() for c in self.sudoku_classes],
            "non_sudoku_classes": [
                c.missing_labels() for c in self.non_sudoku_classes],
            "catalog": [
                {"missing": e.label, "witness": e.witness.to_line()}
                for e in self.catalog],
            "classes": [r.to_json_dict() for r in self.records],
            "elapsed_seconds": self.elapsed,
        }


@lru_cache(maxsize=None)
def _level(n: int, k: int):
    """Classes with k absent constraints, built from those with k - 1.

    Returns (records, catalog): one ClassRecord per class, and the catalog
    through level k.  Each class is found by dropping one present
    constraint from a level k - 1 class and canonicalizing.  The records
    come in canonical key order, which is the order of first appearance
    among lexicographic missing-id combinations, because the key packs R1
    most significant.  orbit_size counts each class's images as its
    distinct coarse-image keys times its line arrangements, without the
    enumeration, so the sizes summing to C(num_big, k) still checks that
    no class is missed or doubled.

    Then each class is closed under the derivation rules, in mask order.
    A class reaching the full set is Sudoku-equivalent.  A stuck class
    matches the first catalog entry with a carrier g into its fixpoint,
    absent(g(entry)) within the fixpoint's; its counterexample grid is the
    entry's witness moved by g, verified against the class and the full
    model.  A closed stuck class no entry carries into is searched with
    find_witness and becomes a new entry; one whose search fails within
    budget is left out, so its classes are unresolved, with no witness.
    An entry with k absences carries only into fixpoints with at least k,
    so the growing catalog gives each class the match the finished one
    would.
    """
    board = Board(n)
    if not 0 <= k <= board.num_big:
        raise ValueError(f"n_missing {k} out of range 0..{board.num_big}")
    if k == 0:
        masks, catalog = [board.full_mask], ()
    else:
        prev, catalog = _level(n, k - 1)
        keys = set()
        for record in prev:
            mask = present = record.cset.mask
            while present:
                bit = present & -present
                keys.add(_canonical_key(n, mask ^ bit))
                present ^= bit
        masks = [_key_to_mask(key, board.num_big) for key in sorted(keys)]
    orbits = {mask: orbit_size(ConstraintSet(board, mask)) for mask in masks}
    if sum(orbits.values()) != math.comb(board.num_big, k):
        raise RuntimeError(
            f"orbit sizes at level {k} sum to {sum(orbits.values())}, "
            f"not C({board.num_big}, {k})")
    catalog, records = list(catalog), {}
    for mask in sorted(masks):
        cset = ConstraintSet(board, mask)
        fixpoint = ConstraintSet(board, close_mask(n, mask))
        verdict, entry, witness = SUDOKU, None, None
        if not fixpoint.is_full():
            entry, g = next(((e, g) for e in catalog
                             if (g := carrier(e.cset, fixpoint)) is not None),
                            (None, None))
            if entry is None and fixpoint == cset:
                found = find_witness(cset)
                if found is not None:
                    entry, g = CatalogEntry(cset, found), carrier(cset, cset)
                    catalog.append(entry)
            verdict = UNRESOLVED
            if entry is not None:
                verdict = NOT_SUDOKU
                witness = _checked_witness(g.move(entry.witness), cset)
        records[mask] = ClassRecord(
            cset, orbits[mask], verdict, fixpoint, k - fixpoint.num_missing,
            entry.label if entry else None, witness)
    return tuple(records[mask] for mask in masks), tuple(catalog)


def enumerate_classes(board: Board, n_missing: int) -> tuple[ConstraintSet, ...]:
    """One canonical representative per symmetry class of models with
    n_missing absent big constraints, in order of first appearance under
    lexicographic iteration of missing-id combinations."""
    return tuple(r.cset for r in _level(board.n, n_missing)[0])


def class_orbit_sizes(board: Board, n_missing: int) -> tuple[int, ...]:
    """Raw set count per class, aligned with enumerate_classes order."""
    return tuple(r.orbit_size for r in _level(board.n, n_missing)[0])


def raw_count(board: Board, n_missing: int) -> int:
    return math.comb(board.num_big, n_missing)


def minimal_catalog(board: Board, max_missing: int) -> tuple[CatalogEntry, ...]:
    """The witnessed, subset-minimal stuck model classes reachable from
    models with at most max_missing absent constraints.

    Every entry carries a verified counterexample grid; minimality means no
    other witnessed fixpoint class embeds into it with fewer absences.
    """
    if max_missing < 2:
        raise ValueError("max_missing must be at least 2")
    return _level(board.n, max_missing)[1]


def run_classification(board: Board, n_missing: int) -> ClassificationReport:
    """Classify every canonical class with n_missing absent constraints,
    as the level sweep does (see _level); the report's catalog reaches at
    least level 2, where the first entry appears."""
    start = time.monotonic()
    records = _level(board.n, n_missing)[0]
    catalog = _level(board.n, max(2, n_missing))[1]
    return ClassificationReport(
        board, n_missing, raw_count(board, n_missing), records, catalog,
        time.monotonic() - start)
