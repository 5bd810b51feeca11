# Classification pipeline: enumerate canonical classes of models with a given
# number of absent big constraints, close and classify each one, discover the
# minimal catalog of stuck models, and aggregate everything into a report.

import math
import time
from dataclasses import dataclass
from functools import lru_cache

from .board import Board, ConstraintSet, Grid
from .rewrite import close_mask
from .solver import _checked_witness, find_witness
from .symmetry import _canonical_key, _key_to_mask, carrier, group_images

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


def _covers(entry_images, mask: int) -> bool:
    # A model is covered when some image of the entry keeps at most the
    # model's own constraints: absent(image) within absent(model).
    return any(mask & ~image == 0 for image in entry_images)


@lru_cache(maxsize=None)
def _level(n: int, k: int):
    """Classes with k absent constraints, built from those with k - 1.

    Returns (reps, orbit sizes, catalog).  Each class is found by dropping
    one present constraint from a level k - 1 representative and
    canonicalizing.  Sorting the canonical keys gives the order of first
    appearance among lexicographic missing-id combinations, because the key
    packs R1 most significant.  Orbit sizes come from group_images, so their
    sum is an independent check on the enumeration.

    The catalog grows along the way: a closed stuck model with k absences
    is itself a class at level k, so the closed representatives no earlier
    entry carries into are the new entries, taken in mask order; one whose
    witness search fails within budget is skipped.
    """
    board = Board(n)
    if not 0 <= k <= board.num_big:
        raise ValueError(f"n_missing {k} out of range 0..{board.num_big}")
    if k == 0:
        return (board.full_mask,), (1,), ()
    prev, _, catalog = _level(n, k - 1)
    keys = set()
    for mask in prev:
        present = mask
        while present:
            bit = present & -present
            keys.add(_canonical_key(n, mask ^ bit))
            present ^= bit
    reps = tuple(_key_to_mask(key, board.num_big) for key in sorted(keys))
    orbits = tuple(len(group_images(ConstraintSet(board, mask)))
                   for mask in reps)
    if sum(orbits) != math.comb(board.num_big, k):
        raise RuntimeError(
            f"orbit sizes at level {k} sum to {sum(orbits)}, "
            f"not C({board.num_big}, {k})")
    catalog = list(catalog)
    for mask in sorted(reps):
        cset = ConstraintSet(board, mask)
        if (k < 2 or close_mask(n, mask) != mask
                or any(carrier(e.cset, cset) for e in catalog)):
            continue
        witness = find_witness(cset)
        if witness is not None:  # else its classes are left unresolved
            catalog.append(CatalogEntry(cset, witness))
    return reps, orbits, tuple(catalog)


def enumerate_classes(board: Board, n_missing: int) -> tuple[ConstraintSet, ...]:
    """One canonical representative per symmetry class of models with
    n_missing absent big constraints, in order of first appearance under
    lexicographic iteration of missing-id combinations."""
    reps = _level(board.n, n_missing)[0]
    return tuple(ConstraintSet(board, mask) for mask in reps)


def class_orbit_sizes(board: Board, n_missing: int) -> tuple[int, ...]:
    """Raw set count per class, aligned with enumerate_classes order."""
    return _level(board.n, n_missing)[1]


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
    return _level(board.n, max_missing)[2]


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
def _run_classification(n: int, n_missing: int):
    board = Board(n)
    start = time.monotonic()
    full = board.full_mask
    reps, counts, _ = _level(n, n_missing)
    catalog = _level(n, max(2, n_missing))[2]
    records = []
    for mask, orbit in zip(reps, counts):
        cset = ConstraintSet(board, mask)
        fix_mask = close_mask(n, mask)
        fixpoint = ConstraintSet(board, fix_mask)
        steps = cset.num_missing - fixpoint.num_missing
        if fix_mask == full:
            records.append(ClassRecord(
                cset, orbit, SUDOKU, fixpoint, steps, None, None))
            continue
        for entry in catalog:
            g = carrier(entry.cset, fixpoint)
            if g is not None:
                break
        else:
            records.append(ClassRecord(
                cset, orbit, UNRESOLVED, fixpoint, steps, None, None))
            continue
        witness = _checked_witness(g.move(entry.witness), cset)
        records.append(ClassRecord(
            cset, orbit, NOT_SUDOKU, fixpoint, steps, entry.label, witness))
    elapsed = time.monotonic() - start
    return ClassificationReport(
        board, n_missing, raw_count(board, n_missing),
        tuple(records), catalog, elapsed)


def run_classification(board: Board, n_missing: int) -> ClassificationReport:
    """Classify every canonical class with n_missing absent constraints.

    Each class is closed under the derivation rules; classes reaching the
    full set are Sudoku-equivalent.  A stuck class matches the first
    catalog entry with a carrier g into its fixpoint, absent(g(entry))
    within the fixpoint's absent constraints; its counterexample grid is
    the entry's witness moved by g, then verified against the class and
    the full model, so every negative verdict is independently checkable.
    No search runs here: find_witness runs only for catalog entries.  A
    closed stuck class whose witness search fails within budget is left
    out of the catalog, so a fixpoint no entry has a carrier into is
    recorded as unresolved, with no witness.
    """
    return _run_classification(board.n, n_missing)


def derive_from_catalog(board: Board, n_missing: int,
                        catalog=None) -> dict[str, list[ConstraintSet]]:
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
        matched = any(_covers(imgs, cset.mask) for imgs in images)
        out[NOT_SUDOKU if matched else SUDOKU].append(cset)
    return out
