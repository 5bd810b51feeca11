"""Checks of redoku's outputs that do not rest on the program's own checks.

Regions, the two chute lemmas and the pair expansion are restated here from
the definitions in the paper.  Only `rewrite.closure` (whose trace is
replayed) and `symmetry.group_images` (whose image counts are compared with
the enumeration's orbit sizes) are taken from the program.

Every check returns a list of problems; an empty list means the output
passed.
"""

import math
from itertools import combinations

SIDE = 9
LABELS = ([f"R{i}" for i in range(1, 10)] + [f"C{i}" for i in range(1, 10)]
          + [f"B{i}" for i in range(1, 10)])

# Published counts per level: raw models, classes, Sudoku classes, catalog
# entries, and the catalog entry that first appears at that level.
NORTH_STAR = {
    6: (296_010, 320, 39, 7, None),
    7: (888_030, 623, 0, 8, "R1,C1,B2,B4,B6,B8,B9"),
}
# Pairs of the probed model R2,R5,R8,C2,C5,C8, the fewest of any Sudoku class.
MODEL_PAIRS = 648


def _region_cells(label):
    kind, i = label[0], int(label[1:]) - 1
    if kind == "R":
        return tuple(i * SIDE + c for c in range(SIDE))
    if kind == "C":
        return tuple(r * SIDE + i for r in range(SIDE))
    br, bc = divmod(i, 3)
    return tuple((3 * br + r) * SIDE + 3 * bc + c
                 for r in range(3) for c in range(3))


REGIONS = {label: _region_cells(label) for label in LABELS}

# Chutes: a band holds three rows and the three boxes beside them, a stack
# three columns and the three boxes above one another.
CHUTES = {}
for _k in range(3):
    CHUTES[f"H{_k + 1}"] = ({f"R{3 * _k + j}" for j in (1, 2, 3)},
                            {f"B{3 * _k + j}" for j in (1, 2, 3)})
    CHUTES[f"V{_k + 1}"] = ({f"C{3 * _k + j}" for j in (1, 2, 3)},
                            {f"B{_k + 1 + 3 * j}" for j in (0, 1, 2)})


def missing_set(text):
    labels = {t.strip().upper() for t in text.split(",") if t.strip()}
    unknown = labels - set(LABELS)
    if unknown:
        raise ValueError(f"unknown constraint labels {sorted(unknown)}")
    return labels


def parse_grid(line):
    """A complete grid as 81 values 1..9, or None when the line is not one."""
    if not isinstance(line, str) or len(line) != SIDE * SIDE:
        return None
    if any(ch not in "123456789" for ch in line):
        return None
    return [int(ch) for ch in line]


def _repeats(grid, label):
    values = [grid[cell] for cell in REGIONS[label]]
    return len(set(values)) < len(values)


def check_witness(line, missing):
    """A witness keeps every present region all-different and repeats a
    value in some absent one."""
    grid = parse_grid(line)
    if grid is None:
        return [f"witness {line!r} is not a complete grid"]
    problems = [f"witness repeats a value in present region {label}"
                for label in LABELS
                if label not in missing and _repeats(grid, label)]
    if not any(_repeats(grid, label) for label in missing):
        problems.append("witness repeats no value in an absent region, "
                        "so it is a Sudoku grid")
    return problems


def replay_trace(missing, steps):
    """Replay (chute, lemma, derived) steps; the last must restore the full
    model.

    Lemma I: a chute with all three lines present derives its one absent
    box.  Lemma II: a chute with all three boxes present derives its one
    absent line.
    """
    absent = set(missing)
    for i, (chute, lemma, derived) in enumerate(steps, 1):
        if chute not in CHUTES:
            return [f"step {i}: unknown chute {chute}"]
        lines, boxes = CHUTES[chute]
        if lemma == "LemmaI":
            premise, conclusion = lines, boxes
        elif lemma == "LemmaII":
            premise, conclusion = boxes, lines
        else:
            return [f"step {i}: unknown lemma {lemma}"]
        if premise & absent:
            return [f"step {i}: {lemma} {chute} lacks its premise "
                    f"{sorted(premise & absent)}"]
        if conclusion & absent != {derived}:
            return [f"step {i}: {lemma} {chute} cannot derive {derived} "
                    f"with {sorted(conclusion & absent)} absent"]
        absent.discard(derived)
    if absent:
        return [f"trace ends with {sorted(absent)} still absent"]
    return []


def closure_steps(missing_text):
    """The program's own closure trace for a model, as label triples."""
    from redoku.board import Board, parse_missing
    from redoku.rewrite import closure
    board = Board(3)
    _, steps = closure(parse_missing(board, missing_text))
    return [(s.chute.label, s.lemma, board.id_label(s.derived))
            for s in steps]


def orbit_size(missing_text):
    from redoku.board import Board, parse_missing
    from redoku.symmetry import group_images
    return len(group_images(parse_missing(Board(3), missing_text)))


def check_class(record, catalog_labels):
    """Problems with one class record of a classification report."""
    missing = missing_set(record["missing"])
    problems = []
    verdict = record["verdict"]
    if verdict == "sudoku":
        steps = closure_steps(record["missing"])
        if record["closure_steps"] != len(steps):
            problems.append(f"closure_steps {record['closure_steps']} but "
                            f"the trace has {len(steps)} steps")
        problems += replay_trace(missing, steps)
        if record["witness"] is not None:
            problems.append("a Sudoku class carries a witness")
    elif verdict == "not-sudoku":
        problems += check_witness(record["witness"], missing)
        if record["catalog_match"] not in catalog_labels:
            problems.append(f"catalog match {record['catalog_match']!r} "
                            "is not a catalog entry")
    elif verdict != "unresolved":
        problems.append(f"unknown verdict {verdict!r}")
    size = orbit_size(record["missing"])
    if record["orbit_size"] != size:
        problems.append(f"orbit_size {record['orbit_size']} but "
                        f"group_images gives {size}")
    return [f"class {record['missing']}: {p}" for p in problems]


def check_classify(report):
    """Check a `classify --json` report.

    Returns (classes, failed, problems): a class fails when it is
    unresolved or fails a check.
    """
    k = report["n_missing"]
    classes = report["classes"]
    catalog = {e["missing"]: e["witness"] for e in report["catalog"]}
    problems = []
    for label, witness in catalog.items():
        problems += [f"catalog entry {label}: {p}"
                     for p in check_witness(witness, missing_set(label))]
    failed = 0
    for record in classes:
        found = check_class(record, catalog)
        problems += found
        failed += bool(found) or record["verdict"] == "unresolved"
    raw = math.comb(len(LABELS), k)
    if report["raw_count"] != raw:
        problems.append(f"raw_count {report['raw_count']}, want {raw}")
    total = sum(r["orbit_size"] for r in classes)
    if total != raw:
        problems.append(f"orbit sizes sum to {total}, want C(27,{k}) = {raw}")
    sudoku = [r["missing"] for r in classes if r["verdict"] == "sudoku"]
    non_sudoku = [r["missing"] for r in classes
                  if r["verdict"] == "not-sudoku"]
    if report["class_count"] != len(classes):
        problems.append("class_count disagrees with the class list")
    if (report["sudoku_classes"] != sudoku
            or report["sudoku_count"] != len(sudoku)):
        problems.append("Sudoku summary disagrees with the class list")
    if (report["non_sudoku_classes"] != non_sudoku
            or report["non_sudoku_count"] != len(non_sudoku)):
        problems.append("non-Sudoku summary disagrees with the class list")
    if k >= 7 and sudoku:
        problems.append(f"level {k} has Sudoku classes {sudoku}")
    if k in NORTH_STAR:
        *want, newest = NORTH_STAR[k]
        got = [report["raw_count"], len(classes), len(sudoku), len(catalog)]
        if got != want:
            problems.append(f"level {k} counts (raw, classes, Sudoku, "
                            f"catalog) are {got}, want {want}")
        if newest is not None and list(catalog)[-1:] != [newest]:
            problems.append(f"last catalog entry is not {newest}")
    return len(classes), failed, problems


def model_pairs(missing):
    """Cell pairs (flat indices, smaller first) that the present regions
    force apart, each once."""
    pairs = set()
    for label in LABELS:
        if label not in missing:
            pairs.update(combinations(REGIONS[label], 2))
    return pairs


def read_puzzles(path):
    """Corpus puzzles as 81 values with 0 for blanks."""
    puzzles = []
    with open(path, encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if len(line) == SIDE * SIDE and all(
                    ch in "0123456789." for ch in line):
                puzzles.append([0 if ch == "." else int(ch) for ch in line])
    return puzzles


def check_probe(record, pairs, puzzles=None):
    """Problems with one probe record; `pairs` is the whole expanded model."""
    (r1, c1), (r2, c2) = record["pair"]
    pair = tuple(sorted(((r1 - 1) * SIDE + c1 - 1, (r2 - 1) * SIDE + c2 - 1)))
    name = f"probe {record['pair']}"
    if pair not in pairs:
        return [f"{name}: pair is not in the model"]
    if record["verdict"] == "inconclusive":
        return []
    if record["verdict"] != "confirmed-needed":
        return [f"{name}: unknown verdict {record['verdict']!r}"]
    grid = parse_grid(record["witness"])
    if grid is None:
        return [f"{name}: witness is not a complete grid"]
    problems = []
    if grid[pair[0]] != grid[pair[1]]:
        problems.append(f"{name}: witness keeps the probed pair unequal")
    equal = [p for p in pairs if p != pair and grid[p[0]] == grid[p[1]]]
    if equal:
        problems.append(f"{name}: witness makes {len(equal)} other pairs "
                        f"equal, e.g. {equal[0]}")
    index = record["seed_index"]
    if puzzles is None:
        if index is not None:
            problems.append(f"{name}: seed_index {index} without a corpus")
    elif not isinstance(index, int) or not 0 <= index < len(puzzles):
        problems.append(f"{name}: seed_index {index!r} names no puzzle")
    elif any(g and g != v for g, v in zip(puzzles[index], grid)):
        problems.append(f"{name}: witness does not extend puzzle {index}")
    return problems


def check_probes(records, model, puzzles=None):
    """Check `probe --jsonl` records.  Returns (probes, failed, problems):
    a probe fails when it is inconclusive or fails a check."""
    pairs = model_pairs(missing_set(model))
    problems = []
    if len(pairs) != MODEL_PAIRS:
        problems.append(f"model {model} expands to {len(pairs)} pairs, "
                        f"want {MODEL_PAIRS}")
    failed = 0
    for record in records:
        found = check_probe(record, pairs, puzzles)
        problems += found
        failed += bool(found) or record["verdict"] == "inconclusive"
    return len(records), failed, problems


def same_report(a, b):
    """True when two report texts differ at most in elapsed_seconds."""
    def stable(text):
        return [line for line in text.splitlines()
                if not line.lstrip().startswith('"elapsed_seconds":')]
    return stable(a) == stable(b)
