# Propagation-based backtracking solver over constraint models.  Problems mix
# big (all-different) constraints, extra binary inequalities, forced-equal cell
# pairs, and given values; outcomes carry search statistics and are always
# re-verified before being reported.  value_swap makes witnesses by Kempe
# chain interchanges with no search; solve_equal races a lazy list of problems
# up one staggered Luby restart ladder.  A cell pair is (a, b), flat cells
# row-major from 0.

import random
from collections import namedtuple
from functools import lru_cache
from itertools import combinations, islice
from typing import NamedTuple

from .board import Board, ConstraintSet, Grid, region_cells, verify_grid
from .rewrite import close_mask

SOLUTION = "solution"
UNSATISFIABLE = "unsatisfiable"
BUDGET = "budget"

DEFAULT_NODE_BUDGET = 10_000_000


class SolverProblem(namedtuple("SolverProblem",
                               "bigs extra_smalls equalities givens")):
    """Immutable problem statement handed to solve(); extra_smalls
    (inequalities) and equalities hold flat (a, b) cell pairs."""

    __slots__ = ()

    def __new__(cls, bigs: ConstraintSet, extra_smalls: tuple = (),
                equalities: tuple = (), givens: Grid | None = None):
        if givens is not None and givens.board != bigs.board:
            raise ValueError("givens grid belongs to a different board")
        return super().__new__(cls, bigs, extra_smalls, equalities, givens)

    @property
    def board(self) -> Board:
        return self.bigs.board


class SolveStats(NamedTuple):
    nodes: int
    propagations: int
    degenerate: bool = False


class SolverOutcome(NamedTuple):
    status: str
    grid: Grid | None
    stats: SolveStats

    @property
    def is_solution(self) -> bool:
        return self.status == SOLUTION


class _Engine:
    """Mutable search state for one solve() call (single-threaded)."""

    def __init__(self, problem: SolverProblem, value_order_seed: int | None = None):
        board = problem.board
        side, ncells = board.side, board.num_cells

        # Union-find over cells; forced-equal cells share one variable whose
        # root is the smallest member index (keeps ordering deterministic).
        parent = list(range(ncells))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in problem.equalities:
            a, b = find(a), find(b)
            if a != b:
                if a > b:
                    a, b = b, a
                parent[b] = a

        self.board, self.problem, self.side = board, problem, side
        self.cls_of = [find(c) for c in range(ncells)]
        roots = sorted(set(self.cls_of))
        index_of = {root: i for i, root in enumerate(roots)}
        self.var_of = [index_of[r] for r in self.cls_of]
        self.nvars = len(roots)

        self.degenerate = False
        regions = []
        for cid in problem.bigs.present_ids:
            members = [self.var_of[cell] for cell in region_cells(cid, board)]
            if len(set(members)) < side:
                # An equality glued two cells of one covered region.
                self.degenerate = True
            regions.append(members)

        neighbors = [set() for _ in range(self.nvars)]
        for members in regions:
            for a, b in combinations(set(members), 2):
                neighbors[a].add(b)
                neighbors[b].add(a)
        for a, b in problem.extra_smalls:
            a, b = self.var_of[a], self.var_of[b]
            if a == b:
                # The inequality's endpoints were forced equal.
                self.degenerate = True
                continue
            neighbors[a].add(b)
            neighbors[b].add(a)

        self.regions = [tuple(m) for m in regions]
        self.var_regions = [[] for _ in range(self.nvars)]
        for ri, members in enumerate(self.regions):
            for v in set(members):
                self.var_regions[v].append(ri)
        self.neighbors = [tuple(sorted(s)) for s in neighbors]

        self.value_orders = None
        if value_order_seed is not None:
            rng, self.value_orders = random.Random(value_order_seed), []
            for _ in range(self.nvars):
                order = list(range(side))
                rng.shuffle(order)
                self.value_orders.append(order)

        self.dom = [(1 << side) - 1] * self.nvars
        self.nassigned = 0
        self.trail, self.queue, self.dirty = [], [], set()
        self.nodes = 0
        self.propagations = 0

    def seed_givens(self) -> bool:
        givens = self.problem.givens
        if givens is None:
            return True
        for cell, value in enumerate(givens.values):
            if not value:
                continue
            var = self.var_of[cell]
            new = self.dom[var] & (1 << (value - 1))
            if new == self.dom[var]:
                continue
            if not self._set_dom(var, new):
                return False
        return True

    def _set_dom(self, var: int, new: int) -> bool:
        old = self.dom[var]
        self.trail.append((var, old))
        self.dom[var] = new
        self.propagations += 1
        if not new:
            return False
        if new & (new - 1) == 0 and old & (old - 1) != 0:
            self.nassigned += 1
            self.queue.append(var)
        self.dirty.update(self.var_regions[var])
        return True

    def _undo(self, mark: int) -> None:
        trail, dom = self.trail, self.dom
        while len(trail) > mark:
            var, old = trail.pop()
            new = dom[var]
            if new and new & (new - 1) == 0 and old & (old - 1) != 0:
                self.nassigned -= 1
            dom[var] = old
        self.queue.clear()
        self.dirty.clear()

    def propagate(self) -> bool:
        dom, full = self.dom, (1 << self.side) - 1
        while True:
            while self.queue:
                var = self.queue.pop()
                bit = dom[var]
                for nb in self.neighbors[var]:
                    d = dom[nb]
                    if d & bit:
                        if not self._set_dom(nb, d & ~bit):
                            return False
            # Hidden singles, one pass per region: `twice` gathers the values
            # with two homes, and a member that is the only home of two fails.
            if not self.dirty:
                return True
            sweep, self.dirty = self.dirty, set()
            for ri in sorted(sweep):
                members = self.regions[ri]
                once = twice = 0
                for var in members:
                    d = dom[var]
                    twice |= once & d
                    once |= d
                if once != full:
                    return False
                singles = once & ~twice
                for var in members if singles else ():
                    bit = dom[var] & singles
                    if bit & (bit - 1):
                        return False
                    if bit and dom[var] != bit:
                        self._set_dom(var, bit)
            if not self.queue and not self.dirty:
                return True

    def pick_var(self) -> int:
        best, best_size = -1, self.side + 1
        for var, d in enumerate(self.dom):
            if d & (d - 1):
                size = d.bit_count()
                if size < best_size:
                    best, best_size = var, size
                    if size == 2:
                        break
        return best

    def search(self, budget: int) -> str:
        if self.nassigned == self.nvars:
            return SOLUTION
        var = self.pick_var()
        dom = self.dom[var]
        positions = (range(self.side) if self.value_orders is None
                     else self.value_orders[var])
        for bit_pos in positions:
            bit = 1 << bit_pos
            if not dom & bit:
                continue
            if self.nodes >= budget:
                return BUDGET
            self.nodes += 1
            mark = len(self.trail)
            self._set_dom(var, bit)
            if self.propagate():
                result = self.search(budget)
                if result != UNSATISFIABLE:
                    return result
            self._undo(mark)
        return UNSATISFIABLE

    def extract_grid(self) -> Grid:
        return Grid(self.board,
                    tuple(self.dom[var].bit_length() for var in self.var_of))


def _check_solution(problem: SolverProblem, grid: Grid) -> None:
    # Internal guard: a reported solution is re-verified from scratch.
    if verify_grid(grid, problem.bigs):
        raise RuntimeError("solver produced a grid violating a big constraint")
    values = grid.values
    if any(values[a] == values[b] for a, b in problem.extra_smalls):
        raise RuntimeError("solver produced a grid violating an inequality")
    if any(values[a] != values[b] for a, b in problem.equalities):
        raise RuntimeError("solver produced a grid breaking a forced equality")
    if problem.givens is not None and any(
            v and values[c] != v for c, v in enumerate(problem.givens.values)):
        raise RuntimeError("solver produced a grid not extending the givens")


def solve(problem: SolverProblem, budget: int = DEFAULT_NODE_BUDGET,
          value_order_seed: int | None = None) -> SolverOutcome:
    """Search for a complete grid satisfying the problem.

    Returns a Solution (with the grid), Unsatisfiable (search exhausted), or
    Budget (node limit hit, inconclusive).  Structurally contradictory input,
    such as an equality joining two cells of one covered region, returns
    Unsatisfiable immediately with the degenerate flag set in stats.

    Values are tried ascending by default; value_order_seed switches to a
    deterministic per-variable shuffle, useful for restart schedules on
    satisfiable instances.
    """
    engine = _Engine(problem, value_order_seed)
    if engine.degenerate:
        return SolverOutcome(UNSATISFIABLE, None,
                             SolveStats(0, 0, degenerate=True))
    if not engine.seed_givens() or not engine.propagate():
        return SolverOutcome(
            UNSATISFIABLE, None, SolveStats(0, engine.propagations))
    status = engine.search(budget)
    stats = SolveStats(engine.nodes, engine.propagations)
    if status != SOLUTION:
        return SolverOutcome(status, None, stats)
    grid = engine.extract_grid()
    _check_solution(problem, grid)
    return SolverOutcome(SOLUTION, grid, stats)


# Grids tried by value_swap, each built once per order: a cap, not a proof
# that swaps always suffice.  A build that stops at SWAP_GRID_BUDGET nodes is
# skipped; grids 0-127 take at most 248 nodes below order 5.
SWAP_GRIDS = 128
SWAP_GRID_BUDGET = 20_000


@lru_cache(maxsize=None)
def _swap_grid(n: int, index: int) -> Grid | None:
    # The full model's grid under the value order of restart_ladder's rung
    # index + 1: ascending first, then seed 0, 1, ...
    return solve(SolverProblem(ConstraintSet.full(Board(n))), SWAP_GRID_BUDGET,
                 index - 1 if index else None).grid


def value_swap(alternatives):
    """The first value swap on a valid grid that makes a target cell pair
    equal, as (grid index, alternative index, grid), with no search; None if
    no grid has one.

    Alternatives are (bigs, extras, targets), taken lazily.  On each of the
    first SWAP_GRIDS grids and for each value pair a < b, the a- and b-cells
    are joined into chains through every region of bigs and pair of extras.
    Exchanging a and b on a chain keeps those apart (a Kempe chain
    interchange, Kempe 1879), and a target (x, y) holding a and b on two
    chains becomes equal when x's chain is swapped; targets None stand for
    each absent region's a-cell and b-cell.  Tried grid-major: on each grid
    by alternative, the next taken when those before fail, then by value
    pair and target.
    """
    pending = iter(alternatives)
    taken = list(islice(pending, 1))
    board = taken[0][0].board
    for index in range(SWAP_GRIDS):
        grid = _swap_grid(board.n, index)
        if grid is None:
            continue
        values = list(grid.values)
        home = [{values[cell]: cell for cell in cells}
                for cells in board.region_cells_all]
        for k, (bigs, extras, targets) in enumerate(taken):
            present, absent = bigs.present_ids, bigs.missing_ids
            for a, b in combinations(range(1, board.side + 1), 2):
                ab = {a, b}
                ends = ([(home[cid][a], home[cid][b]) for cid in absent]
                        if targets is None else [(x, y) for x, y in targets
                                                 if {values[x], values[y]} == ab])
                if not ends:
                    continue
                chain = {c: [c] for c, v in enumerate(values) if v in ab}
                links = [(home[cid][a], home[cid][b]) for cid in present]
                for x, y in links + [(x, y) for x, y in extras
                                     if {values[x], values[y]} == ab]:
                    kept, joined = chain[x], chain[y]
                    if kept is not joined:
                        kept.extend(joined)
                        chain.update((cell, kept) for cell in joined)
                for x, y in ends:
                    if chain[x] is not chain[y]:
                        for cell in chain[x]:
                            values[cell] = a + b - values[cell]
                        return index, k, Grid(board, tuple(values))
            if k + 1 == len(taken):
                taken += islice(pending, 1)  # enumerate goes on to it
    return None


def modification_witness(cset: ConstraintSet) -> Grid | None:
    """Witness by a value swap (value_swap) that breaks an absent region
    and keeps the present ones, with no search; None if no grid has one."""
    grid = (value_swap([(cset, (), None)]) or (None, None, None))[2]
    return grid and _checked_witness(grid, cset, _broken_regions(grid))


def _broken_regions(grid: Grid) -> frozenset[int]:
    return verify_grid(grid, ConstraintSet.full(grid.board))


def _checked_witness(grid: Grid, cset: ConstraintSet, broken) -> Grid:
    # A witness, swapped or moved, must break some region and only absent
    # ones of its model; `broken` is _broken_regions(grid), one scan a grid.
    if any(cset.contains(cid) for cid in broken):
        raise RuntimeError("witness violates a present constraint")
    if not broken:
        raise RuntimeError("witness is a fully valid grid")
    return grid


# The restart ladder of every equality search is the universal
# sequence of Luby, Sinclair and Zuckerman (1993).  Satisfiable instances
# that stall under one value order almost always fall quickly to another, so
# many shallow rungs and a rare deep one cut the heavy tail of a deep search.
LUBY_UNIT = 64


def luby(i: int) -> int:
    """The i-th term, from 1, of the Luby sequence 1, 1, 2, 1, 1, 2, 4, ..."""
    while i & (i + 1):  # i is not 2^k - 1: skip the first 2^(k-1) - 1 terms
        i -= (1 << (i.bit_length() - 1)) - 1
    return (i + 1) // 2


@lru_cache(maxsize=None)
def restart_ladder(budget: int) -> tuple:
    """(value-order seed, node limit) per rung: rung i gets LUBY_UNIT *
    luby(i) nodes and seed i - 2, rung 1 is the ascending pass (seed None),
    and the last rung is cut so that the limits sum to `budget`.  Built
    once per budget."""
    rungs = []
    while budget > 0:
        nodes = min(budget, LUBY_UNIT * luby(len(rungs) + 1))
        rungs.append((len(rungs) - 1 if rungs else None, nodes))
        budget -= nodes
    return tuple(rungs)


def pin_equal(bigs: ConstraintSet, pair: tuple[int, int],
              extra_smalls=()) -> SolverProblem:
    """The blank-board problem: a grid of the model in which both cells of
    `pair`, a flat (a, b) like each pair of `extra_smalls`, hold 1.
    Relabeling values maps solutions to solutions, so the pin costs no
    generality."""
    pin = tuple(int(cell in pair) for cell in range(bigs.board.num_cells))
    return SolverProblem(bigs, extra_smalls, (pair,), Grid(bigs.board, pin))


def solve_equal(problems, budget: int):
    """Race the alternatives of `problems`, taken lazily, up one ladder.

    Each climbs restart_ladder(budget), so `budget` >= 1 bounds the nodes
    of each, and the first solution wins.  Alternative j joins at step
    j + 1, and each step runs the next rung of every alternative joined,
    oldest first.  A rung proving its problem unsatisfiable retires it, as
    a complete search under any value order would.  Returns (outcome
    summing every attempt's stats, UNSATISFIABLE only if every alternative
    was refuted; the solving alternative's index or None).
    """
    if budget < 1:
        raise ValueError(f"node budget must be positive, got {budget}")
    joining = ((index, problem, iter(restart_ladder(budget)))
               for index, problem in enumerate(problems))
    status, nodes, propagations, climbs = UNSATISFIABLE, 0, 0, []
    while climbs := climbs + list(islice(joining, 1)):
        for climb in list(climbs):
            index, problem, rungs = climb
            for value_seed, node_limit in rungs:
                outcome = solve(problem, budget=node_limit,
                                value_order_seed=value_seed)
                nodes += outcome.stats.nodes
                propagations += outcome.stats.propagations
                if outcome.is_solution:
                    stats = SolveStats(nodes, propagations)
                    return SolverOutcome(SOLUTION, outcome.grid, stats), index
                if outcome.status == UNSATISFIABLE:
                    climbs.remove(climb)
                break  # one rung per step
            else:  # the top of its ladder, with no refutation
                climbs.remove(climb)
                status = BUDGET
    return SolverOutcome(status, None, SolveStats(nodes, propagations)), None


def find_witness(cset: ConstraintSet) -> Grid | None:
    """A complete grid proving the model is not equivalent to the full
    model: it satisfies every present constraint and violates an absent
    one.  The pipeline calls it only for catalog entries.  A model whose
    closure reaches the full set is entailed and gets None; otherwise the
    witness is a value swap (modification_witness), or None, which proves
    nothing, when no grid splits the model.
    """
    board = cset.board
    if cset.is_full():
        raise ValueError("find_witness needs a model with absent constraints")
    if close_mask(board.n, cset.mask) == board.full_mask:
        return None
    return modification_witness(cset)


def parse_puzzle_line(board: Board, line: str) -> Grid:
    """Parse one corpus line: side*side digit characters, 0 or . for blanks."""
    if board.side > 9:
        raise ValueError("line format only supports single-digit values")
    text = line.strip()
    if len(text) != board.num_cells:
        raise ValueError(
            f"expected {board.num_cells} characters, got {len(text)}")
    values = []
    for ch in text:
        if ch in "0.":
            values.append(0)
        elif "1" <= ch <= str(board.side):
            values.append(int(ch))
        else:
            raise ValueError(f"bad character {ch!r}")
    return Grid(board, tuple(values))


def read_corpus(path, board: Board | None = None):
    """Read a puzzle file, one puzzle per line.

    Returns (puzzles, errors) where errors is a list of (line_number,
    message) for skipped lines.  Blank lines and lines starting with #
    are ignored.
    """
    board = board or Board()
    puzzles, errors = [], []
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith(b"#"):
                continue
            try:  # a non-ASCII byte is a bad line, like any other
                puzzles.append(parse_puzzle_line(board, line.decode("ascii")))
            except ValueError as exc:
                errors.append((lineno, str(exc)))
    return puzzles, errors
