"""Theorem M: a model is Sudoku exactly when its absent constraints form a
forest in G_n.

G_n has a vertex for each of the n bands and n stacks, one edge per box
joining its band and stack, and a vertex g joined to each band by its n
rows and to each stack by its n columns.  These checks read only the
labels of the absent constraints, never close_mask, a canonical key or the
catalog, so they test the sweep's verdicts and orbit sizes from outside.
"""

from fractions import Fraction

import pytest

from redoku.pipeline import SUDOKU, _level


def g_edge(n: int, label: str) -> tuple[int, int]:
    # Bands are vertices 0..n-1, stacks n..2n-1, and g is 2n.
    kind, k = label[0], int(label[1:]) - 1
    if kind == "R":
        return 2 * n, k // n
    if kind == "C":
        return 2 * n, n + k // n
    return k // n, n + k % n


def is_forest(n: int, labels: str) -> bool:
    """Union-find over the edges of the absent constraints: False as soon
    as one joins two vertices already connected, closing a cycle."""
    parent = list(range(2 * n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for label in filter(None, labels.split(",")):
        a, b = map(find, g_edge(n, label))
        if a == b:
            return False
        parent[a] = b
    return True


@pytest.mark.parametrize("n, top", [(2, 5), (3, 7), (4, 8)])
def test_sudoku_exactly_when_the_absent_constraints_form_a_forest(n, top):
    # Every class of orders 2 and 3 through level 2n + 1, and of order 4
    # through level 8: the sweep calls it Sudoku exactly when the forest
    # test passes.  Past level 2n no model is a forest, since G_n has
    # 2n + 1 vertices, so none is Sudoku.
    for k in range(top + 1):
        for record in _level(n, k)[0]:
            labels = record.cset.missing_labels()
            assert is_forest(n, labels) == (record.verdict == SUDOKU), labels


def spanning_trees(n: int) -> int:
    """Kirchhoff's count for G_n: the determinant of its Laplacian with g's
    row and column deleted, L(K_{n,n}) + nI, by exact elimination."""
    side = 2 * n
    rows = [[Fraction(side if i == j else -((i < n) != (j < n)))
             for j in range(side)] for i in range(side)]
    det = Fraction(1)
    for col in range(side):
        pivot = rows[col][col]
        det *= pivot
        for row in rows[col + 1:]:
            factor = row[col] / pivot
            row[:] = [x - factor * y for x, y in zip(row, rows[col])]
    return int(det)


@pytest.mark.parametrize("n, trees", [(2, 192), (3, 34_992),
                                      (4, 12_582_912)])
def test_sudoku_orbits_at_level_2n_count_the_spanning_trees(n, trees):
    # A forest of 2n edges on 2n + 1 vertices is a spanning tree, so the
    # Sudoku models at level 2n are G_n's spanning trees, 3n^2 (2n)^(2n-2)
    # of them by the matrix-tree theorem; the sweep's orbit sizes of its
    # Sudoku classes there must sum to that.
    assert trees == 3 * n * n * (2 * n) ** (2 * n - 2) == spanning_trees(n)
    records = _level(n, 2 * n)[0]
    assert sum(r.orbit_size for r in records if r.verdict == SUDOKU) == trees
