"""Exact linear algebra over rationals: products and determinants.

Matrices are lists (or tuples) of rows; entries are Fractions unless a
function says otherwise. Everything here is pure and exact.
"""

from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]


def identity_matrix(size: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(
        tuple(one if i == j else zero for j in range(size)) for i in range(size)
    )


def mat_mul(a, b) -> Matrix:
    """Exact matrix product of two square matrices of equal size."""
    size = len(a)
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def det_bareiss(rows) -> int:
    """Determinant of an integer matrix by fraction-free elimination.

    All intermediate values stay integral (Bareiss pivoting), so no rational
    arithmetic is needed.
    """
    a = [list(map(int, row)) for row in rows]
    m = len(a)
    if m == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(m - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, m) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[m - 1][m - 1]
