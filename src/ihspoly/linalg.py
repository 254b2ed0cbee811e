"""Small exact dense linear algebra: kernel and inertia.

Written for the tiny sizes this library meets (rank <= 6): a
fraction-free reduced row echelon form on ints for kernels, which
returns primitive integer vectors and serves the cone engine and Eff's
pointedness test, and symmetric congruence reduction over Fraction for
inertia, which serves the lattice's signature check.  No pivoting
strategy beyond "find a usable entry" is needed when arithmetic is
exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Matrix = Sequence[Sequence[Fraction]]


def kernel(rows: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of {x in Q^n : row . x = 0 for every row}.

    Fraction-free Gauss-Jordan elimination on ints: a row is updated by
    integer cross-multiplication against the pivot row and then divided
    by its content, so entries stay small and every pivot stays
    positive.  One basis vector per free column: the primitive positive
    multiple of the reduced row echelon vector with 1 in that column.
    No rows means the whole space.
    """
    a = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        top = a[r]
        if top[col] < 0:
            top = a[r] = [-v for v in top]
        p = top[col]
        for i, row in enumerate(a):
            f = row[col]
            if f and i != r:
                row = [p * v - f * w for v, w in zip(row, top)]
                g = gcd(*row)
                a[i] = [v // g for v in row] if g > 1 else row
        pivots.append(col)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        # x[free] = m and x[col] = -a[i][free] * m / a[i][col] on pivot row i
        m = lcm(*(a[i][col] for i, col in enumerate(pivots) if a[i][free]))
        x = [0] * n
        x[free] = m
        for i, col in enumerate(pivots):
            if a[i][free]:
                x[col] = -a[i][free] * (m // a[i][col])
        g = gcd(*x)
        basis.append(tuple(v // g for v in x))
    return basis


def inertia(sym: Matrix) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Symmetric congruence reduction: diagonalize with simultaneous
    row/column operations; Sylvester's law of inertia makes the
    diagonal signs invariant.  sym must be symmetric; BBFLattice, the
    only caller, checks that first.
    """
    n = len(sym)
    m = [[Fraction(v) for v in row] for row in sym]
    plus = minus = zero = 0
    for i in range(n):
        if not m[i][i]:
            # Find a nonzero diagonal entry to swap in, else create one
            # from an off-diagonal entry (row/col j added to row/col i
            # turns m[i][i] into 2*m[i][j]).
            j = next((k for k in range(i + 1, n) if m[k][k]), None)
            if j is not None:
                _swap_sym(m, i, j)
            else:
                j = next((k for k in range(i + 1, n) if m[i][k]), None)
                if j is None:
                    zero += 1
                    continue
                for c in range(n):
                    m[i][c] += m[j][c]
                for r in range(n):
                    m[r][i] += m[r][j]
        pivot = m[i][i]
        if pivot > 0:
            plus += 1
        else:
            minus += 1
        for r in range(i + 1, n):
            if m[r][i]:
                f = m[r][i] / pivot
                for c in range(i, n):
                    m[r][c] -= f * m[i][c]
                for c in range(i, n):
                    m[c][r] = m[r][c]
    return plus, minus, zero


def _swap_sym(m: list[list[Fraction]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]
