# Exact rational linear algebra: integer elimination, exact Fraction output.
#
# Everything downstream that claims to be a certificate runs through these
# few routines, so they stay small and dumb on purpose: dense rows,
# deterministic pivoting (first non-zero column in the caller's column
# order, rows in the order given).  row_echelon eliminates fraction-free on
# Python ints (Bareiss, Math. Comp. 22, 1968): each row is scaled to a
# primitive integer row, reduced as row = p*row - row[col]*e against each
# echelon row e with pivot p, and divided by the gcd of its entries again.
# Each step keeps the row a non-zero multiple of the row that elimination
# over the rationals holds at the same step, so the same rows become
# pivots, and dividing each by its pivot at the end gives exactly the
# rational echelon rows.  The back substitution of kernel_basis works on
# those Fraction rows.  No floats and no true division anywhere.

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def _primitive(row):
    """row divided by the gcd of its entries: a zero row stays zero."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def row_echelon(rows):
    """Reduce a list of rows; returns (echelon_rows, pivot_cols).

    echelon_rows are the non-zero rows in row-echelon form with leading
    coefficient 1, as lists of Fractions; pivot_cols[i] is the pivot column
    of echelon_rows[i], strictly increasing.  Entries may be ints or
    Fractions.
    """
    echelon = []  # (primitive integer row, its pivot entry), by pivot column
    pivots = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        row = _primitive([x.numerator * (scale // x.denominator) for x in row])
        # eliminate against existing pivots, in increasing pivot column
        for (erow, p), col in zip(echelon, pivots):
            c = row[col]
            if c:
                row = _primitive([p * x - c * y for x, y in zip(row, erow)])
        # find the new pivot, if any
        for col, value in enumerate(row):
            if value:
                # keep pivot columns sorted so later kernels are deterministic
                pos = 0
                while pos < len(pivots) and pivots[pos] < col:
                    pos += 1
                echelon.insert(pos, (row, value))
                pivots.insert(pos, col)
                break
    # monic rows; most entries are zero, and Fractions are immutable
    monic = [[Fraction(x, p) if x else _ZERO for x in row] for row, p in echelon]
    return monic, pivots


def rank(rows) -> int:
    return len(row_echelon(rows)[0])


def _back_substitute(echelon, pivots):
    # full reduction: clear pivot columns above each pivot
    for i in range(len(echelon) - 1, -1, -1):
        col = pivots[i]
        for j in range(i):
            coeff = echelon[j][col]
            if coeff:
                for k in range(col, len(echelon[j])):
                    echelon[j][k] -= coeff * echelon[i][k]
    return echelon


def kernel_basis(rows, ncols: int):
    """Basis of {x : A x = 0} for the matrix with the given rows.

    Standard RREF construction: one basis vector per free column, with 1 in
    the free column, determined entries in the pivot columns.  The basis is
    deterministic given the row list and column order.
    """
    echelon, pivots = row_echelon(rows)
    echelon = _back_substitute(echelon, pivots)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for erow, col in zip(echelon, pivots):
            vec[col] = -erow[free]
        basis.append(vec)
    return basis
