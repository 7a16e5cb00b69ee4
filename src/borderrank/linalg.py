# Exact rational linear algebra over fractions.Fraction.
#
# Everything downstream that claims to be a certificate runs through these
# few routines, so they stay small and dumb on purpose: dense rows, plain
# Gaussian elimination, deterministic pivoting (first non-zero column in the
# caller's column order, rows in the order given).  No floats anywhere.

from __future__ import annotations

from fractions import Fraction


def row_echelon(rows):
    """Reduce a list of rows in place-ish; returns (echelon_rows, pivot_cols).

    echelon_rows are the non-zero rows in row-echelon form with leading
    coefficient 1; pivot_cols[i] is the pivot column of echelon_rows[i],
    strictly increasing.
    """
    echelon = []
    pivots = []
    for row in rows:
        row = list(row)
        # eliminate against existing pivots
        for erow, col in zip(echelon, pivots):
            coeff = row[col]
            if coeff:
                for k in range(col, len(row)):
                    row[k] -= coeff * erow[k]
        # find the new pivot, if any
        for col, value in enumerate(row):
            if value:
                inv = Fraction(1, 1) / value
                for k in range(col, len(row)):
                    row[k] *= inv
                # keep pivot columns sorted so later kernels are deterministic
                pos = 0
                while pos < len(pivots) and pivots[pos] < col:
                    pos += 1
                echelon.insert(pos, row)
                pivots.insert(pos, col)
                break
    return echelon, pivots


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
