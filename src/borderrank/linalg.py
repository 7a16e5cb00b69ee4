# Exact linear algebra on integer rows.
#
# Everything downstream that claims to be a certificate runs through these
# few routines, so they stay small and dumb on purpose: dense rows of Python
# ints, which producers clear of denominators once with integral(), and
# deterministic pivoting (first non-zero column in the caller's column order,
# rows in the order given).  Elimination is fraction-free (Bareiss, Math.
# Comp. 22, 1968): row = p*row - row[col]*e against each echelon row e with
# pivot p, then divided by the gcd of its entries.  Each row stays a non-zero
# multiple of the row that elimination over the rationals holds at the same
# step, so the same rows become pivots, and dividing each by its pivot gives
# exactly the rational echelon rows.  No floats and no true division.

from __future__ import annotations

from math import gcd, lcm


def _primitive(row):
    """row divided by the gcd of its entries: a zero row stays zero."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def integral(values):
    """Ints or Fractions scaled by one positive rational to coprime ints."""
    scale = lcm(*(x.denominator for x in values))
    return _primitive([x.numerator * (scale // x.denominator) for x in values])


def row_echelon(rows):
    """Reduce a list of int rows; returns (echelon_rows, pivot_cols).

    echelon_rows are the non-zero rows in row-echelon form, each a primitive
    int row; pivot_cols[i] is the pivot column of echelon_rows[i], strictly
    increasing.
    """
    echelon = []
    pivots = []
    for row in rows:
        row = _primitive(row)
        # eliminate against existing pivots, in increasing pivot column
        for erow, col in zip(echelon, pivots):
            c = row[col]
            if c:
                p = erow[col]
                row = _primitive([p * x - c * y for x, y in zip(row, erow)])
        # find the new pivot, if any
        for col, value in enumerate(row):
            if value:
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


def kernel_basis(rows, ncols: int):
    """Basis of {x : A x = 0} for the matrix with the given int rows.

    One primitive int vector per free column, positive in that free column
    and zero in the others; divided by that entry it is the vector of the
    standard RREF construction.  Deterministic given the rows and column
    order.
    """
    echelon, pivots = row_echelon(rows)
    # full reduction: clear each pivot column above its pivot, last first
    for i in range(len(echelon) - 1, 0, -1):
        erow, col = echelon[i], pivots[i]
        p = erow[col]
        for j in range(i):
            row = echelon[j]
            c = row[col]
            if c:
                echelon[j] = _primitive([p * x - c * y for x, y in zip(row, erow)])
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        # x_free = scale makes each pivot entry -erow[free] * scale / p an int
        used = [(erow, col) for erow, col in zip(echelon, pivots) if erow[free]]
        vec = [0] * ncols
        vec[free] = scale = lcm(*(erow[col] for erow, col in used))
        for erow, col in used:
            vec[col] = -erow[free] * (scale // erow[col])
        basis.append(_primitive(vec))
    return basis
