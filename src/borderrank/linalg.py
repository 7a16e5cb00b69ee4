# Exact linear algebra on integer rows.
#
# Everything downstream that claims to be a certificate runs through these
# few routines, so they stay small and dumb on purpose: int rows in and out,
# which producers clear of denominators once with integral(), and
# deterministic pivoting (first non-zero column in the caller's column
# order, rows in the order given).  Elimination is fraction-free (Bareiss,
# Math. Comp. 22, 1968): row = p*row - row[col]*e against each echelon row e
# with pivot p, then divided by the gcd of its entries.  Each row stays a
# non-zero multiple of the row that elimination over the rationals holds at
# the same step, so the same rows become pivots, and dividing each by its
# pivot gives exactly the rational echelon rows.  No floats and no true
# division.
#
# A row is a {column: entry} dict of its non-zero entries, in one format
# from the producers (ring.multiply and ring.contract, apolarity.poly_row)
# through the echelon form and the kernel vectors, since the rows the
# certificates reduce are very sparse (the degree-6 piece of the cubic
# witness: 705 rows over 210 columns, 1.3 non-zeros a row).  A step then
# touches only the columns where one of its two rows is non-zero; on every
# other column both dense rows hold 0 and so would the result.  It is the
# same integer step in the same order, so the echelon rows, their signs and
# their pivots are those of dense elimination.  A zero is never stored: the
# pivot of a row is min(row), which a stored zero would turn into a column
# where the row vanishes, and a step deletes each entry it cancels.

from __future__ import annotations

from math import gcd, lcm


def _primitive(row):
    """row divided by the gcd of its entries: a zero row stays zero."""
    g = gcd(*row.values())
    return {k: x // g for k, x in row.items()} if g > 1 else row


def integral(values):
    """{column: non-zero int or Fraction} scaled by one positive rational to
    coprime ints."""
    scale = lcm(*(x.denominator for x in values.values()))
    return _primitive({k: x.numerator * (scale // x.denominator) for k, x in values.items()})


def _eliminate(row, erow, col):
    """p*row - c*erow made primitive, for the pivot p = erow[col] and
    c = row[col]: the step that clears column col of row."""
    c, p = row[col], erow[col]
    row = {k: p * x for k, x in row.items()}
    for k, y in erow.items():
        x = row.get(k, 0) - c * y
        if x:
            row[k] = x
        else:
            del row[k]
    return _primitive(row)


def row_echelon(rows, limit=None):
    """Reduce a list of int rows; returns (echelon_rows, pivot_cols).

    echelon_rows are the non-zero rows in row-echelon form, each a primitive
    int row; pivot_cols[i] is the pivot column of echelon_rows[i], strictly
    increasing.  With a limit, no row is read once the rank reaches it.
    """
    by_pivot = {}  # pivot column -> echelon row
    for row in rows:
        if len(by_pivot) == limit:
            break
        row = _primitive(row)
        # eliminate against existing pivots, in increasing pivot column; a
        # step against the pivot at col changes only the columns from col on
        hits = [k for k in row if k in by_pivot]
        while hits:
            col = min(hits)
            row = _eliminate(row, by_pivot[col], col)
            hits = [k for k in row if k in by_pivot]
        if row:
            by_pivot[min(row)] = row  # the new pivot is its lowest column
    pivots = sorted(by_pivot)
    return [by_pivot[col] for col in pivots], pivots


def rank(rows, limit=None) -> int:
    return len(row_echelon(rows, limit)[0])


def kernel_basis(rows, ncols: int):
    """Basis of {x : A x = 0} for the matrix with the given int rows over
    ncols columns.

    One primitive int vector per free column, positive in that free column
    and zero in the others; divided by that entry it is the vector of the
    standard RREF construction.  Deterministic given the rows and column
    order.
    """
    echelon, pivots = row_echelon(rows)
    # full reduction: clear each pivot column above its pivot, last first
    for i in range(len(echelon) - 1, 0, -1):
        erow, col = echelon[i], pivots[i]
        for j in range(i):
            if col in echelon[j]:
                echelon[j] = _eliminate(echelon[j], erow, col)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        # x_free = scale makes each pivot entry -erow[free] * scale / p an int
        used = [(erow, col) for erow, col in zip(echelon, pivots) if free in erow]
        scale = lcm(*(erow[col] for erow, col in used))
        vec = {free: scale}
        for erow, col in used:
            vec[col] = -erow[free] * (scale // erow[col])
        basis.append(_primitive(vec))
    return basis
