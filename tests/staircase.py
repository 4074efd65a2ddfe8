"""Brute-force staircase enumerators, the reference for the column
dynamic program `oracles.fiber_weight`, which in turn is the reference
for the coefficients of the flag moment.

Every (k+1) x n staircase matrix of a fiber is built, so these are only
usable for small n.
"""

from dataclasses import dataclass
from math import comb, factorial

from cubeharm.combinat import compositions


def count_compositions(total, parts):
    return comb(total + parts - 1, parts - 1)


@dataclass(frozen=True, slots=True)
class QuadMatrix:
    """Nonnegative integer matrix with zeros strictly below the diagonal.

    Rows may outnumber columns; entry (i, j) with i > j is structurally
    zero.  Construction stays cheap and structural checks live in
    `validate`.
    """

    entries: tuple

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0]) if self.entries else 0

    @property
    def row_sums(self):
        return tuple(sum(row) for row in self.entries)

    @property
    def col_sums(self):
        return tuple(sum(col) for col in zip(*self.entries))

    @property
    def nontrivial_columns(self):
        """Number of columns containing at least one nonzero entry."""
        return sum(1 for col in zip(*self.entries) if any(col))

    @property
    def weight(self):
        """Staircase weight: the product over rows of (row sum)! / prod entry!."""
        total = 1
        for row in self.entries:
            multinomial = factorial(sum(row))
            for e in row:
                if e > 1:
                    multinomial //= factorial(e)
            total *= multinomial
        return total

    def total(self):
        return sum(self.row_sums)

    def validate(self):
        for i, row in enumerate(self.entries):
            for j, value in enumerate(row):
                if value < 0:
                    raise ValueError("negative entry")
                if i > j and value:
                    raise ValueError("nonzero entry below the diagonal")
        return self


def quad_matrices_with_colsums(n, k, colsums):
    """All (k+1) x n staircase matrices with the prescribed column sums.

    Column j (0-based) has min(j+1, k+1) free entries; each column runs
    through its compositions independently, columns advancing left to
    right, so the order is deterministic.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    if len(colsums) != n:
        raise ValueError("colsums length must equal n")
    nrows = k + 1
    cols = []

    def rec(j):
        if j == n:
            rows = tuple(
                tuple(cols[c][r] if r < len(cols[c]) else 0 for c in range(n))
                for r in range(nrows)
            )
            yield QuadMatrix(rows)
            return
        for comp in compositions(colsums[j], min(j + 1, nrows)):
            cols.append(comp)
            yield from rec(j + 1)
            cols.pop()

    return rec(0)


def quad_matrices_even(n, k, total):
    """All (k+1) x n staircase matrices with even column sums adding to `total`.

    Runs through column-sum vectors 2*nu with nu a composition of total/2,
    concatenating the fixed-column-sum streams.
    """
    if total % 2:
        raise ValueError("total must be even")
    for nu in compositions(total // 2, n):
        yield from quad_matrices_with_colsums(n, k, tuple(2 * v for v in nu))
