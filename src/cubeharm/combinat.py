"""Enumerators for compositions, Young diagrams and staircase matrices,
and the staircase weight summed over a column-sum fiber.

The enumerators are deterministic lazy streams: the matrix families grow
fast and the summation kernels only ever need one element at a time.
"""

from dataclasses import dataclass
from math import comb, factorial

__all__ = [
    "compositions",
    "count_compositions",
    "YoungDiagram",
    "young_diagrams",
    "QuadMatrix",
    "quad_matrices_with_colsums",
    "quad_matrices_even",
    "fiber_weight",
]


def compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`.

    Yielded in lexicographically descending order, C(total+parts-1, parts-1)
    tuples in all.
    """
    if total < 0 or parts < 1:
        raise ValueError("need total >= 0 and parts >= 1")
    buf = [0] * parts

    def rec(i, remaining):
        if i == parts - 1:
            buf[i] = remaining
            yield tuple(buf)
            return
        for v in range(remaining, -1, -1):
            buf[i] = v
            yield from rec(i + 1, remaining - v)

    return rec(0, total)


def count_compositions(total, parts):
    return comb(total + parts - 1, parts - 1)


@dataclass(frozen=True, slots=True)
class YoungDiagram:
    """Unordered partition, stored as trimmed weakly decreasing parts."""

    parts: tuple

    @classmethod
    def from_sequence(cls, seq):
        parts = tuple(sorted((int(p) for p in seq if p), reverse=True))
        if any(p < 0 for p in seq):
            raise ValueError("parts must be nonnegative")
        return cls(parts)

    @property
    def weight(self):
        return sum(self.parts)

    @property
    def length(self):
        return len(self.parts)

    def multiplicities(self, nparts=None):
        """Map part value -> multiplicity; includes the zero part count
        when the ambient number of parts is supplied."""
        mult = {}
        for p in self.parts:
            mult[p] = mult.get(p, 0) + 1
        if nparts is not None:
            if nparts < self.length:
                raise ValueError("ambient part count below diagram length")
            mult[0] = nparts - self.length
        return mult

    def padded(self, nparts):
        if nparts < self.length:
            raise ValueError("ambient part count below diagram length")
        return self.parts + (0,) * (nparts - self.length)


def young_diagrams(total, max_parts):
    """All partitions of `total` into at most `max_parts` parts,
    lexicographically descending."""
    if total < 0 or max_parts < 1:
        raise ValueError("need total >= 0 and max_parts >= 1")
    acc = []

    def rec(remaining, cap):
        if remaining == 0:
            yield YoungDiagram(tuple(acc))
            return
        if len(acc) == max_parts:
            return
        for p in range(min(remaining, cap), 0, -1):
            acc.append(p)
            yield from rec(remaining - p, p)
            acc.pop()

    return rec(total, total)


@dataclass(frozen=True, slots=True)
class QuadMatrix:
    """Nonnegative integer matrix with zeros strictly below the diagonal.

    Rows may outnumber columns; entry (i, j) with i > j is structurally
    zero.  These index the summation kernels, so construction stays cheap
    and structural checks live in `validate`.
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


def fiber_weight(n, k, colsums):
    """Sum of the staircase weights of the matrices with the given column sums.

    The enumerated counterpart of the closed form `coefficients.matrix_weight`.
    """
    return sum(mat.weight for mat in quad_matrices_with_colsums(n, k, colsums))
