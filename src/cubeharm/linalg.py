"""Exact elimination over the rationals, on one sparse integer kernel.

`RowBasis` is the one elimination kernel: an incremental echelon basis
whose rows are sparse mappings {column: value}.  A column is any key
that compares with the other columns, such as an int or an exponent
tuple, so a polynomial's terms are a row as they stand.  The kernel is
fraction-free, a relative of Bareiss (Math. Comp. 22, 1968): rows are
scaled to primitive integer rows, which changes no span over the
rationals, so ranks are exact with no prime modulus.  Dense rows enter
only through `solve_or_rank`, which fills a `RowBasis` with an augmented
system and reads its unique solution, one `Fraction` per unknown.
Solving reports inconsistency and underdetermination through dedicated
exceptions so callers can tell a bad system apart from an internal bug.
"""

from bisect import insort
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "LinearSystemError",
    "InconsistentSystemError",
    "UnderdeterminedSystemError",
    "solve_or_rank",
    "RowBasis",
]


class LinearSystemError(ValueError):
    pass


class InconsistentSystemError(LinearSystemError):
    """The system has no solution."""


class UnderdeterminedSystemError(LinearSystemError):
    """The system has more than one solution."""


def solve_or_rank(matrix, rhs):
    """Return the unique solution of matrix * x = rhs for dense rows, as
    `Fraction`s.

    Raises InconsistentSystemError when no solution exists and
    UnderdeterminedSystemError when the solution is not unique.
    """
    rows = list(matrix)
    if not rows:
        raise ValueError("cannot solve an empty system")
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged matrix")
    if len(rhs) != len(rows):
        raise ValueError("rhs length does not match row count")

    basis = RowBasis()
    for row, b in zip(rows, rhs):
        basis.add(dict(enumerate([*row, b])))
    pivots = basis._pivots
    if ncols in pivots:
        raise InconsistentSystemError("no solution")
    if len(pivots) < ncols:
        raise UnderdeterminedSystemError("solution is not unique")
    solution = [Fraction(0)] * ncols
    for col in reversed(range(ncols)):
        pivot = pivots[col]
        known = sum(c * solution[j] for j, c in pivot.items() if col < j < ncols)
        solution[col] = Fraction(pivot.get(ncols, 0) - known, pivot[col])
    return solution


def _integer_row(row):
    """`row` scaled by the lcm of its denominators, its zero entries dropped."""
    den = lcm(*[c.denominator for c in row.values()])
    return {j: c.numerator * (den // c.denominator) for j, c in row.items() if c}


class RowBasis:
    """Incrementally maintained row-echelon basis of sparse rational rows.

    A row is a mapping {column: value} with int or `Fraction` values,
    zeros allowed.  Each pivot row is kept as a primitive integer row
    whose leading entry, at its least column, is positive.
    """

    def __init__(self):
        self._pivots = {}  # leading column -> primitive reduced integer row

    def _reduce(self, row):
        """Integer remainder of `row` after elimination against the pivots,
        least column first: the pivot p with lead b meets the work row's
        entry a there as work <- (b/g) work - (a/g) p, g = gcd(a, b), and
        a scaled work row is divided by its content, so entries stay the
        size of the rows'.  Only the pivot columns the work row reaches
        are visited, from a sorted list that grows as they appear."""
        pivots = self._pivots
        work = _integer_row(row)
        todo = sorted(j for j in work if j in pivots)
        for i, col in enumerate(todo):  # columns join after i as the pivots reach them
            a = work.get(col)
            if not a:  # cancelled, or listed twice
                continue
            pivot = pivots[col]
            b = pivot[col]
            g = gcd(a, b)
            scale = b // g
            if scale != 1:
                work = {j: scale * c for j, c in work.items()}
            a //= g
            for j, c in pivot.items():
                c *= a
                old = work.get(j)
                if old is None:
                    work[j] = -c
                    if j in pivots:
                        insort(todo, j, i + 1)
                elif old != c:
                    work[j] = old - c
                else:
                    del work[j]
            if scale != 1 and work:
                content = gcd(*work.values())
                if content != 1:
                    work = {j: c // content for j, c in work.items()}
        return work

    def add(self, row):
        """Insert a row; returns True when it was independent of the basis."""
        reduced = self._reduce(row)
        if not reduced:
            return False
        lead = min(reduced)
        content = gcd(*reduced.values())
        if reduced[lead] < 0:
            content = -content
        if content != 1:
            reduced = {j: c // content for j, c in reduced.items()}
        self._pivots[lead] = reduced
        return True

    def contains(self, row):
        """Whether `row` lies in the span of the basis."""
        return not self._reduce(row)

    @property
    def rank(self):
        return len(self._pivots)
