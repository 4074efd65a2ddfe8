"""Exact elimination over the rationals, on one sparse kernel.

`RowBasis` is the one elimination kernel: an incremental echelon basis
whose rows are sparse mappings {column: value}.  A column is any key
that compares with the other columns, such as an int or an exponent
tuple, so a polynomial's terms are a row as they stand.  Dense rows
enter only through `solve_or_rank`, which fills a `RowBasis` with an
augmented system and reads its unique solution.  Solving reports
inconsistency and underdetermination through dedicated exceptions so
callers can tell a bad system apart from an internal bug.
"""

from fractions import Fraction

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
    """Return the unique solution of matrix * x = rhs for dense rows.

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
        solution[col] = pivot.get(ncols, Fraction(0)) - sum(
            c * solution[j] for j, c in pivot.items() if col < j < ncols
        )
    return solution


class RowBasis:
    """Incrementally maintained row-echelon basis of sparse rational rows.

    A row is a mapping {column: value}; zero values are dropped and ints
    become Fractions.  Each pivot row is kept with its leading entry,
    the least column, equal to 1.
    """

    def __init__(self):
        self._pivots = {}  # leading column -> normalized reduced sparse row

    def _reduce(self, row):
        """Sparse remainder of `row` after elimination against the pivots."""
        work = {j: c if isinstance(c, Fraction) else Fraction(c) for j, c in row.items() if c}
        for col in sorted(self._pivots):
            factor = work.get(col)
            if factor:
                for j, b in self._pivots[col].items():
                    value = work.get(j, 0) - factor * b
                    if value:
                        work[j] = value
                    else:
                        del work[j]
        return work

    def add(self, row):
        """Insert a row; returns True when it was independent of the basis."""
        reduced = self._reduce(row)
        if not reduced:
            return False
        lead = min(reduced)
        inv = 1 / reduced[lead]
        self._pivots[lead] = {j: c * inv for j, c in reduced.items()}
        return True

    def contains(self, row):
        """Whether `row` lies in the span of the basis."""
        return not self._reduce(row)

    @property
    def rank(self):
        return len(self._pivots)
