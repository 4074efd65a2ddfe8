"""Exact elimination over the rationals, on one sparse kernel.

`RowBasis` is the one elimination kernel: an incremental echelon basis
whose pivot rows are sparse.  `solve_or_rank` fills a `RowBasis` and
reads from it the rank, or the unique solution of an augmented system.
Solving reports inconsistency and underdetermination through dedicated
exceptions so callers can tell a bad system apart from an internal bug.
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


def solve_or_rank(matrix, rhs=None):
    """Return the rank of `matrix`, or the unique solution of matrix * x = rhs.

    Raises InconsistentSystemError when no solution exists and
    UnderdeterminedSystemError when the solution is not unique.
    """
    rows = list(matrix)
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged matrix")
    if rhs is None:
        basis = RowBasis(ncols)
        for row in rows:
            basis.add(row)
        return basis.rank
    if not rows:
        raise ValueError("cannot solve an empty system")
    if len(rhs) != len(rows):
        raise ValueError("rhs length does not match row count")

    basis = RowBasis(ncols + 1)
    for row, b in zip(rows, rhs):
        basis.add([*row, b])
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
    """Incrementally maintained row-echelon basis of rational row vectors.

    Rows come in dense; each pivot row is kept sparse, as
    {column: Fraction} with its leading entry 1.
    """

    def __init__(self, width):
        self.width = width
        self._pivots = {}  # leading column -> normalized reduced sparse row

    def _reduce(self, row):
        """Sparse remainder of `row` after elimination against the pivots."""
        if len(row) != self.width:
            raise ValueError("row width mismatch")
        work = {i: c if isinstance(c, Fraction) else Fraction(c) for i, c in enumerate(row) if c}
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
        return not self._reduce(row)

    @property
    def rank(self):
        return len(self._pivots)
