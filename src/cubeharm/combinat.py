"""Enumerators for compositions and Young diagrams, and the staircase
weight summed over a column-sum fiber.

The enumerators are deterministic lazy streams.  `fiber_weight` sums the
weights of a fiber column by column (a transfer matrix over the partial
row sums) and builds no matrix.
"""

from math import factorial
from operator import add

__all__ = [
    "compositions",
    "young_diagrams",
    "fiber_weight",
]


def compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`.

    Yielded in lexicographically descending order, C(total+parts-1, parts-1)
    tuples in all.
    """
    if total < 0 or parts < 1:
        raise ValueError("need total >= 0 and parts >= 1")
    buf = [total] + [0] * (parts - 1)
    last = parts - 1

    def steps():
        # In place: the rightmost nonzero entry i among the first parts - 1
        # gives one unit to its right-hand neighbour, which absorbs the tail.
        i = -1
        while True:
            yield tuple(buf)
            i = min(i + 1, last - 1)
            while i >= 0 and buf[i] == 0:
                i -= 1
            if i < 0:
                return
            tail = buf[last]
            buf[last] = 0
            buf[i] -= 1
            buf[i + 1] = tail + 1

    return steps()


def young_diagrams(total, max_parts):
    """Partitions of `total` into at most `max_parts` parts, as weakly
    decreasing tuples of positive parts, lexicographically descending."""
    if total < 0 or max_parts < 1:
        raise ValueError("need total >= 0 and max_parts >= 1")
    acc = []

    def rec(remaining, cap):
        if remaining == 0:
            yield tuple(acc)
            return
        if len(acc) == max_parts:
            return
        for p in range(min(remaining, cap), 0, -1):
            acc.append(p)
            yield from rec(remaining - p, p)
            acc.pop()

    return rec(total, total)


def fiber_weight(n, k, colsums):
    """Sum of the staircase weights of the (k+1) x n staircase matrices
    with the given column sums, by a dynamic program over the columns.

    A matrix with row sums R_i and entries e weighs prod R_i! / prod e!,
    which is prod R_i! * prod_j multinomial(c_j; column j) / prod c_j!.
    The state is the vector of partial row sums and its value the integer
    sum of the column multinomials so far; column j splits c_j over its
    first min(j+1, k+1) rows.  At the end each state is multiplied by
    prod R_i!, and the total divides exactly by prod c_j!.  This sums the
    terms of the matrix-by-matrix enumeration, never the staircase closed
    form (`tests/oracles.py` keeps that as `matrix_weight`).
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    if len(colsums) != n:
        raise ValueError("colsums length must equal n")
    nrows = k + 1
    states = {(0,) * nrows: 1}
    for j, c in enumerate(colsums):
        free = min(j + 1, nrows)
        steps = []
        for split in compositions(c, free):
            multinomial = factorial(c)
            for e in split:
                multinomial //= factorial(e)
            steps.append((split + (0,) * (nrows - free), multinomial))
        grown = {}
        for state, value in states.items():
            for split, multinomial in steps:
                key = tuple(map(add, state, split))
                grown[key] = grown.get(key, 0) + value * multinomial
        states = grown
    total = 0
    for state, value in states.items():
        for r in state:
            value *= factorial(r)
        total += value
    for c in colsums:
        total //= factorial(c)
    return total
