"""Enumerators for compositions and Young diagrams, as deterministic lazy
streams."""

__all__ = [
    "compositions",
    "young_diagrams",
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
