"""Brute-force face walk, the test-side reference for the moment formula
in `cubeharm.harmonics.skeleton_average`.

Every k-face of [-1, 1]**n is visited and integrated exactly, so this is
only usable for small n.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb

from cubeharm.multipoly import MultiPoly


@dataclass(frozen=True)
class CubeFace:
    """One k-face of the cube [-1, 1]**n.

    `free` lists the coordinates that run over [-1, 1]; every other
    coordinate is pinned to +1 or -1 by `fixed`.
    """

    n: int
    free: tuple
    fixed: tuple  # ((index, sign), ...) sorted by index

    def __post_init__(self):
        if len(self.free) + len(self.fixed) != self.n:
            raise ValueError("free and fixed coordinates must partition the axes")


def cube_faces(n, k):
    """All k-faces of the n-cube: choose k free axes, sign the rest."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    for free in combinations(range(n), k):
        rest = [i for i in range(n) if i not in free]
        for signs in product((1, -1), repeat=n - k):
            yield CubeFace(n, free, tuple(zip(rest, signs)))


def face_walk_average(f, n, k):
    """Average of f(x + r y) over the k-skeleton, face by face.

    A free coordinate with even y-power j contributes 2/(j+1) and kills
    odd powers, a fixed coordinate substitutes its sign.  The result has
    n + 1 variables, the averaging scale r being last.
    """
    if f.nvars != n:
        raise ValueError("polynomial variable count must equal n")
    total = {}
    for face in cube_faces(n, k):
        fixed_sign = dict(face.fixed)
        for exps, coeff in f.terms.items():
            # partial products over axes: (x exponents so far, r power) -> weight
            partial = {((), 0): coeff}
            for i, a in enumerate(exps):
                if i in fixed_sign:
                    sign = fixed_sign[i]
                    pairs = [(j, Fraction(sign ** j)) for j in range(a + 1)]
                else:
                    pairs = [(j, Fraction(2, j + 1)) for j in range(0, a + 1, 2)]
                nxt = {}
                for (xp, rp), w in partial.items():
                    for j, fw in pairs:
                        key = (xp + (a - j,), rp + j)
                        nxt[key] = nxt.get(key, Fraction(0)) + w * fw * comb(a, j)
                partial = nxt
            for (xp, rp), w in partial.items():
                if w:
                    key = xp + (rp,)
                    total[key] = total.get(key, Fraction(0)) + w
    norm = Fraction(1, comb(n, k) * 2 ** n)
    return MultiPoly(n + 1, {e: c * norm for e, c in total.items()})
