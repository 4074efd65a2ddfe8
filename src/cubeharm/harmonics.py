"""Exact verification of the mean value property on cube skeletons.

The averaging operator is evaluated symbolically: the scale of the
averaging window stays a formal variable r, faces contribute closed-form
monomial integrals (odd powers vanish, even powers give 2/(power+1)), and
the mean value property becomes a polynomial identity in (x, r).  The
module also computes the dimension of the span of all partial
derivatives of the fundamental alternating polynomial, and checks that
the skeleton invariants annihilate it as differential operators.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

from .invariants import fundamental_alternating, skeleton_invariant
from .linalg import RowBasis
from .multipoly import MultiPoly, grlex_key

__all__ = [
    "CubeFace",
    "cube_faces",
    "skeleton_average",
    "MvpReport",
    "mean_value_report",
    "harmonic_basis",
    "harmonic_module_dimension",
    "annihilates_alternating",
    "apply_as_operator",
    "HarmonicBasisReport",
    "harmonic_basis_report",
    "DIMENSION_GUARD",
]

DIMENSION_GUARD = 3  # derivative-module work beyond this needs an explicit opt-in


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


def _shift_factor(exponent, r_weight_pairs):
    """Expansion of (x + r*y)**exponent after the y-average on one axis.

    `r_weight_pairs` maps the y-power j to its averaged weight; pairs with
    weight zero are omitted.  Returns [(x_power, r_power, weight), ...].
    """
    out = []
    for j, w in r_weight_pairs:
        out.append((exponent - j, j, w * comb(exponent, j)))
    return out


def skeleton_average(f, n, k):
    """Average of f(x + r y) over the k-skeleton, as a polynomial in (x, r).

    Every face is integrated exactly: a free coordinate with even
    y-power a contributes 2/(a+1) and kills odd powers, a fixed
    coordinate substitutes its sign.  The result has n + 1 variables,
    the averaging scale r being last.
    """
    if f.nvars != n:
        raise ValueError("polynomial variable count must equal n")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
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
                factors = _shift_factor(a, pairs)
                nxt = {}
                for (xp, rp), w in partial.items():
                    for xe, re, fw in factors:
                        key = (xp + (xe,), rp + re)
                        nxt[key] = nxt.get(key, Fraction(0)) + w * fw
                partial = nxt
            for (xp, rp), w in partial.items():
                if w:
                    key = xp + (rp,)
                    total[key] = total.get(key, Fraction(0)) + w
    norm = Fraction(1, comb(n, k) * 2 ** n)
    return MultiPoly(n + 1, {e: c * norm for e, c in total.items()})


@dataclass(frozen=True)
class MvpReport:
    """Outcome of one mean-value check; `residual` lives in (x, r)."""

    f: MultiPoly
    n: int
    k: int
    residual: MultiPoly
    holds: bool


def mean_value_report(f, n, k):
    """Polynomial-identity form of the mean value property.

    Holds exactly when averaging f over the scaled skeleton reproduces f
    for every center and every scale, i.e. when the residual polynomial
    vanishes identically.
    """
    residual = skeleton_average(f, n, k) - f.extended(n + 1)
    return MvpReport(f, n, k, residual, residual.is_zero())


def _row(poly, index):
    """Dense coefficient row of `poly` over the monomials numbered by `index`."""
    row = [Fraction(0)] * len(index)
    for mono, c in poly.terms.items():
        row[index[mono]] = c
    return row


def _independent_subset(polys):
    """Greedy maximal linearly independent subset, in input order."""
    polys = [p for p in polys if not p.is_zero()]
    support = sorted({mono for p in polys for mono in p.terms}, key=grlex_key)
    index = {mono: i for i, mono in enumerate(support)}
    basis = RowBasis(len(support))
    return [p for p in polys if basis.add(_row(p, index))]


def harmonic_basis(n, allow_large=False):
    """Layers of a basis of the span of all derivatives of the alternating
    polynomial, from top degree n**2 down to the constants."""
    if n > DIMENSION_GUARD and not allow_large:
        raise ValueError(
            f"derivative-module computation beyond n = {DIMENSION_GUARD} must be"
            " requested explicitly"
        )
    layers = []
    current = [fundamental_alternating(n)]
    while current:
        layer = _independent_subset(current)
        layers.append(layer)
        current = [p.partial(i) for p in layer for i in range(n)]
        current = [p for p in current if not p.is_zero()]
    return layers


def harmonic_module_dimension(n, allow_large=False):
    """Dimension of the derivative module; per-degree ranks summed."""
    return sum(len(layer) for layer in harmonic_basis(n, allow_large))


def apply_as_operator(operator, f):
    """Interpret `operator` as a constant-coefficient differential operator
    (each monomial becomes the matching mixed derivative) and apply it."""
    if operator.nvars != f.nvars:
        raise ValueError("variable count mismatch")
    total = MultiPoly.zero(f.nvars)
    for exps, c in operator.terms.items():
        total = total + c * f.partial_power(exps)
    return total


def annihilates_alternating(n, m, k):
    """True when the degree-2m skeleton invariant, as a differential
    operator, kills the fundamental alternating polynomial."""
    operator = skeleton_invariant(n, k, 2 * m)
    return apply_as_operator(operator, fundamental_alternating(n)).is_zero()


@dataclass(frozen=True)
class HarmonicBasisReport:
    n: int
    dimension: int
    expected_dimension: int
    mvp_failures: tuple   # ((degree_index, element_index, k), ...)
    closure_ok: bool

    @property
    def all_ok(self):
        return (
            self.dimension == self.expected_dimension
            and not self.mvp_failures
            and self.closure_ok
        )


def harmonic_basis_report(n, allow_large=False):
    """Check the full derivative-module basis: dimension, the mean value
    property for every skeleton dimension, and closure under derivatives."""
    layers = harmonic_basis(n, allow_large)
    dimension = sum(len(layer) for layer in layers)
    failures = []
    for li, layer in enumerate(layers):
        for ei, element in enumerate(layer):
            for k in range(n + 1):
                if not mean_value_report(element, n, k).holds:
                    failures.append((li, ei, k))
    # a layer spans the derivatives of the layer above it exactly when
    # adding them leaves its independent subset no larger
    closure_ok = all(
        len(_independent_subset(below + [p.partial(i) for p in above for i in range(n)]))
        <= len(below)
        for above, below in zip(layers, layers[1:])
    )
    expected = 2 ** n * factorial(n)
    return HarmonicBasisReport(n, dimension, expected, tuple(failures), closure_ok)
