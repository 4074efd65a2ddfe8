"""Exact verification of the mean value property on cube skeletons.

The averaging operator is evaluated symbolically: the scale of the
averaging window stays a formal variable r, and no face is visited.
By the moment formula the k-skeleton average of y**b is zero unless
every b_i is even, and is then e_k(1/(b_1+1), ..., 1/(b_n+1)) / C(n, k),
so the mean value property becomes a polynomial identity in (x, r).  The
module also computes the dimension of the span of all partial
derivatives of the fundamental alternating polynomial, and checks that
the skeleton invariants annihilate it as differential operators.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import cost
from .invariants import fundamental_alternating, skeleton_invariant
from .linalg import RowBasis
from .multipoly import MultiPoly

__all__ = [
    "skeleton_average",
    "MvpReport",
    "mean_value_report",
    "harmonic_basis",
    "harmonic_module_dimension",
    "annihilates_alternating",
    "apply_as_operator",
    "HarmonicBasisReport",
    "harmonic_basis_report",
]


def skeleton_average(f, n, k):
    """Average of f(x + r y) over the k-skeleton, as a polynomial in (x, r).

    Each term c x**a is expanded binomially on every axis.  The skeleton
    average of y**b is zero unless every b_i is even, and is then
    e_k(1/(b_1+1), ..., 1/(b_n+1)) / C(n, k).  Since
    C(a, b)/(b+1) = C(a+1, b+1)/(a+1), the coefficient of
    x**(a-b) r**|b| is c / (C(n, k) prod(a_i+1)) times the integer
    [w**(n-k)] prod_i C(a_i+1, b_i+1) (1 + (b_i+1) w).  The result has
    n + 1 variables, the averaging scale r being last.
    """
    if f.nvars != n:
        raise ValueError("polynomial variable count must equal n")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    total = {}
    for exps, coeff in f.terms.items():
        # one entry per even b so far: (x exponents, r power, integer
        # polynomial in w truncated above w**(n-k))
        partial = [((), 0, [1] + [0] * (n - k))]
        scale = comb(n, k)
        for a in exps:
            scale *= a + 1
            nxt = []
            for xp, rp, poly in partial:
                for b in range(0, a + 1, 2):
                    binom = comb(a + 1, b + 1)
                    lifted = [binom * c for c in poly]
                    for j in range(n - k, 0, -1):
                        lifted[j] += (b + 1) * lifted[j - 1]
                    nxt.append((xp + (a - b,), rp + b, lifted))
            partial = nxt
        scale = Fraction(coeff, scale)
        for xp, rp, poly in partial:
            key = xp + (rp,)
            total[key] = total.get(key, 0) + scale * poly[n - k]
    return MultiPoly(n + 1, total)


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


def _independent_subset(polys):
    """Greedy maximal linearly independent subset, in input order."""
    basis = RowBasis()
    return [p for p in polys if basis.add(p.terms)]


def harmonic_basis(n, allow_large=False):
    """Layers of a basis of the span of all derivatives of the alternating
    polynomial, from top degree n**2 down to the constants.  Past the
    "dimension" limit of `cost.LIMITS` only with `allow_large`."""
    cost.check("dimension", n, allow_large)
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
    total = {}
    for exps, c in operator.terms.items():
        for key, d in f.partial_power(exps).terms.items():
            total[key] = total.get(key, 0) + c * d
    return MultiPoly(f.nvars, total)


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
    # the derivatives of each layer must lie in the span of the layer below
    closure_ok = True
    for above, below in zip(layers, layers[1:]):
        span = RowBasis()
        for p in below:
            span.add(p.terms)
        closure_ok = closure_ok and all(
            span.contains(p.partial(i).terms) for p in above for i in range(n)
        )
    expected = 2 ** n * factorial(n)
    return HarmonicBasisReport(n, dimension, expected, tuple(failures), closure_ok)
