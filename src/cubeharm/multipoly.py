"""Sparse multivariate polynomials over exact rationals.

Terms live in a dict keyed by exponent tuples.  Nothing is stored for a
zero coefficient, and serialization sorts terms in graded lexicographic
order so repeated runs emit identical bytes.  A coefficient is an int or
a `Fraction` and is kept as given, so a polynomial with int coefficients
stays in integers through sums, products and derivatives; a float is
refused.  Python compares and hashes 3 and Fraction(3) alike, and so do
the polynomials that hold them.
"""

from fractions import Fraction
from math import perm, prod
from operator import sub

from .unipoly import signed_sum

__all__ = ["MultiPoly", "grlex_key"]


def grlex_key(exps):
    """Graded-lex sort key: total degree first, then the exponent tuple."""
    return (sum(exps), exps)


class MultiPoly:
    """Immutable sparse polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError("exponent vector length mismatch")
                if type(coeff) not in (int, Fraction):
                    raise TypeError(f"coefficient {coeff!r} is not an int or a Fraction")
                if coeff:
                    clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls(len(exps), {tuple(exps): coeff})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {dict(self.canonical_items())!r})"

    def canonical_items(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return MultiPoly(self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            if self.nvars != other.nvars:
                raise ValueError("variable count mismatch")
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    out[key] = out.get(key, 0) + c1 * c2
            return MultiPoly(self.nvars, out)
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def partial(self, index):
        """Partial derivative with respect to variable `index`."""
        return self.partial_power((0,) * index + (1,) + (0,) * (self.nvars - index - 1))

    def partial_power(self, orders):
        """Apply the mixed derivative with the given order per variable, in
        one pass: x**e goes to prod perm(e_i, o_i) x**(e - o), the integer
        falling factorials being 0 once some o_i > e_i."""
        if len(orders) != self.nvars:
            raise ValueError("order vector length mismatch")
        if min(orders) < 0:
            raise ValueError("derivative orders must be >= 0")
        out = {}
        for exps, c in self.terms.items():
            scale = prod(map(perm, exps, orders))
            if scale:
                out[tuple(map(sub, exps, orders))] = c * scale
        return MultiPoly(self.nvars, out)

    def extended(self, nvars):
        """Embed into a ring with extra trailing variables."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink variable count")
        pad = (0,) * (nvars - self.nvars)
        return MultiPoly(nvars, {e + pad: c for e, c in self.terms.items()})

    def to_obj(self):
        """Canonical serialization: [[exponents, "p/q"], ...] in graded-lex order."""
        return [[list(exps), str(c)] for exps, c in self.canonical_items()]

    @classmethod
    def from_obj(cls, nvars, obj):
        return cls(nvars, {tuple(e): Fraction(s) for e, s in obj})

    def pretty(self, names=None):
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        return signed_sum(
            (c, "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e))
            for exps, c in self.canonical_items()
        )
