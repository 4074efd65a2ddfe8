"""Reference code the tests compare the program against.

None of it runs in production: the differential-difference route to the
Bernstein family, the signed permutation of variables that defines the
hyperoctahedral averages, and the rebuilding of an invariant from its
elementary-basis expansion.
"""

from fractions import Fraction

from cubeharm.bernoulli import scaled_bernoulli
from cubeharm.invariants import elementary_symmetric_squares
from cubeharm.multipoly import MultiPoly
from cubeharm.unipoly import UniPoly


def power(base, exponent):
    """A `UniPoly` to a nonnegative power, by repeated multiplication."""
    result = UniPoly((1,))
    for _ in range(exponent):
        result = result * base
    return result


def bernstein_from_ode(m, prev):
    """Solve the differential-difference equation for the next member.

    Coefficient matching in 2*F + (t/m)*F' + ((1-t)**2/(m-1))*prev' = 0
    determines every coefficient of F, since 2 + j/m > 0.  The constant
    term must come out as (2**(2m)-1)*b_m; a mismatch means a bug, so it
    is a hard error rather than a report.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if prev.degree != m - 1:
        raise ValueError("previous member must have degree m - 1")
    f = [prev[j] for j in range(max(prev.degree + 1, 0))]

    def fc(j):
        return f[j] if 0 <= j < len(f) else Fraction(0)

    coeffs = []
    for j in range(m + 1):
        rhs = -(Fraction(1, m - 1)) * ((j + 1) * fc(j + 1) - 2 * j * fc(j) + (j - 1) * fc(j - 1))
        coeffs.append(rhs / (2 + Fraction(j, m)))
    result = UniPoly(coeffs)
    expected0 = (2 ** (2 * m) - 1) * scaled_bernoulli(m)
    if result[0] != expected0:
        raise RuntimeError(
            f"differential-difference solution has constant term {result[0]},"
            f" expected {expected0}"
        )
    return result


def signed_permute(poly, signs=None, perm=None):
    """Substitute x_i -> signs[i] * x_{perm[i]} (identity when omitted)."""
    if signs is None:
        signs = (1,) * poly.nvars
    if perm is None:
        perm = tuple(range(poly.nvars))
    out = {}
    for exps, c in poly.terms.items():
        sign = 1
        new = [0] * poly.nvars
        for i, e in enumerate(exps):
            if e:
                new[perm[i]] += e
                if signs[i] < 0 and e % 2:
                    sign = -sign
        key = tuple(new)
        out[key] = out.get(key, Fraction(0)) + sign * c
    return MultiPoly(poly.nvars, out)


def _elementary_product(n, parts):
    poly = MultiPoly.constant(n, 1)
    for p in parts:
        poly = poly * elementary_symmetric_squares(n, p)
    return poly


def reconstruct(expansion):
    """The invariant an `InvariantExpansion` stands for, rebuilt from its terms."""
    n = expansion.n
    total = _elementary_product(n, (expansion.m,)) * expansion.leading
    for parts, coeff in expansion.lower_terms:
        total = total + _elementary_product(n, parts) * coeff
    return total
