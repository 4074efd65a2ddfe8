"""Generating polynomials packaging the skeleton coefficients over k.

For fixed degree parameters the leading coefficients c^(k) across all
skeleton dimensions k assemble into one polynomial in t.  The family is
generated by a Bernoulli-number recursion; coefficient reversal and the
substitution t -> (1-t)/t give two companion forms, the latter satisfying
a differential-difference equation.  `identity_report` verifies the
defining series identities with polynomial coefficients, exactly, up to
a truncation order.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm

from .bernoulli import coth_series, scaled_bernoulli, tanh_series
from .series import TruncatedSeries, series_log
from .unipoly import ONE, T, UniPoly, binomial_poly

__all__ = [
    "generating_poly",
    "lifted_generating_poly",
    "coefficient_from_generating_poly",
    "coefficient_from_family",
    "reversed_generating_poly",
    "bernstein_transform",
    "IdentityCheck",
    "IdentityReport",
    "identity_report",
]


@lru_cache(maxsize=None)
def _s_family(m):
    """Q_m(s) = P_m(s - 1), as integer numerators by power of s over one denominator.

    In the basis s = t + 1 the Bernoulli recursion reads
        Q_m = b_m s**(m-1) + 2 (s-1) * sum_{i<m} b_{m-i} s**(m-i-1) Q_i
    with Q_1 = (3s - 2)/6, so each power of s is a shift and the whole
    family up to m costs O(m**3) integer products.  The denominator is
    the lcm of b_m's and of every b_{m-i} Q_i's, and the result is
    reduced by one gcd.
    """
    if m == 1:
        return (-2, 3), 6
    lead = scaled_bernoulli(m)
    # ascending in i, so each Q_i is cached before the next reads it and
    # the recursion never goes deeper than one level
    parts = [(scaled_bernoulli(m - i), *_s_family(i)) for i in range(1, m)]
    den = lcm(lead.denominator, *(b.denominator * d for b, _, d in parts))
    acc = [0] * m
    for i, (b, nums, d) in enumerate(parts, 1):
        factor = b.numerator * (den // (b.denominator * d))
        for j, c in enumerate(nums, m - i - 1):
            acc[j] += factor * c
    out = [0] * (m + 1)
    for j, c in enumerate(acc):  # times 2 (s - 1)
        out[j + 1] += 2 * c
        out[j] -= 2 * c
    out[m - 1] += lead.numerator * (den // lead.denominator)
    common = gcd(den, *out)
    return tuple(c // common for c in out), den // common


@lru_cache(maxsize=None)
def generating_poly(m):
    """Degree-m member of the base family, via the Bernoulli recursion.

    The recursion is
        P_m = b_m (t+1)**(m-1) + 2 t * sum_{i<m} b_{m-i} (t+1)**(m-i-1) P_i
    with P_1 = t/2 + 1/6 and b_i the positive scaled Bernoulli numbers,
    so every coefficient is positive and the degree is exactly m.  It is
    run in integers in the basis s = t + 1 (`_s_family`), and the t**i
    coefficient is sum_{j>=i} Q_m[j] C(j, i) over Q_m's denominator.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    nums, den = _s_family(m)
    return UniPoly(
        Fraction(sum(c * comb(j, i) for j, c in enumerate(nums[i:], i)), den)
        for i in range(m + 1)
    )


def lifted_generating_poly(n, m):
    """(t+1)**(n-m) times the base polynomial; defined for n >= m >= 1."""
    if not n >= m >= 1:
        raise ValueError("need n >= m >= 1")
    return binomial_poly(n - m) * generating_poly(m)


def _assembly_weight(n, m, k):
    """Weight n!/((n-k)! (2m+k)!) of the skeleton-k coefficient at t**(n-k), as (num, den)."""
    return factorial(n), factorial(n - k) * factorial(2 * m + k)


def coefficient_from_generating_poly(poly, n, m, k):
    """Invert the assembly: read the skeleton-k coefficient off t**(n-k)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    w_num, w_den = _assembly_weight(n, m, k)
    return Fraction(poly[n - k].numerator * w_den, poly[n - k].denominator * w_num)


def coefficient_from_family(n, m, k):
    """`coefficient_from_generating_poly` on the lift s**(n-m) Q_m(s), never built.

    The t**(n-k) numerator is sum_j Q_m[j] C(j+n-m, n-k), zero below j = m-k.
    """
    if not n >= m >= 1:
        raise ValueError("need n >= m >= 1")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    nums, den = _s_family(m)
    lifted = sum([nums[j] * comb(j + n - m, n - k) for j in range(max(0, m - k), m + 1)])
    w_num, w_den = _assembly_weight(n, m, k)
    return Fraction(lifted * w_den, den * w_num)


def reversed_generating_poly(n, m):
    """Coefficient reversal t**n * P(1/t) of the lifted polynomial."""
    return lifted_generating_poly(n, m).reciprocal(n)


def bernstein_transform(n, m):
    """The substitution t**n * P((1-t)/t) of the lifted polynomial P.

    The lift (t+1)**(n-m) becomes t**(m-n), so this is t**m G_m((1-t)/t)
    and depends only on m.  Since (1-t)/t + 1 = 1/t it equals
    t**m Q_m(1/t): the s-basis numerators of G_m reversed.
    """
    if not n >= m >= 1:
        raise ValueError("need n >= m >= 1")
    nums, den = _s_family(m)
    return UniPoly(Fraction(c, den) for c in reversed(nums))


IdentityCheck = namedtuple("IdentityCheck", "name ok detail", defaults=("",))


class IdentityReport(namedtuple("IdentityReport", "order checks")):
    __slots__ = ()

    @property
    def all_ok(self):
        return all(c.ok for c in self.checks)


def _first_mismatch(a, b):
    for j, (x, y) in enumerate(zip(a.coeffs, b.coeffs)):
        if x != y:
            diff = x - y
            return f"first mismatch at z^{j}: difference {diff.pretty()}"
    return ""


def _lift(series, order):
    return TruncatedSeries([UniPoly.constant(c) for c in series.coeffs[: order + 1]], order)


def _check_cleared_product(order):
    """Denominator-cleared form of the defining series identity.

    With M = order/2, both sides of
        [sum_m (-1)**(m-1) P_m (t+1)**(M-m) z**(2m)] * 2 (t z coth z + 1)
        = (z coth z + t z**2 - 1) * (t+1)**M
    are polynomials in t at every z power; they must agree exactly.
    """
    M = order // 2
    zcoth = _lift(coth_series(order), order)
    lhs_sum = [UniPoly()] * (order + 1)
    for m in range(1, M + 1):
        lhs_sum[2 * m] = (-1) ** (m - 1) * lifted_generating_poly(M, m)
    two_t_zcoth_plus_2 = zcoth.scale(2 * T) + TruncatedSeries([UniPoly.constant(2)], order)
    lhs = TruncatedSeries(lhs_sum, order) * two_t_zcoth_plus_2

    rhs_core = zcoth + TruncatedSeries([-ONE, UniPoly(), T], order)
    rhs = rhs_core.scale(binomial_poly(M))
    ok = lhs == rhs
    return IdentityCheck("cleared-product", ok, "" if ok else _first_mismatch(lhs, rhs))


def _log_argument(order):
    """(1-t) cosh z + t sinh z / z as a series with polynomial coefficients."""
    coeffs = [UniPoly()] * (order + 1)
    for j in range(order // 2 + 1):
        cosh_c = Fraction(1, factorial(2 * j))
        sinh_c = Fraction(1, factorial(2 * j + 1))
        coeffs[2 * j] = (ONE - T) * cosh_c + T * sinh_c
    return TruncatedSeries(coeffs, order)


def _check_log_series(logs, order):
    """Logarithm of the mixed cosh/sinh series reproduces the Bernstein family."""
    M = order // 2
    for m in range(1, M + 1):
        expected = (-1) ** (m - 1) * Fraction(1, m) * bernstein_transform(m, m)
        actual = logs.coefficient(2 * m)
        if actual != expected:
            diff = actual - expected
            return IdentityCheck(
                "log-series", False, f"z^{2 * m} coefficient differs by {diff.pretty()}"
            )
    return IdentityCheck("log-series", True)


def _check_pde(logs, order):
    """The logarithm satisfies z F_z + (t - (1-t)^2 z^2) F_t = (1-t) z^2."""
    phi = [logs.coefficient(2 * j) for j in range(order // 2 + 1)]
    one_minus_t_sq = UniPoly((1, -2, 1))
    for j in range(len(phi)):
        residual = 2 * j * phi[j] + T * phi[j].derivative()
        if j >= 1:
            residual = residual - one_minus_t_sq * phi[j - 1].derivative()
        if j == 1:
            residual = residual - (ONE - T)
        if residual:
            return IdentityCheck(
                "transport-pde", False, f"z^{2 * j} residual {residual.pretty()}"
            )
    return IdentityCheck("transport-pde", True)


def _check_reflected_tanh(order):
    """Constant terms of the reflected family match (z/2) tanh z."""
    M = order // 2
    tanh = tanh_series(order)
    for m in range(1, M + 1):
        lhs = (-1) ** (m - 1) * reversed_generating_poly(m, m)[0]
        rhs = tanh.coefficient(2 * m - 1) / 2
        if lhs != rhs:
            return IdentityCheck(
                "reflected-tanh", False, f"z^{2 * m} coefficient {lhs} != {rhs}"
            )
    return IdentityCheck("reflected-tanh", True)


def identity_report(order):
    """Run the four exact series checks at the given even truncation order."""
    if order < 4 or order % 2:
        raise ValueError("order must be an even integer >= 4")
    logs = series_log(_log_argument(order))
    checks = (
        _check_cleared_product(order),
        _check_log_series(logs, order),
        _check_pde(logs, order),
        _check_reflected_tanh(order),
    )
    return IdentityReport(order, checks)
