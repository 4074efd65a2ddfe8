"""Reference values computed apart from cubeharm.

Nothing here imports the program.  The workloads check every result the
program gives against these values, or against a property the method
must have; `test_reference.py` checks the references themselves.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial


def scaled_bernoulli_table(max_m):
    """[None, b_1, ..., b_max_m] with b_m = 2**(2m-1) |B_2m| / (2m)!.

    The B_j come from the Akiyama-Tanigawa algorithm, which shares no
    step with the program's binomial recurrence.
    """
    top = 2 * max_m
    row = [Fraction(0)] * (top + 1)
    signed = []
    for j in range(top + 1):
        row[j] = Fraction(1, j + 1)
        for i in range(j, 0, -1):
            row[i - 1] = i * (row[i - 1] - row[i])
        signed.append(row[0])
    table = [None]
    for m in range(1, max_m + 1):
        table.append(Fraction(2 ** (2 * m - 1)) * abs(signed[2 * m]) / factorial(2 * m))
    return table


def closed_form(n, m, k, b):
    """c(n, m, k) where a closed form applies, else None; `b` is the table above.

    The forms cover k in {0, 1, n-3, n-2, n-1, n} in their stated ranges,
    and m = 1 at every k, read off (t + 1)**(n-1) * (t/2 + 1/6).  Where
    several forms cover a cell they must agree.
    """
    values = []
    if k == 0:
        values.append(factorial(2 * m) * (4 ** m - 1) * b[m])
    if k == 1:
        values.append(
            factorial(2 * m + 1)
            * ((4 ** m - 1) * b[m] - Fraction(2 * m, n) * (4 ** (m + 1) - 1) * b[m + 1])
        )
    if k >= n - 1 or (k == n - 2 and m >= 2):
        values.append(Fraction(factorial(n + 2 * m), factorial(n)) * b[m])
    if k == n - 3 and n >= 3 and m >= 2:
        values.append(
            (factorial(n + 2 * m) * b[m] - 4 * m * factorial(n + 2 * m - 3) * b[m - 1])
            / factorial(n)
        )
    if m == 1:
        j = n - k
        lifted = Fraction(comb(n - 1, j), 6) + (Fraction(comb(n - 1, j - 1), 2) if j else 0)
        values.append(lifted * factorial(j) * factorial(k + 2) / factorial(n))
    if not values:
        return None
    if any(v != values[0] for v in values):
        raise AssertionError(f"reference closed forms disagree at ({n},{m},{k}): {values}")
    return values[0]


def log_series_at(t, max_m):
    """[None, L_1, ..., L_max_m]: log(1 + sum_j a_j x**j) at a point t.

    a_j = ((2j+1) t + 1) / ((2j+1)! (t + 1)); with x = z**2 the series
    inside the log is (t cosh z + sinh(z)/z) / (t + 1).  Computed from
    F L' = F', so m L_m = m a_m - sum_{i<m} i L_i a_{m-i}.
    """
    t = Fraction(t)
    a = [None] + [((2 * j + 1) * t + 1) / (factorial(2 * j + 1) * (t + 1))
                  for j in range(1, max_m + 1)]
    logs = [None]
    for m in range(1, max_m + 1):
        tail = sum((i * logs[i] * a[m - i] for i in range(1, m)), Fraction(0))
        logs.append(a[m] - tail / m)
    return logs


def generating_value(n, m, t, logs):
    """The generating polynomial of row (n, m) at t; `logs` from log_series_at(t).

    The polynomial is sum_k n! c(n, m, k) t**(n-k) / ((n-k)! (2m+k)!), and
    equals (-1)**(m-1) m (t + 1)**n [x**m] log(1 + sum_j a_j x**j): the
    sum over Young diagrams of weight m is that coefficient of the log.
    """
    return (-1) ** (m - 1) * m * (Fraction(t) + 1) ** n * logs[m]


def weighted_row(row, n, m, t):
    """Evaluate a row of coefficients c(n, m, 0..n) as its generating polynomial at t."""
    t = Fraction(t)
    return sum(
        factorial(n) * c * t ** (n - k) / (factorial(n - k) * factorial(2 * m + k))
        for k, c in enumerate(row)
    )


def tanh_coefficients(order):
    """Taylor coefficients of tanh z up to z**order, from tanh' = 1 - tanh**2."""
    t = [Fraction(0)] * (order + 1)
    for j in range(order):
        square = sum(t[i] * t[j - i] for i in range(j + 1))
        t[j + 1] = ((1 if j == 0 else 0) - square) / (j + 1)
    return t


def _elementary(values, k):
    e = [Fraction(1)] + [Fraction(0)] * k
    for v in values:
        for j in range(k, 0, -1):
            e[j] += e[j - 1] * v
    return e[k]


def face_moment(beta, k):
    """Average of y**beta over the k-skeleton of [-1, 1]**n, n = len(beta).

    Zero unless every beta_i is even; then e_k(1/(beta_1+1), ..., 1/(beta_n+1))
    divided by C(n, k).
    """
    if any(b % 2 for b in beta):
        return Fraction(0)
    n = len(beta)
    return _elementary([Fraction(1, b + 1) for b in beta], k) / comb(n, k)


def face_moment_by_faces(beta, k):
    """The same average by enumerating every face; slow, for tests."""
    n = len(beta)
    total = Fraction(0)
    faces = 0
    for free in combinations(range(n), k):
        pinned = [i for i in range(n) if i not in free]
        for signs in product((1, -1), repeat=n - k):
            faces += 1
            value = Fraction(1)
            for i in free:
                value *= Fraction(1, beta[i] + 1) if beta[i] % 2 == 0 else 0
            for i, s in zip(pinned, signs):
                value *= s ** beta[i]
            total += value
    return total / faces


def mvp_residual(terms, n, k):
    """Skeleton average of f(x + r y) minus f(x), as {(x..., r): coefficient}.

    `terms` maps exponent tuples to coefficients.  Each monomial expands
    binomially per axis; the y-part averages by `face_moment`.
    """
    moments = {}
    out = {}
    for exps, c in terms.items():
        for j in product(*(range(a + 1) for a in exps)):
            if not any(j):
                continue  # the j = 0 part reproduces f and cancels
            if j not in moments:
                moments[j] = face_moment(j, k)
            mu = moments[j]
            if not mu:
                continue
            weight = c * mu
            for a, ji in zip(exps, j):
                weight *= comb(a, ji)
            key = tuple(a - ji for a, ji in zip(exps, j)) + (sum(j),)
            out[key] = out.get(key, 0) + weight
    return {key: v for key, v in out.items() if v}


def module_dimension(n):
    """Dimension of the derivative module of the alternating polynomial."""
    return 2 ** n * factorial(n)
