"""The fiber-sum construction of h, g and tau against the symbolic
references in `oracles`: the expansion of h as a complete homogeneous
polynomial of the suffix sums, and the average over every permutation
of the variables.  The alternating polynomial's signed monomials against
its product of factors."""

from cubeharm.invariants import (
    flag_moment,
    flag_moment_even,
    fundamental_alternating,
    skeleton_invariant,
)
from cubeharm.multipoly import MultiPoly
from oracles import (
    alternating_by_products,
    complete_homogeneous,
    suffix_sums,
    symmetrize_over_permutations,
)


def flag_moment_by_expansion(n, k, m):
    """h_m of the first k + 1 suffix sums, the empty sum included at k = n."""
    args = suffix_sums(n)[: k + 1]
    if k == n:
        args.append(MultiPoly(n))
    return complete_homogeneous(m, args)


def test_flag_moment_matches_symbolic_expansion():
    for n in range(1, 5):
        for k in range(n + 1):
            for m in range(7):
                assert flag_moment(n, k, m) == flag_moment_by_expansion(n, k, m), (n, k, m)


def test_skeleton_invariant_matches_permutation_average():
    cells = [(n, k, degree) for n in range(1, 7) for k in range(n + 1) for degree in range(9)]
    for n, k, degree in cells + [(10, 3, 4)]:
        expected = symmetrize_over_permutations(flag_moment_even(n, k, degree))
        assert skeleton_invariant(n, k, degree) == expected, (n, k, degree)


def test_alternating_monomials_match_the_product_of_factors():
    for n in range(1, 7):
        assert fundamental_alternating(n) == alternating_by_products(n), n
