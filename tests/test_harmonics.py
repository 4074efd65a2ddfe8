from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeharm.harmonics import (
    annihilates_alternating,
    apply_as_operator,
    harmonic_basis,
    harmonic_basis_report,
    harmonic_module_dimension,
    mean_value_report,
    skeleton_average,
)
from cubeharm.invariants import fundamental_alternating, skeleton_invariant
from cubeharm.multipoly import MultiPoly
from faces import cube_faces, face_walk_average
from oracles import dense_independent_subset


def small_polys(nvars=2):
    exps = st.tuples(*(st.integers(0, 3) for _ in range(nvars)))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.dictionaries(exps, coeff, max_size=3).map(
        lambda terms: MultiPoly(nvars, terms)
    )


class TestFaces:
    def test_counts(self):
        assert len(list(cube_faces(2, 1))) == 4
        assert len(list(cube_faces(3, 0))) == 8
        assert len(list(cube_faces(3, 2))) == 6
        assert len(list(cube_faces(3, 3))) == 1

    def test_faces_partition_axes(self):
        for face in cube_faces(3, 1):
            assert len(face.free) == 1
            assert len(face.fixed) == 2
            assert all(sign in (1, -1) for _, sign in face.fixed)

    def test_deterministic(self):
        assert list(cube_faces(3, 1)) == list(cube_faces(3, 1))


class TestSkeletonAverage:
    def test_square_on_edges(self):
        avg = skeleton_average(MultiPoly.monomial((2, 0)), 2, 1)
        assert avg == MultiPoly(3, {(2, 0, 0): 1, (0, 0, 2): Fraction(2, 3)})

    def test_constant_is_preserved(self):
        for n in range(1, 4):
            for k in range(n + 1):
                one = MultiPoly.constant(n, 1)
                assert skeleton_average(one, n, k) == MultiPoly.constant(n + 1, 1)

    def test_linear_is_preserved(self):
        for n in (2, 3):
            for k in range(n + 1):
                x1 = MultiPoly.monomial((1,) + (0,) * (n - 1))
                assert skeleton_average(x1, n, k) == x1.extended(n + 1)

    def test_setting_r_to_zero_recovers_input(self):
        f = MultiPoly(2, {(2, 1): 3, (0, 2): Fraction(-1, 2), (1, 0): 1})
        avg = skeleton_average(f, 2, 1)
        at_r0 = MultiPoly(2, {e[:2]: c for e, c in avg.terms.items() if e[2] == 0})
        assert at_r0 == f

    @settings(max_examples=40, deadline=None)
    @given(small_polys(), small_polys())
    def test_linearity(self, f, g):
        lhs = skeleton_average(f + g, 2, 1)
        rhs = skeleton_average(f, 2, 1) + skeleton_average(g, 2, 1)
        assert lhs == rhs

    def test_degree_bound(self):
        f = MultiPoly(2, {(2, 2): 1, (1, 0): 2})
        avg = skeleton_average(f, 2, 0)
        assert max(sum(e) for e in avg.terms) <= max(sum(e) for e in f.terms)


@st.composite
def rational_polys_with_skeleton(draw):
    n = draw(st.integers(1, 4))
    exps = st.tuples(*(st.integers(0, 5) for _ in range(n)))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    f = MultiPoly(n, draw(st.dictionaries(exps, coeff, max_size=4)))
    return f, n, draw(st.integers(0, n))


class TestMomentFormulaMatchesFaceWalk:
    @staticmethod
    def assert_same(f, n, k):
        assert skeleton_average(f, n, k).to_obj() == face_walk_average(f, n, k).to_obj()

    def test_alternating_up_to_four(self):
        for n in range(1, 5):
            delta = fundamental_alternating(n)
            for k in range(n + 1):
                self.assert_same(delta, n, k)

    def test_every_module_element_up_to_three(self):
        for n in range(1, 4):
            for layer in harmonic_basis(n):
                for element in layer:
                    for k in range(n + 1):
                        self.assert_same(element, n, k)

    @settings(max_examples=60, deadline=None)
    @given(rational_polys_with_skeleton())
    def test_random_rational_polynomials(self, case):
        self.assert_same(*case)

    def test_errors_are_kept(self):
        f = MultiPoly.monomial((2, 1))
        with pytest.raises(ValueError, match="variable count"):
            skeleton_average(f, 3, 1)
        for k in (-1, 3):
            with pytest.raises(ValueError, match="0 <= k <= n"):
                skeleton_average(f, 2, k)

class TestMeanValue:
    def test_alternating_passes(self):
        rep = mean_value_report(fundamental_alternating(2), 2, 1)
        assert rep.holds
        assert rep.residual.is_zero()

    def test_square_fails_with_known_residual(self):
        rep = mean_value_report(MultiPoly.monomial((2, 0)), 2, 1)
        assert not rep.holds
        assert rep.residual == MultiPoly(3, {(0, 0, 2): Fraction(2, 3)})

    def test_constants_pass_everywhere(self):
        for n in range(1, 4):
            for k in range(n + 1):
                assert mean_value_report(MultiPoly.constant(n, 5), n, k).holds

    def test_invariant_witness_fails_at_vertices(self):
        witness = MultiPoly.monomial((2, 2))
        assert not mean_value_report(witness, 2, 0).holds


    def test_alternating_passes_in_five_dimensions(self):
        d5 = fundamental_alternating(5)
        for k in range(6):
            assert mean_value_report(d5, 5, k).holds

def dense_harmonic_basis(n):
    """The layers of `harmonic_basis`, each chosen by dense elimination."""
    layers = []
    current = [fundamental_alternating(n)]
    while current:
        layers.append(dense_independent_subset(current))
        current = [p.partial(i) for p in layers[-1] for i in range(n)]
        current = [p for p in current if not p.is_zero()]
    return layers


class TestDerivativeModule:
    def test_dimensions(self):
        assert harmonic_module_dimension(1) == 2
        assert harmonic_module_dimension(2) == 8
        assert harmonic_module_dimension(3) == 48

    def test_guard(self):
        with pytest.raises(ValueError):
            harmonic_module_dimension(4)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_layers_match_dense_elimination(self, n):
        assert harmonic_basis(n) == dense_harmonic_basis(n)

    def test_one_dimensional_basis(self):
        layers = harmonic_basis(1)
        flat = [p for layer in layers for p in layer]
        assert flat == [MultiPoly(1, {(1,): 1}), MultiPoly(1, {(0,): 1})]
        for p in flat:
            for k in (0, 1):
                assert mean_value_report(p, 1, k).holds


class TestAnnihilation:
    def test_explicit_small_case(self):
        operator = skeleton_invariant(2, 1, 2)  # 2(x1^2 + x2^2)
        result = apply_as_operator(operator, fundamental_alternating(2))
        assert result.is_zero()

    def test_everything_up_to_three(self):
        for n in range(1, 4):
            for m in range(1, n + 1):
                for k in range(n + 1):
                    assert annihilates_alternating(n, m, k)

    def test_degree_drop_case(self):
        assert annihilates_alternating(1, 1, 0)

    def test_everything_at_four(self):
        assert all(annihilates_alternating(4, m, k) for m in range(1, 5) for k in range(5))

    @pytest.mark.large
    def test_everything_at_five(self):
        assert all(annihilates_alternating(5, m, k) for m in range(1, 6) for k in range(6))

    @pytest.mark.parametrize("n", [2, 3])
    def test_non_invariant_operator_leaves_a_remainder(self, n):
        delta = fundamental_alternating(n)
        d1_squared = MultiPoly.monomial((2,) + (0,) * (n - 1))
        result = apply_as_operator(d1_squared, delta)
        assert not result.is_zero()
        assert result == delta.partial(0).partial(0)


@pytest.mark.large
class TestFourDimensionalOptIn:
    def test_dimension(self):
        assert harmonic_module_dimension(4, allow_large=True) == 384

    def test_layers_match_dense_elimination(self):
        assert harmonic_basis(4, allow_large=True) == dense_harmonic_basis(4)

    def test_alternating_mean_value_all_skeletons(self):
        d4 = fundamental_alternating(4)
        for k in range(5):
            assert mean_value_report(d4, 4, k).holds

    def test_basis_report(self):
        rep = harmonic_basis_report(4, allow_large=True)
        assert rep.dimension == 384
        assert rep.all_ok


@pytest.mark.large
class TestFiveDimensionalOptIn:
    def test_dimension(self):
        assert harmonic_module_dimension(5, allow_large=True) == 3840


@pytest.mark.large
class TestSixDimensionalOptIn:
    @pytest.mark.parametrize("k", [2, 6])
    def test_alternating_mean_value(self, k):
        assert mean_value_report(fundamental_alternating(6), 6, k).holds

class TestBasisReport:
    def test_two_dimensional_suite(self):
        rep = harmonic_basis_report(2)
        assert rep.dimension == 8
        assert rep.all_ok

    def test_closure_fails_on_a_truncated_layer(self, monkeypatch):
        full = harmonic_basis(2)

        def truncated(n, allow_large=False):
            return [layer[:-1] if li == 2 else layer for li, layer in enumerate(full)]

        monkeypatch.setattr("cubeharm.harmonics.harmonic_basis", truncated)
        rep = harmonic_basis_report(2)
        assert not rep.closure_ok
        assert not rep.all_ok

    def test_invariant_witness_is_outside_module(self):
        # x1^2 x2^2 is invariant of positive degree: not in the module and
        # failing the mean value property at the vertices
        witness = MultiPoly.monomial((2, 2))
        assert not mean_value_report(witness, 2, 0).holds
        assert 2 ** 2 * factorial(2) == harmonic_module_dimension(2)
