"""Algebra-level tests: product signs, conjugation, grades, parity splits.

The Cl(0,3) array engine of `vekua_lab.clifford` is checked exactly against
the sign oracle of `oracles`, and the algebra laws are checked on the engine
for n = 3 and on the oracle for larger n.  Everything here is exact integer
arithmetic; assertions use equality or a zero tolerance unless stated
otherwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from vekua_lab import clifford as cl
from oracles import Multivector, geometric_product, grade_project, parity_split

from conftest import fresh_python


def gp(a, b):
    """The product under test: the engine on the 8 blades of Cl(0,3), the
    sign oracle on larger algebras."""
    return cl.gp_array(a, b) if a.shape[-1] == 8 else O.gp(a, b)


def e(i, n=3):
    return O.blade(1 << (i - 1), n)


def integer_coeffs(n):
    dim = 1 << n
    return st.lists(
        st.integers(min_value=-5, max_value=5), min_size=dim, max_size=dim
    ).map(lambda c: np.array(c, dtype=float))


def integer_mv(n):
    return integer_coeffs(n).map(lambda c: Multivector(n, c))


# -- generator relations ---------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_generators_square_to_minus_one(n):
    for i in range(1, n + 1):
        sq = gp(e(i, n), e(i, n))
        assert sq[0] == -1.0
        assert np.count_nonzero(sq) == 1


@pytest.mark.parametrize("n", [3, 4, 6])
def test_anticommutation(n):
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            anti = gp(e(i, n), e(j, n)) + gp(e(j, n), e(i, n))
            if i == j:
                assert anti[0] == -2.0
                assert np.count_nonzero(anti) == 1
            else:
                assert not np.any(anti)


def test_spec_product_examples():
    e1, e2 = e(1), e(2)
    assert cl.gp_array(e1, e2)[0b011] == 1.0
    assert cl.gp_array(e2, e1)[0b011] == -1.0
    prod = cl.gp_array(e1 + e2, e1 - e2)
    expected = np.zeros(8)
    expected[0b011] = -2.0
    assert np.array_equal(prod, expected)


@pytest.mark.parametrize("n", [3, 4])
def test_associativity_exhaustive_blades(n):
    blades = [O.blade(m, n) for m in range(1 << n)]
    for a in blades:
        for b in blades:
            ab = gp(a, b)
            for c in blades:
                assert np.array_equal(gp(ab, c), gp(a, gp(b, c)))


@pytest.mark.parametrize("n", [3])
def test_sign_table_matches_reference(n):
    sign = cl.tables().sign
    for a in range(1 << n):
        for b in range(1 << n):
            assert sign[a, b] == O._blade_sign_reference(a, b)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        geometric_product(Multivector.basis_vector(1, 3), Multivector.basis_vector(1, 4))


def test_dimension_bounds():
    with pytest.raises(ValueError):
        O.tables(2)
    with pytest.raises(ValueError):
        O.tables(9)


# -- conjugation -----------------------------------------------------------------


def test_conjugate_grade_signs():
    a = np.array([1, 1, 0, 1, 0, 0, 0, 1.0])  # 1 + e1 + e12 + e123
    assert np.array_equal(cl.conj_array(a), np.array([1, -1, 0, -1, 0, 0, 0, 1.0]))


@pytest.mark.parametrize("n", [3, 4, 8])
def test_conjugate_sign_pattern_by_grade(n):
    ones = np.ones(1 << n)
    signs = cl.conj_array(ones) if n == 3 else O.conj(ones)
    for mask in range(1 << n):
        k = bin(mask).count("1")
        expected = 1.0 if k % 4 in (0, 3) else -1.0
        assert signs[mask] == expected


@settings(max_examples=60, deadline=None)
@given(integer_coeffs(3))
def test_conjugate_involution(a):
    assert np.array_equal(cl.conj_array(cl.conj_array(a)), a)


@settings(max_examples=60, deadline=None)
@given(integer_coeffs(3), integer_coeffs(3))
def test_conjugate_antiautomorphism(a, b):
    assert np.array_equal(cl.conj_array(cl.gp_array(a, b)),
                          cl.gp_array(cl.conj_array(b), cl.conj_array(a)))


@settings(max_examples=60, deadline=None)
@given(integer_mv(4), integer_mv(4))
def test_scalar_trace_symmetry(a, b):
    assert (a * b).sc() == (b * a).sc()


@settings(max_examples=40, deadline=None)
@given(integer_mv(4), integer_mv(4), integer_mv(4))
def test_associativity_random(a, b, c):
    assert ((a * b) * c).isclose(a * (b * c), 0.0)


def test_conjugate_of_product_example():
    # conj(e1 e2) = conj(e2) conj(e1) = (-e2)(-e1) = -e12
    lhs = cl.conj_array(cl.gp_array(e(1), e(2)))
    assert lhs[0b011] == -1.0


# -- grades and parity ------------------------------------------------------------


def test_grade_projection_slots():
    a = Multivector(3, [1, 2, 0, 3, 0, 0, 0, 0])  # 1 + 2 e1 + 3 e12
    g1 = grade_project(a, 1)
    assert g1.coeffs[1] == 2.0
    assert np.count_nonzero(g1.coeffs) == 1


@settings(max_examples=40, deadline=None)
@given(integer_mv(4))
def test_grade_partition(a):
    total = Multivector(4)
    for k in range(5):
        total = total + grade_project(a, k)
    assert total.isclose(a, 0.0)


def test_grade_out_of_range():
    with pytest.raises(ValueError):
        grade_project(Multivector.basis_vector(1), 4)


def test_npa_example():
    a = Multivector(3, [1, 1, 0, 1, 0, 0, 0, 1])
    assert np.array_equal(a.npa().coeffs, np.array([0, 0, 0, 1, 0, 0, 0, 1.0]))


def test_parity_split_example():
    p03, p12 = cl.parity_array(np.array([1, 1, 0, 1, 0, 0, 0, 1.0]))
    assert np.array_equal(p03, np.array([1, 0, 0, 0, 0, 0, 0, 1.0]))
    assert np.array_equal(p12, np.array([0, 1, 0, 1, 0, 0, 0, 0.0]))


def test_parity_split_zero():
    p03, p12 = cl.parity_array(np.zeros(8))
    assert not np.any(p03) and not np.any(p12)


@settings(max_examples=60, deadline=None)
@given(integer_coeffs(3))
def test_parity_split_against_conjugate(a):
    p03, p12 = cl.parity_array(a)
    assert np.array_equal(p03 + p12, a)
    assert np.array_equal(p03 - p12, cl.conj_array(a))


# -- the array engine against the oracle ---------------------------------------------


@pytest.mark.parametrize("n", [3])
def test_array_engine_matches_sign_oracle(rng, n):
    dim = 1 << n
    a = rng.integers(-5, 6, (4, dim)).astype(float)
    b = rng.integers(-5, 6, (4, dim)).astype(float)
    assert np.array_equal(cl.gp_array(a, b), O.gp(a, b))
    assert np.array_equal(cl.conj_array(a), O.conj(a))
    for row in a:
        parts = parity_split(Multivector(n, row))
        assert all(np.array_equal(p, q.coeffs) for p, q in zip(cl.parity_array(row), parts))
    # a basis product is exact for any finite coefficients: a grid-shaped
    # stack of real numbers, and a strided view of it
    stack = rng.normal(size=(3, 2, 5, dim))
    for c in (a, stack, stack[:, ::-1, 1::2]):
        for mask in range(dim):
            blade = O.blade(mask, n)
            assert np.array_equal(cl.basis_mul_left(mask, c), O.gp(blade, c))
            assert np.array_equal(cl.gp_array(c, blade), O.basis_mul_right(c, mask))


@pytest.mark.parametrize("mask", [-1, -8, 8, 1 << 8])
def test_basis_mul_rejects_masks_outside_the_algebra(mask):
    with pytest.raises(ValueError, match=f"blade mask {mask} out of range for n=3"):
        cl.basis_mul_left(mask, np.ones((2, 8)))


def test_basis_mul_spreads_a_non_finite_coefficient_across_its_row():
    # the signed-permutation matmul multiplies every coefficient of a row,
    # 0 * inf included: the blade's own image keeps its infinity, the rest
    # of the row turns NaN, other rows are untouched
    a = np.zeros((2, 8))
    a[0, 0b011] = np.inf
    with np.errstate(invalid="ignore"):
        out = cl.basis_mul_left(0b001, a)
        a[0, 0b011] = np.nan
        nan = cl.basis_mul_left(0b100, a)
    assert out[0, 0b010] == -np.inf  # e1 e12 = -e2
    assert np.all(np.isnan(np.delete(out[0], 0b010)))
    assert np.array_equal(out[1], np.zeros(8))
    assert np.all(np.isnan(nan[0])) and np.array_equal(nan[1], np.zeros(8))


def test_importing_the_cli_builds_no_shuffle():
    # nothing of the algebra is built at import: neither the tables nor a shuffle
    done = fresh_python("import vekua_lab.cli\n"
                        "from vekua_lab import clifford\n"
                        "print(clifford.tables.cache_info().currsize,"
                        " clifford._shuffle.cache_info().currsize)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 0"


def test_gp_array_rejects_mismatched_blade_axes():
    with pytest.raises(ValueError, match="blade axes differ"):
        cl.gp_array(np.zeros((2, 8)), np.zeros((2, 16)))


@pytest.mark.parametrize("length", [4, 12, 16, 512])
def test_array_functions_reject_unsupported_blade_axes(length):
    message = f"blade axis of length {length} is not the 8 blades of Cl\\(0,3\\)"
    for call in (lambda a: cl.gp_array(a, a), cl.conj_array, cl.parity_array,
                 lambda a: cl.basis_mul_left(1, a)):
        with pytest.raises(ValueError, match=message):
            call(np.zeros(length))


def test_basis_mul_matches_objects(rng):
    for mask in range(1, 8):
        a = O.random_integer_mv(rng)
        blade = Multivector.blade(mask)
        assert np.array_equal(cl.basis_mul_left(mask, a.coeffs[None, :])[0], (blade * a).coeffs)
        assert np.array_equal(cl.gp_array(a.coeffs, blade.coeffs), (a * blade).coeffs)


def test_vector_mul_left(rng):
    # the normal fold of the boundary sums: a stack of vectors times a multivector
    comps = rng.integers(-3, 4, (5, 3)).astype(float)
    a = O.random_integer_mv(rng)
    out = cl.gp_array(cl.vector_to_array(comps), a.coeffs[None, :])
    for k in range(5):
        expected = Multivector.from_vector(comps[k]) * a
        assert np.array_equal(out[k], expected.coeffs)


def test_vector_to_array_layout():
    arr = cl.vector_to_array(np.array([[1.0, 2.0, 3.0]]))[0]
    assert arr[0b001] == 1.0 and arr[0b010] == 2.0 and arr[0b100] == 3.0
    assert arr[0] == 0.0 and arr[0b011] == 0.0


def test_vector_mul_left_rejects_mismatched_components():
    # four components would embed in Cl(0,4), which the engine does not hold
    with pytest.raises(ValueError, match="expected 3 vector components, got 4"):
        cl.vector_to_array(np.zeros(4))
