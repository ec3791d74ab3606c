"""Algebra-level tests: product signs, conjugation, grades, parity splits.

Everything here is exact integer arithmetic; assertions use equality or a
zero tolerance unless stated otherwise.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vekua_lab import clifford as cl
from vekua_lab.clifford import Multivector, conjugate, geometric_product, grade_project, parity_split

from conftest import fresh_python, random_integer_mv


def mv(coeffs, n=3):
    return Multivector(n, coeffs)


def e(i, n=3):
    return Multivector.basis_vector(i, n)


def integer_mv(n):
    dim = 1 << n
    return st.lists(
        st.integers(min_value=-5, max_value=5), min_size=dim, max_size=dim
    ).map(lambda c: Multivector(n, np.array(c, dtype=float)))


# -- generator relations ---------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_generators_square_to_minus_one(n):
    for i in range(1, n + 1):
        sq = e(i, n) * e(i, n)
        assert sq.coeffs[0] == -1.0
        assert np.count_nonzero(sq.coeffs) == 1


@pytest.mark.parametrize("n", [3, 4, 6])
def test_anticommutation(n):
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            anti = e(i, n) * e(j, n) + e(j, n) * e(i, n)
            if i == j:
                assert anti.coeffs[0] == -2.0
                assert np.count_nonzero(anti.coeffs) == 1
            else:
                assert not np.any(anti.coeffs)


def test_spec_product_examples():
    e1, e2 = e(1), e(2)
    assert (e1 * e2).coeffs[0b011] == 1.0
    assert (e2 * e1).coeffs[0b011] == -1.0
    prod = (e1 + e2) * (e1 - e2)
    expected = np.zeros(8)
    expected[0b011] = -2.0
    assert np.array_equal(prod.coeffs, expected)


@pytest.mark.parametrize("n", [3, 4])
def test_associativity_exhaustive_blades(n):
    dim = 1 << n
    blades = [Multivector.blade(m, 1.0, n) for m in range(dim)]
    for a in blades:
        for b in blades:
            ab = a * b
            for c in blades:
                assert (ab * c).isclose(a * (b * c), 0.0)


@pytest.mark.parametrize("n", [3, 4])
def test_sign_table_matches_reference(n):
    tab = cl.tables(n)
    for a in range(tab.dim):
        for b in range(tab.dim):
            assert tab.sign[a, b] == cl._blade_sign_reference(a, b)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        geometric_product(e(1, 3), e(1, 4))


def test_dimension_bounds():
    with pytest.raises(ValueError):
        cl.tables(2)
    with pytest.raises(ValueError):
        cl.tables(9)


# -- conjugation -----------------------------------------------------------------


def test_conjugate_grade_signs():
    a = mv([1, 1, 0, 1, 0, 0, 0, 1])  # 1 + e1 + e12 + e123
    c = conjugate(a)
    assert np.array_equal(c.coeffs, np.array([1, -1, 0, -1, 0, 0, 0, 1.0]))


@pytest.mark.parametrize("n", [3, 4, 8])
def test_conjugate_sign_pattern_by_grade(n):
    tab = cl.tables(n)
    for mask in range(tab.dim):
        k = tab.grades[mask]
        expected = 1.0 if k % 4 in (0, 3) else -1.0
        assert tab.conj_signs[mask] == expected


@settings(max_examples=60, deadline=None)
@given(integer_mv(3))
def test_conjugate_involution(a):
    assert conjugate(conjugate(a)).isclose(a, 0.0)


@settings(max_examples=60, deadline=None)
@given(integer_mv(3), integer_mv(3))
def test_conjugate_antiautomorphism(a, b):
    assert conjugate(a * b).isclose(conjugate(b) * conjugate(a), 0.0)


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
    lhs = conjugate(e(1) * e(2))
    assert lhs.coeffs[0b011] == -1.0


# -- grades and parity ------------------------------------------------------------


def test_grade_projection_slots():
    a = mv([1, 2, 0, 3, 0, 0, 0, 0])  # 1 + 2 e1 + 3 e12
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
        grade_project(e(1), 4)


def test_npa_example():
    a = mv([1, 1, 0, 1, 0, 0, 0, 1])
    npa = a.npa()
    assert np.array_equal(npa.coeffs, np.array([0, 0, 0, 1, 0, 0, 0, 1.0]))


def test_parity_split_example():
    a = mv([1, 1, 0, 1, 0, 0, 0, 1])
    p03, p12 = parity_split(a)
    assert np.array_equal(p03.coeffs, np.array([1, 0, 0, 0, 0, 0, 0, 1.0]))
    assert np.array_equal(p12.coeffs, np.array([0, 1, 0, 1, 0, 0, 0, 0.0]))


def test_parity_split_zero():
    p03, p12 = parity_split(Multivector(3))
    assert not np.any(p03.coeffs) and not np.any(p12.coeffs)


@settings(max_examples=60, deadline=None)
@given(integer_mv(3))
def test_parity_split_against_conjugate(a):
    p03, p12 = parity_split(a)
    assert (p03 + p12).isclose(a, 0.0)
    assert (p03 - p12).isclose(conjugate(a), 0.0)


# -- array-level algebra -----------------------------------------------------------


def _reference_product(a, b):
    """Coefficient stacks multiplied blade by blade with the insertion-sort sign oracle."""
    dim = a.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for x in range(dim):
        for y in range(dim):
            out[..., x ^ y] += cl._blade_sign_reference(x, y) * a[..., x] * b[..., y]
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
def test_array_engine_matches_sign_oracle(rng, n):
    dim = 1 << n
    a = rng.integers(-5, 6, (4, dim)).astype(float)
    b = rng.integers(-5, 6, (4, dim)).astype(float)
    assert np.array_equal(cl.gp_array(a, b), _reference_product(a, b))
    # a basis product is exact for any finite coefficients: a grid-shaped
    # stack of real numbers, and a strided view of it
    stack = rng.normal(size=(3, 2, 5, dim))
    for c in (a, stack, stack[:, ::-1, 1::2]):
        for mask in range(dim):
            blade = np.zeros(dim)
            blade[mask] = 1.0
            assert np.array_equal(cl.basis_mul_left(mask, c), _reference_product(blade, c))
            assert np.array_equal(cl.basis_mul_right(c, mask), _reference_product(c, blade))


@pytest.mark.parametrize("mask", [-1, -8, 8, 1 << 8])
def test_basis_mul_rejects_masks_outside_the_algebra(mask):
    a = np.ones((2, 8))
    with pytest.raises(ValueError, match=f"blade mask {mask} out of range for n=3"):
        cl.basis_mul_left(mask, a)
    with pytest.raises(ValueError, match=f"blade mask {mask} out of range for n=3"):
        cl.basis_mul_right(a, mask)


def test_basis_mul_spreads_a_non_finite_coefficient_across_its_row():
    # the signed-permutation matmul multiplies every coefficient of a row,
    # 0 * inf included: the blade's own image keeps its infinity, the rest
    # of the row turns NaN, other rows are untouched
    a = np.zeros((2, 8))
    a[0, 0b011] = np.inf
    with np.errstate(invalid="ignore"):
        out = cl.basis_mul_left(0b001, a)
        a[0, 0b011] = np.nan
        right = cl.basis_mul_right(a, 0b100)
    assert out[0, 0b010] == -np.inf  # e1 e12 = -e2
    assert np.all(np.isnan(np.delete(out[0], 0b010)))
    assert np.array_equal(out[1], np.zeros(8))
    assert np.all(np.isnan(right[0])) and np.array_equal(right[1], np.zeros(8))


def test_algebra_tables_build_no_dense_shuffle():
    # basis products build their signed permutations per mask on first use;
    # the tables of Cl(0,8) alone stay small (a dense 256^3 float table would
    # be 134 MB)
    tracemalloc.start()
    try:
        cl.AlgebraTables(8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_importing_the_cli_builds_no_shuffle():
    done = fresh_python("import vekua_lab.cli\n"
                        "from vekua_lab import clifford\n"
                        "print(clifford._shuffle.cache_info().currsize)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"


def test_gp_array_rejects_mismatched_blade_axes():
    with pytest.raises(ValueError, match="blade axes differ"):
        cl.gp_array(np.zeros((2, 8)), np.zeros((2, 16)))


@pytest.mark.parametrize("length", [4, 12, 512])
def test_array_functions_reject_unsupported_blade_axes(length):
    with pytest.raises(ValueError, match="is not 2\\^n"):
        cl.gp_array(np.zeros(length), np.zeros(length))
    with pytest.raises(ValueError, match="is not 2\\^n"):
        cl.conj_array(np.zeros(length))


def test_vector_mul_left_rejects_mismatched_components():
    # four components embed in Cl(0,4), whose blade axis differs from Cl(0,3)'s
    with pytest.raises(ValueError, match="blade axes differ"):
        cl.gp_array(cl.vector_to_array(np.zeros(4)), np.zeros(8))


def test_basis_mul_matches_objects(rng):
    for mask in range(1, 8):
        a = random_integer_mv(rng)
        left = cl.basis_mul_left(mask, a.coeffs[None, :])[0]
        right = cl.basis_mul_right(a.coeffs[None, :], mask)[0]
        blade = Multivector.blade(mask, 1.0, 3)
        assert np.array_equal(left, (blade * a).coeffs)
        assert np.array_equal(right, (a * blade).coeffs)


def test_vector_mul_left(rng):
    # the normal fold of the boundary sums: a stack of vectors times a multivector
    comps = rng.integers(-3, 4, (5, 3)).astype(float)
    a = random_integer_mv(rng)
    out = cl.gp_array(cl.vector_to_array(comps), a.coeffs[None, :])
    for k in range(5):
        expected = Multivector.from_vector(comps[k]) * a
        assert np.array_equal(out[k], expected.coeffs)


def test_vector_to_array_layout():
    arr = cl.vector_to_array(np.array([[1.0, 2.0, 3.0]]))[0]
    assert arr[0b001] == 1.0 and arr[0b010] == 2.0 and arr[0b100] == 3.0
    assert arr[0] == 0.0 and arr[0b011] == 0.0
