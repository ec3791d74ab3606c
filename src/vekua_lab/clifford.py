"""Dense arithmetic for the real Clifford algebra Cl(0,n).

Generators e_1..e_n satisfy e_i e_j + e_j e_i = -2 delta_ij.  An element is
stored as 2^n real coefficients indexed by blade bitmask: bit k set means
generator e_{k+1} is present, so mask 0 is the scalar unit and mask
0b101 is e_1 e_3.  The bitmask representation keeps generators inside a
blade in ascending order by construction.

Products are exact in floating point for integer coefficients: the blade
product is a signed coefficient shuffle, no rounding is introduced beyond
the multiplications themselves.  On coefficient stacks every product
runs through one engine: multiplying by a basis blade e_mask permutes
the blade axis and flips signs (Dorst, Fontijne & Mann, Geometric
Algebra for Computer Science, 2007), so it is a matmul with a signed
permutation matrix, built on first use for each (n, mask) and side.  A
matmul row sums one +-1 term and 2^n - 1 exact zeros, so the product is
exact for finite coefficients; a non-finite coefficient spreads NaN
across its row (0 * inf).
"""

from __future__ import annotations

import functools
import operator

import numpy as np

MIN_DIM = 3
MAX_DIM = 8


def _popcount(mask):
    return bin(mask).count("1")


def _reorder_swaps(a: int, b: int) -> int:
    """Number of generator transpositions needed to merge blades a and b.

    Counts pairs (i in a, j in b) with j < i, i.e. how many times a
    generator of b must hop left past a larger generator of a when the
    concatenated word is sorted.
    """
    swaps = 0
    a >>= 1
    while a:
        swaps += _popcount(a & b)
        a >>= 1
    return swaps


def _blade_sign(a: int, b: int) -> int:
    """Sign of e_a * e_b: reorder transpositions plus e_i^2 = -1 per repeat."""
    sign = -1 if _reorder_swaps(a, b) % 2 else 1
    if _popcount(a & b) % 2:
        sign = -sign
    return sign


def _blade_sign_reference(a: int, b: int) -> int:
    """Independent sign oracle: explicit insertion sort of the generator word."""
    word = [i for i in range(MAX_DIM) if a >> i & 1] + [i for i in range(MAX_DIM) if b >> i & 1]
    sign = 1
    # bubble sort, one transposition per swap
    for i in range(len(word)):
        for j in range(len(word) - 1 - i):
            if word[j] > word[j + 1]:
                word[j], word[j + 1] = word[j + 1], word[j]
                sign = -sign
    # annihilate adjacent equal generators, e_i e_i = -1
    out = []
    for g in word:
        if out and out[-1] == g:
            out.pop()
            sign = -sign
        else:
            out.append(g)
    return sign


class AlgebraTables:
    """Precomputed product signs, grades and conjugation signs for one n."""

    def __init__(self, n: int):
        if not MIN_DIM <= n <= MAX_DIM:
            raise ValueError(f"algebra dimension must be in [{MIN_DIM}, {MAX_DIM}], got {n}")
        self.n = n
        self.dim = 1 << n
        masks = np.arange(self.dim)
        self.grades = np.array([_popcount(m) for m in masks], dtype=np.int64)
        # conjugation flips grades 1,2 (mod 4) and fixes 0,3 (mod 4)
        self.conj_signs = np.where(np.isin(self.grades % 4, (0, 3)), 1.0, -1.0)
        self.part03_mask = np.isin(self.grades % 4, (0, 3))
        self.part12_mask = ~self.part03_mask
        sign = np.empty((self.dim, self.dim), dtype=np.int8)
        for a in range(self.dim):
            for b in range(self.dim):
                sign[a, b] = _blade_sign(a, b)
        self.sign = sign
        if n <= 4:
            self._cross_validate()

    def _cross_validate(self):
        for a in range(self.dim):
            for b in range(self.dim):
                if self.sign[a, b] != _blade_sign_reference(a, b):
                    raise AssertionError(
                        f"blade sign mismatch at ({a:#b}, {b:#b}) for n={self.n}"
                    )


@functools.lru_cache(maxsize=None)
def tables(n: int) -> AlgebraTables:
    return AlgebraTables(n)


class Multivector:
    """Element of Cl(0,n) held as a dense array of 2^n coefficients."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        tab = tables(n)
        self.n = n
        if coeffs is None:
            self.coeffs = np.zeros(tab.dim)
        else:
            c = np.asarray(coeffs, dtype=float)
            if c.shape != (tab.dim,):
                raise ValueError(f"expected {tab.dim} coefficients for n={n}, got shape {c.shape}")
            self.coeffs = c.copy()

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, value, n=3):
        mv = cls(n)
        mv.coeffs[0] = value
        return mv

    @classmethod
    def blade(cls, mask, value=1.0, n=3):
        mv = cls(n)
        if not 0 <= mask < (1 << n):
            raise ValueError(f"blade mask {mask} out of range for n={n}")
        mv.coeffs[mask] = value
        return mv

    @classmethod
    def basis_vector(cls, i, n=3):
        """e_i with 1-based generator index."""
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range for n={n}")
        return cls.blade(1 << (i - 1), 1.0, n)

    @classmethod
    def from_vector(cls, components, n=None):
        comps = np.asarray(components, dtype=float)
        if n is None:
            n = comps.shape[0]
        mv = cls(n)
        for i in range(comps.shape[0]):
            mv.coeffs[1 << i] = comps[i]
        return mv

    # -- arithmetic --------------------------------------------------------

    def _check_same(self, other):
        if self.n != other.n:
            raise ValueError(f"algebra dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, Multivector):
            self._check_same(other)
            return Multivector(self.n, self.coeffs + other.coeffs)
        if isinstance(other, (int, float)):
            out = Multivector(self.n, self.coeffs)
            out.coeffs[0] += other
            return out
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Multivector):
            self._check_same(other)
            return Multivector(self.n, self.coeffs - other.coeffs)
        if isinstance(other, (int, float)):
            out = Multivector(self.n, self.coeffs)
            out.coeffs[0] -= other
            return out
        return NotImplemented

    def __neg__(self):
        return Multivector(self.n, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        if isinstance(other, (int, float)):
            return Multivector(self.n, self.coeffs * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.n, self.coeffs * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.n, self.coeffs / other)
        return NotImplemented

    # -- projections -------------------------------------------------------

    def conjugate(self):
        return conjugate(self)

    def grade(self, k):
        return grade_project(self, k)

    def sc(self):
        """Scalar part as a plain float."""
        return float(self.coeffs[0])

    def vec(self):
        """Grade-1 coefficients as a length-n array."""
        return np.array([self.coeffs[1 << i] for i in range(self.n)])

    def npa(self):
        out = Multivector(self.n, self.coeffs)
        tab = tables(self.n)
        out.coeffs[tab.grades <= 1] = 0.0
        return out

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Multivector)
            and self.n == other.n
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def isclose(self, other, tol=1e-12):
        self._check_same(other)
        return bool(np.all(np.abs(self.coeffs - other.coeffs) <= tol))

    def __repr__(self):
        tab = tables(self.n)
        parts = []
        for mask in range(tab.dim):
            c = self.coeffs[mask]
            if c != 0.0:
                parts.append(f"{c:+g}*{blade_label(mask)}")
        return f"Multivector(n={self.n}: {' '.join(parts) if parts else '0'})"


def blade_label(mask: int) -> str:
    if mask == 0:
        return "1"
    return "e" + "".join(str(i + 1) for i in range(MAX_DIM) if mask >> i & 1)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Clifford product of two multivectors of the same algebra."""
    if a.n != b.n:
        raise ValueError(f"algebra dimension mismatch: {a.n} vs {b.n}")
    return Multivector(a.n, gp_array(a.coeffs, b.coeffs))


def conjugate(a: Multivector) -> Multivector:
    """Clifford conjugation: grade k picks up (+,-,-,+) by k mod 4."""
    return Multivector(a.n, conj_array(a.coeffs))


def grade_project(a: Multivector, k: int) -> Multivector:
    return Multivector(a.n, grade_array(a.coeffs, k))


def parity_split(a: Multivector):
    """Split into the grades-0,3 (mod 4) part and the grades-1,2 (mod 4) part."""
    return tuple(Multivector(a.n, part) for part in parity_array(a.coeffs))


# -- array-level algebra ----------------------------------------------------
#
# Stacked coefficient arrays of shape (..., 2^n) let grid fields and
# quadrature batches reuse the same sign tables without per-node Python
# objects.  The algebra dimension n is read from the length of the blade
# (last) axis.  XOR with a fixed mask permutes the blade axis, so a basis
# multiplication is a matmul with a signed permutation (`_shuffle`).


def _blade_tables(length) -> AlgebraTables:
    """Tables of the algebra whose coefficient stacks have `length` blades."""
    n = int(length).bit_length() - 1
    if length < 1 or length != 1 << n or not MIN_DIM <= n <= MAX_DIM:
        raise ValueError(f"blade axis of length {length} is not 2^n for n in "
                         f"[{MIN_DIM}, {MAX_DIM}]")
    return tables(n)


def gp_array(a, b):
    """Geometric product of coefficient stacks, broadcasting leading axes:
    sum over the blades of a of a_mask (e_mask b), each term a
    `basis_mul_left` shuffle, so exact for integer coefficients."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"blade axes differ: {a.shape[-1]} vs {b.shape[-1]}")
    tab = _blade_tables(a.shape[-1])
    out = np.zeros(np.broadcast(a, b).shape)
    # blades of a that are zero throughout contribute nothing
    for mask in np.flatnonzero(a.reshape(-1, tab.dim).any(axis=0)):
        out += a[..., mask, None] * basis_mul_left(mask, b)
    return out


def conj_array(a):
    a = np.asarray(a, dtype=float)
    return _blade_tables(a.shape[-1]).conj_signs * a


def grade_array(a, k):
    """Grade-k part of a coefficient stack."""
    a = np.asarray(a, dtype=float)
    tab = _blade_tables(a.shape[-1])
    if not 0 <= k <= tab.n:
        raise ValueError(f"grade {k} out of range for n={tab.n}")
    return np.where(tab.grades == k, a, 0.0)


def parity_array(a):
    """The grades-0,3 (mod 4) and grades-1,2 (mod 4) parts of a coefficient stack."""
    a = np.asarray(a, dtype=float)
    tab = _blade_tables(a.shape[-1])
    return np.where(tab.part03_mask, a, 0.0), np.where(tab.part12_mask, a, 0.0)


@functools.lru_cache(maxsize=None)
def _shuffle(n, mask, left):
    """Read-only signed permutation S with a @ S = e_mask a (left) or a e_mask,
    for coefficient rows a of Cl(0,n): row j holds the sign of e_mask e_j
    (or e_j e_mask) at column mask ^ j."""
    tab = tables(n)
    rows = np.arange(tab.dim)
    shuffle = np.zeros((tab.dim, tab.dim))
    shuffle[rows, rows ^ mask] = tab.sign[mask] if left else tab.sign[:, mask]
    shuffle.setflags(write=False)
    return shuffle


def _basis_mul(mask, a, left):
    tab = _blade_tables(a.shape[-1])
    mask = operator.index(mask)
    if not 0 <= mask < tab.dim:
        raise ValueError(f"blade mask {mask} out of range for n={tab.n}")
    return (a.reshape(-1, tab.dim) @ _shuffle(tab.n, mask, left)).reshape(a.shape)


def basis_mul_left(mask, a):
    """e_mask * a on a coefficient stack: a matmul with a signed permutation,
    exact for finite coefficients (a non-finite one makes its row NaN)."""
    return _basis_mul(mask, a, True)


def basis_mul_right(a, mask):
    """a * e_mask on a coefficient stack, as `basis_mul_left` with the right table."""
    return _basis_mul(mask, a, False)


def vector_to_array(components):
    """Embed vector components (..., n) as grade-1 coefficient stacks."""
    components = np.asarray(components, dtype=float)
    n = components.shape[-1]
    out = np.zeros(components.shape[:-1] + (tables(n).dim,))
    for i in range(n):
        out[..., 1 << i] = components[..., i]
    return out
