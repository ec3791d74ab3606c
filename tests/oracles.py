"""Slow, direct oracles: for the Cl(0,3) array engine of `vekua_lab.clifford`
and for the Dirichlet forms of `vekua_lab.pde`.

The oracle algebra is Cl(0,n) for 3 <= n <= 8, held as dense coefficient
arrays of length 2^n indexed by blade bitmask, the engine's layout.  It
never calls the engine: every blade product takes its sign from
`_blade_sign_reference`, an explicit insertion sort of the generator word,
and conjugation signs come from reversion times grade involution,
(-1)^k (-1)^(k(k-1)/2) on grade k, not from the engine's k mod 4 rule.
`Multivector` wraps one such array with its n.

The Dirichlet-form oracles at the end assemble the node matrix of a
`DirichletOperator` as a sparse matrix from its seven bands and sum the
energy form edge by edge, the direct paths that the matrix-free solver and
the DtN forms are checked against.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse

from vekua_lab.fields import interior_slices

MIN_DIM = 3
MAX_DIM = 8


@functools.cache
def _blade_sign_reference(a: int, b: int) -> int:
    """Sign of e_a * e_b by explicit insertion sort of the generator word."""
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
    """Grades, conjugation signs and parity masks of Cl(0,n)."""

    def __init__(self, n: int):
        if not MIN_DIM <= n <= MAX_DIM:
            raise ValueError(f"algebra dimension must be in [{MIN_DIM}, {MAX_DIM}], got {n}")
        self.n = n
        self.dim = 1 << n
        self.grades = np.array([bin(m).count("1") for m in range(self.dim)])
        k = self.grades
        self.conj_signs = (-1.0) ** (k + k * (k - 1) // 2)
        self.part03_mask = self.conj_signs > 0


@functools.cache
def tables(n: int) -> AlgebraTables:
    return AlgebraTables(n)


def _tables_of(a) -> AlgebraTables:
    """Tables of the algebra whose coefficient stacks have a's blade axis."""
    length = a.shape[-1]
    n = length.bit_length() - 1
    if length < 1 or length != 1 << n:
        raise ValueError(f"blade axis of length {length} is not 2^n")
    return tables(n)


def gp(a, b):
    """Geometric product of coefficient stacks, broadcasting leading axes,
    summed blade pair by blade pair with the insertion-sort sign."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"algebra dimension mismatch: {a.shape[-1]} vs {b.shape[-1]} blades")
    dim = _tables_of(a).dim
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for x in np.flatnonzero(a.reshape(-1, dim).any(axis=0)):
        for y in np.flatnonzero(b.reshape(-1, dim).any(axis=0)):
            out[..., x ^ y] += _blade_sign_reference(x, y) * a[..., x] * b[..., y]
    return out


def blade(mask, n=3):
    """Coefficients of the basis blade e_mask of Cl(0,n)."""
    dim = tables(n).dim
    if not 0 <= mask < dim:
        raise ValueError(f"blade mask {mask} out of range for n={n}")
    out = np.zeros(dim)
    out[mask] = 1.0
    return out


def conj(a):
    a = np.asarray(a, dtype=float)
    return _tables_of(a).conj_signs * a


def grade_array(a, k):
    """Grade-k part of a coefficient stack."""
    a = np.asarray(a, dtype=float)
    tab = _tables_of(a)
    if not 0 <= k <= tab.n:
        raise ValueError(f"grade {k} out of range for n={tab.n}")
    return np.where(tab.grades == k, a, 0.0)


def basis_mul_right(a, mask):
    """a * e_mask on a coefficient stack."""
    a = np.asarray(a, dtype=float)
    return gp(a, blade(mask, _tables_of(a).n))


def blade_label(mask: int) -> str:
    if mask == 0:
        return "1"
    return "e" + "".join(str(i + 1) for i in range(MAX_DIM) if mask >> i & 1)


class Multivector:
    """Element of Cl(0,n) held as a dense array of 2^n coefficients."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        dim = tables(n).dim
        self.n = n
        if coeffs is None:
            self.coeffs = np.zeros(dim)
        else:
            c = np.asarray(coeffs, dtype=float)
            if c.shape != (dim,):
                raise ValueError(f"expected {dim} coefficients for n={n}, got shape {c.shape}")
            self.coeffs = c.copy()

    @classmethod
    def blade(cls, mask, n=3):
        return cls(n, blade(mask, n))

    @classmethod
    def basis_vector(cls, i, n=3):
        """e_i with 1-based generator index."""
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range for n={n}")
        return cls.blade(1 << (i - 1), n)

    @classmethod
    def from_vector(cls, components):
        comps = np.asarray(components, dtype=float)
        mv = cls(comps.shape[0])
        for i, c in enumerate(comps):
            mv.coeffs[1 << i] = c
        return mv

    def _check_same(self, other):
        if self.n != other.n:
            raise ValueError(f"algebra dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        self._check_same(other)
        return Multivector(self.n, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_same(other)
        return Multivector(self.n, self.coeffs - other.coeffs)

    def __mul__(self, other):
        return geometric_product(self, other)

    def sc(self):
        """Scalar part as a plain float."""
        return float(self.coeffs[0])

    def npa(self):
        """The part of grade 2 and above."""
        return Multivector(self.n, np.where(tables(self.n).grades <= 1, 0.0, self.coeffs))

    def isclose(self, other, tol=1e-12):
        self._check_same(other)
        return bool(np.all(np.abs(self.coeffs - other.coeffs) <= tol))

    def __repr__(self):
        parts = [f"{c:+g}*{blade_label(mask)}" for mask, c in enumerate(self.coeffs) if c != 0.0]
        return f"Multivector(n={self.n}: {' '.join(parts) if parts else '0'})"


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Clifford product of two multivectors of the same algebra."""
    a._check_same(b)
    return Multivector(a.n, gp(a.coeffs, b.coeffs))


def conjugate(a: Multivector) -> Multivector:
    return Multivector(a.n, conj(a.coeffs))


def grade_project(a: Multivector, k: int) -> Multivector:
    return Multivector(a.n, grade_array(a.coeffs, k))


def parity_split(a: Multivector):
    """Split into the grades-0,3 (mod 4) part and the grades-1,2 (mod 4) part."""
    part03 = tables(a.n).part03_mask
    return Multivector(a.n, np.where(part03, a.coeffs, 0.0)), Multivector(a.n, np.where(part03, 0.0, a.coeffs))


def random_integer_mv(rng, n=3):
    return Multivector(n, rng.integers(-5, 6, 1 << n).astype(float))


# -- Dirichlet forms ------------------------------------------------------------


def node_matrix_blocks(op):
    """(K_II, K_IB) of the operator's node matrix K, assembled as a CSR matrix
    from its seven bands: the slow direct path, kept as the oracle of the
    matrix-free node flux.  Entry (n, n + stride_a) is -w_a on the edge above
    n along axis a, the diagonal sums the weights of the node's edges plus
    its mass weight."""
    res = tuple(int(r) for r in op.grid.resolution)
    strides = (res[1] * res[2], res[2], 1)
    diag = np.zeros(res)
    bands, offsets = [], []
    for a, w in enumerate(op.edge_weights):
        below = np.pad(w, [(1, 0) if b == a else (0, 0) for b in range(3)])
        above = np.pad(w, [(0, 1) if b == a else (0, 0) for b in range(3)])
        diag += below + above
        band = -above.ravel()[:diag.size - strides[a]]
        bands += [band, band]
        offsets += [strides[a], -strides[a]]
    if op.mass_weights is not None:
        diag = diag + op.mass_weights
    K = scipy.sparse.diags([diag.ravel()] + bands, [0] + offsets, format="csr")
    inside = interior_mask(op.grid).ravel()
    rows = K[np.flatnonzero(inside)]
    return rows[:, np.flatnonzero(inside)], rows[:, np.flatnonzero(~inside)]


def interior_mask(g):
    """Mask of the interior nodes."""
    inside = np.zeros(tuple(g.resolution), dtype=bool)
    inside[interior_slices(1)] = True
    return inside


def energy_per_edge(grid, op, U, V):
    """a(U, V) summed the direct way: difference quotients, face sigma (the
    harmonic mean of the edge's two nodal values) and transverse trapezoid
    weights per edge, plus the trapezoid mass term."""
    trap = []
    for r in grid.resolution:
        t = np.ones(int(r))
        t[0] = t[-1] = 0.5
        trap.append(t)
    total = 0.0
    for a in range(3):
        lo = np.moveaxis(op.sigma, a, 0)[:-1]
        hi = np.moveaxis(op.sigma, a, 0)[1:]
        face = np.moveaxis(2.0 * lo * hi / (lo + hi), 0, a)
        dU = np.diff(U, axis=a) / grid.spacing[a]
        dV = np.diff(V, axis=a) / grid.spacing[a]
        w = 1.0
        for b in range(3):
            if b != a:
                w = w * trap[b].reshape([-1 if c == b else 1 for c in range(3)])
        total += float(np.sum(face * dU * dV * w)) * grid.cell_volume
    if op.q is not None:
        w = trap[0][:, None, None] * trap[1][None, :, None] * trap[2][None, None, :]
        total += float(np.sum(op.q * U * V * w)) * grid.cell_volume
    return total
