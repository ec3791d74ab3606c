"""Slow, direct oracles: for the Cl(0,3) array engine of `vekua_lab.clifford`
and for the Dirichlet forms of `vekua_lab.pde`.

The oracle algebra is Cl(0,n) for 3 <= n <= 8, held as dense coefficient
arrays of length 2^n indexed by blade bitmask, the engine's layout.  It
never calls the engine: every blade product takes its sign from
`_blade_sign_reference`, an explicit insertion sort of the generator word,
and conjugation signs come from reversion times grade involution,
(-1)^k (-1)^(k(k-1)/2) on grade k, not from the engine's k mod 4 rule.
`Multivector` wraps one such array with its n.

The Dirichlet-form oracles assemble the node matrix of a
`DirichletOperator` as a sparse matrix from its seven bands, build its node
flux over the whole grid and sum the energy form edge by edge, the direct
paths that the matrix-free solver and the DtN forms are checked against;
the preconditioner assembled as a dense matrix and conjugate gradients
with no buffer reused are the oracles of the solver's copy-free workspace,
and the Liouville-sine preconditioner it replaced is the baseline of its
iteration counts.  The per-value traces.csv writer is the oracle of the
export's coordinate text.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse

from vekua_lab.fields import face_nodes, interior_slices
from vekua_lab.pde import CG_MAXITER, CG_RTOL

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


def node_flux(op, U):
    """K U of the operator's node matrix K for a nodal array U, built over
    the whole grid: per axis, the edge flux w dU is subtracted at the node
    below each edge and added at the node above, plus m U.  Summing by
    parts, a(U, V) = |cell| V.K U for every V.  The definition whose rows
    `DirichletOperator._rows` reproduces bit for bit in any region."""
    KU = np.zeros_like(U) if op.mass_weights is None else op.mass_weights * U
    for a, w in enumerate(op.edge_weights):
        flux = np.diff(U, axis=a)
        flux *= w
        KU[(slice(None),) * a + (slice(None, -1),)] -= flux
        KU[(slice(None),) * a + (slice(1, None),)] += flux
    return KU


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


def line_eigenbasis_preconditioner(op):
    """The operator's preconditioner F^-1 (Vbar + L_0 + L_1 + L_2)^-1 F^-1 as a
    dense matrix over the interior nodes, assembled from its definition and
    inverted with `np.linalg.solve`: f = sqrt(sigma) on the whole grid, node
    by node the edge conductances g = w / (f_i f_j) of the interior rows and
    the potential V_i = q_i / f_i^2 + sum_j g (f_j / f_i - 1), their
    transverse means, the tridiagonal line operators and their Kronecker
    sum.  No eigenvalue floor: for an operator whose Kronecker sum is not
    positive definite this is not the package's preconditioner."""
    res = tuple(int(r) for r in op.grid.resolution)
    n = tuple(r - 2 for r in res)
    f = np.sqrt(np.broadcast_to(op.sigma, res))
    q = np.zeros(res) if op.q is None else op.q
    V = np.zeros(n)
    lines = []
    for a in range(3):
        g = np.zeros((n[a] + 1,) + tuple(n[b] for b in range(3) if b != a))
        for node in np.ndindex(*n):
            i = tuple(k + 1 for k in node)
            for side in (-1, 1):
                j = tuple(k + side * (b == a) for b, k in enumerate(i))
                lower = min(i, j)
                conductance = float(op.edge_weights[a][lower]) / (f[i] * f[j])
                V[node] += conductance * (f[j] / f[i] - 1.0)
                g[(lower[a],) + tuple(node[b] for b in range(3) if b != a)] = conductance
        lines.append(g.reshape(n[a] + 1, -1).mean(axis=1))
    for node in np.ndindex(*n):
        i = tuple(k + 1 for k in node)
        V[node] += q[i] / f[i] ** 2
    vbar = V.mean()
    total = vbar * np.eye(int(np.prod(n)))
    for a, g in enumerate(lines):
        part = np.moveaxis(V, a, 0).reshape(n[a], -1).mean(axis=1) - vbar
        L = (np.diag(g[:-1] + g[1:] + part) - np.diag(g[1:-1], 1) - np.diag(g[1:-1], -1))
        eyes = [np.eye(n[b]) for b in range(3)]
        eyes[a] = L
        total += np.kron(np.kron(eyes[0], eyes[1]), eyes[2])
    inv_f = np.diag(1.0 / f[interior_slices(1)].ravel())
    return inv_f @ np.linalg.solve(total, inv_f)


def liouville_sine_preconditioner(op, r):
    """The Liouville-sine preconditioner F^-1 (-Delta_h + qbar)^-1 F^-1 r that
    the line eigenbasis replaced: one global mean, qbar, of Delta_h f / f + q
    clipped at 0, inverted in the closed-form type-I sine basis."""
    h = op.grid.spacing
    inner = interior_slices(1)
    f = np.sqrt(op.sigma)
    lap_f = sum(
        np.diff(f, 2, axis=a)[tuple(slice(None) if b == a else slice(1, -1)
                                    for b in range(3))] / h[a] ** 2
        for a in range(3)
    )
    qbar = float(np.mean(lap_f / f[inner]))
    if op.q is not None:
        qbar += float(np.mean(op.q[inner]))
    sines, lams = [], []
    for a, n in enumerate(op.shape):
        k = np.arange(1, n + 1)
        sines.append(np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1)))
        lam = (2.0 - 2.0 * np.cos(np.pi * k / (n + 1))) / h[a] ** 2
        lams.append(lam.reshape([-1 if b == a else 1 for b in range(3)]))
    eig = max(qbar, 0.0) + sum(lams)
    inv_f = 1.0 / f[inner].ravel()
    x = (r * inv_f).reshape(op.shape)
    for basis in sines:
        x = np.tensordot(x, basis, axes=(0, 0))
    x *= 1.0 / eig
    for basis in sines:
        x = np.tensordot(x, basis, axes=(0, 0))
    return x.ravel() * inv_f


def cg_out_of_place(apply, b, precondition):
    """`vekua_lab.pde.cg` with every vector update a new array: the same
    iteration, stops and breakdown tests, with no buffer reused."""
    dot = lambda u, v: float(np.einsum("i,i->", u, v))
    x = np.zeros_like(b)
    r = b
    target = CG_RTOL * np.sqrt(dot(b, b))
    p = rho_prev = None
    for iteration in range(CG_MAXITER):
        if np.sqrt(dot(r, r)) < target:
            return x, iteration
        z = precondition(r)
        rho = dot(r, z)
        if not 0.0 < rho < np.inf:
            return x, iteration
        p = z if p is None else z + (rho / rho_prev) * p
        Ap = apply(p)
        curvature = dot(p, Ap)
        if not 0.0 < curvature < np.inf:
            return x, iteration
        alpha = rho / curvature
        x = x + alpha * p
        r = r - alpha * Ap
        rho_prev = rho
    return x, CG_MAXITER


# -- exports ---------------------------------------------------------------------


def trace_rows_per_value(grid, traces):
    """traces.csv data lines with every value formatted where it is written:
    one %-format per face of its (nodes, 5 + traces) table, coordinates taken
    from `face_nodes`."""
    row = "%d,%d,%.10g,%.10g,%.10g," + ",".join(["%.10e"] * len(traces)) + "\n"
    start = 0
    for axis, high, slab, X in face_nodes(grid):
        pos = X.reshape(-1, 3)
        m = len(pos)
        table = np.column_stack([np.arange(start, start + m), np.full(m, 2 * axis + high), pos]
                                + [trace[slab].ravel() for trace in traces])
        yield (row * m) % tuple(table.ravel().tolist())
        start += m
