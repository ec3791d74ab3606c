"""Dirichlet solvers and weak Dirichlet-to-Neumann pairings on box grids.

Both equations are discretized with conservative second-order finite
differences on the grid nodes: the conductivity operator -div(sigma grad u)
uses harmonic face averages of sigma, the Schrodinger operator -Delta + q
collocates the potential.  Each operator is defined once, by its bilinear
energy form with edge-wise trapezoid transverse weights (DirichletOperator):
the solver's interior system and trace coupling are the interior rows of
the form's node matrix, and the DtN energy sums the same weights.  The
interior equations are thus the Galerkin equations of the form by
construction, and weak DtN values are independent of how the second trace
is extended into the volume, up to solver tolerance.

Every Dirichlet solve is one preconditioned conjugate-gradient engine.
The preconditioner follows the Liouville substitution w = f u with
f = sqrt(sigma), which carries -div(sigma grad u) + q u to
f (-Delta + q + Delta f / f) f: it applies F^-1 (-Delta_h + qbar)^-1 F^-1
with qbar the interior mean of Delta_h f / f + q, clipped at 0, and inverts
the constant-coefficient box operator in its type-I sine eigenbasis
(Buzbee, Golub & Nielson 1970).  Constant-coefficient operators converge
in one iteration, smooth variable coefficients in a handful.  There is no
direct-solver fallback: a solve that misses the residual target raises
SolverError.

Flux data never comes from one-sided normal differences - every
Dirichlet-to-Neumann evaluation is a volume energy.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import BoxGrid, face_slabs, interior_slices, scalar_gradient, trapezoid_product
from .vekua import ConductivityProfile

SOLVER_RTOL = 1e-10


class SolverError(RuntimeError):
    pass


def _harmonic_mean(a, b):
    return 2.0 * a * b / (a + b)


def _sine_basis(n, h):
    """Orthonormal type-I sine basis of the n-node Dirichlet second difference
    (a symmetric involution) and the eigenvalues of -d^2/dx^2 in it."""
    k = np.arange(1, n + 1)
    basis = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
    return basis, (2.0 - 2.0 * np.cos(np.pi * k / (n + 1))) / h**2


def _face_coefficients(sigma, axis):
    """Harmonic face averages of a nodal coefficient along one axis."""
    lo = np.moveaxis(sigma, axis, 0)[:-1]
    hi = np.moveaxis(sigma, axis, 0)[1:]
    return np.moveaxis(_harmonic_mean(lo, hi), 0, axis)


class DirichletOperator:
    """-div(sigma grad u) + q u on a box grid, defined by its energy form

        a(U, V) = |cell| (sum_a sum_edges w_a dU dV + sum_nodes m U V),

    dU the difference of U along an edge.  The edge weights `edge_weights[a]`
    are the face sigma / h_a^2 times the unit transverse trapezoid weights,
    the mass weights `mass_weights` q times the unit nodal trapezoid weights
    (None without q).  The interior rows of the form's node matrix K, with
    a(U, V) = |cell| V.K U, split into `matrix` (interior columns) and the
    boundary coupling behind `trace_rhs`; the interior equations are thus
    exactly the Galerkin equations of the form.
    """

    def __init__(self, grid: BoxGrid, sigma=None, q=None):
        res = tuple(int(r) for r in grid.resolution)
        self.grid = grid
        self.sigma = np.ones(res) if sigma is None else np.asarray(sigma, dtype=float)
        if np.any(self.sigma <= 0.0):
            raise ValueError("coefficient must be strictly positive")
        self.q = None if q is None else np.asarray(q, dtype=float)
        self.faces = [_face_coefficients(self.sigma, a) for a in range(3)]
        h = grid.spacing
        self.edge_weights = [
            self.faces[a] / h[a] ** 2
            * np.expand_dims(trapezoid_product([r for b, r in enumerate(res) if b != a]), a)
            for a in range(3)
        ]
        self.mass_weights = None if self.q is None else self.q * trapezoid_product(res)
        self._assemble()

    def _assemble(self):
        """Node matrix K from its seven bands, split into interior rows."""
        res = tuple(int(r) for r in self.grid.resolution)
        strides = (res[1] * res[2], res[2], 1)
        diag = np.zeros(res)
        bands, offsets = [], []
        for a, w in enumerate(self.edge_weights):
            # node-wise weights of the edges below and above along a
            below = np.pad(w, [(1, 0) if b == a else (0, 0) for b in range(3)])
            above = np.pad(w, [(0, 1) if b == a else (0, 0) for b in range(3)])
            diag += below + above
            # entry (n, n + stride) is -w on the edge above n (0 on the top face)
            band = -above.ravel()[:diag.size - strides[a]]
            bands += [band, band]
            offsets += [strides[a], -strides[a]]
        if self.mass_weights is not None:
            diag = diag + self.mass_weights
        K = sp.diags([diag.ravel()] + bands, [0] + offsets, format="csr")
        inside = np.zeros(res, dtype=bool)
        inside[interior_slices(1)] = True
        interior = np.flatnonzero(inside)
        self._boundary = np.flatnonzero(~inside)
        rows = K[interior]
        self.shape = tuple(r - 2 for r in res)
        self.matrix = rows[:, interior]
        self._coupling = -rows[:, self._boundary]
        self._build_preconditioner()

    def _build_preconditioner(self):
        """Liouville-sine preconditioner F^-1 (-Delta_h + qbar)^-1 F^-1, F = diag(f).

        f = sqrt(sigma); qbar is the interior mean of Delta_h f / f plus that
        of q, clipped at 0 so the preconditioner stays positive definite.
        Dense per-axis sine matrices beat an FFT-based DST at these sizes.
        """
        h = self.grid.spacing
        inner = interior_slices(1)
        f = np.sqrt(self.sigma)
        lap_f = sum(
            np.diff(f, 2, axis=a)[tuple(slice(None) if b == a else slice(1, -1)
                                        for b in range(3))] / h[a] ** 2
            for a in range(3)
        )
        qbar = float(np.mean(lap_f / f[inner]))
        if self.q is not None:
            qbar += float(np.mean(self.q[inner]))
        bases = [_sine_basis(n, h[a]) for a, n in enumerate(self.shape)]
        self._sines = [basis for basis, _ in bases]
        eig = max(qbar, 0.0) + sum(
            lam.reshape([-1 if b == a else 1 for b in range(3)])
            for a, (_, lam) in enumerate(bases)
        )
        self._inv_eig = 1.0 / eig
        self._inv_f = 1.0 / f[inner].ravel()

    def _precondition(self, r):
        x = (r * self._inv_f).reshape(self.shape)
        # each contraction over the leading axis moves it last: three
        # restore the axis order
        for basis in self._sines:
            x = np.tensordot(x, basis, axes=(0, 0))
        x *= self._inv_eig
        for basis in self._sines:
            x = np.tensordot(x, basis, axes=(0, 0))
        return x.ravel() * self._inv_f

    def trace_rhs(self, trace):
        """Right-hand side induced by Dirichlet data on the boundary nodes."""
        return self._coupling @ np.ravel(trace)[self._boundary]

    def solve(self, trace=None, rhs=None):
        """Solve with Dirichlet data `trace`; optional volume right-hand side.

        Returns the full nodal array (boundary nodes carry the trace).
        Conjugate gradients with the Liouville-sine preconditioner, verified
        to a relative residual of 1e-10; raises SolverError otherwise.
        """
        res = tuple(self.grid.resolution)
        trace_arr = np.zeros(res) if trace is None else np.asarray(trace, dtype=float)
        b = self.trace_rhs(trace_arr)
        if rhs is not None:
            b = b + np.asarray(rhs, dtype=float)[interior_slices(1)].ravel()
        out = trace_arr.copy()
        if not np.any(b):
            out[interior_slices(1)] = 0.0
            return out
        iterations = 0

        def count(_):
            nonlocal iterations
            iterations += 1

        M = spla.LinearOperator(self.matrix.shape, matvec=self._precondition)
        x, _ = spla.cg(self.matrix, b, rtol=1e-12, atol=0.0, maxiter=4000, M=M,
                       callback=count)
        residual = np.linalg.norm(self.matrix @ x - b) / np.linalg.norm(b)
        # written so that a NaN residual fails too
        if not residual <= SOLVER_RTOL:
            raise SolverError(
                f"conjugate gradients stopped after {iterations} iterations at "
                f"relative residual {residual:.3e} (target {SOLVER_RTOL:g})"
            )
        out[interior_slices(1)] = x.reshape(self.shape)
        return out


def solve_conductivity(grid: BoxGrid, f2, trace):
    """Solution of div(f2 grad u) = 0 with u = trace on the boundary nodes."""
    f2 = np.asarray(f2, dtype=float)
    if np.any(f2 <= 0.0):
        raise ValueError("conductivity coefficient must be strictly positive")
    return DirichletOperator(grid, sigma=f2).solve(trace)


def solve_schrodinger(grid: BoxGrid, q, trace):
    """Solution of (-Delta + q) w = 0 with w = trace on the boundary nodes.

    Well-posedness is guaranteed for potentials of conductivity type
    (q = Laplacian(f)/f with f bounded away from zero); other potentials
    are accepted, and a solve that misses the residual target raises
    SolverError.
    """
    return DirichletOperator(grid, q=np.asarray(q, dtype=float)).solve(trace)


def solve_poisson(grid: BoxGrid, rhs, trace):
    """Solution of -Delta u = rhs with Dirichlet data `trace`."""
    return DirichletOperator(grid).solve(trace, rhs=rhs)


# -- extensions of boundary data ------------------------------------------------


def coons_extension(grid: BoxGrid, boundary_values):
    """Transfinite (Boolean-sum) interpolation of boundary node data.

    Reads only the boundary layer of the input array and reproduces it
    exactly; a cheap extension-independent companion to the discrete
    harmonic extension.
    """
    res = tuple(grid.resolution)
    G = np.asarray(boundary_values, dtype=float)
    ts = [np.linspace(0.0, 1.0, r) for r in res]

    def blend(arr, axis):
        t = ts[axis].reshape([-1 if b == axis else 1 for b in range(3)])
        lo = np.take(arr, [0], axis=axis)
        hi = np.take(arr, [-1], axis=axis)
        return (1.0 - t) * lo + t * hi

    P1 = blend(G, 0)
    P2 = blend(G, 1)
    P3 = blend(G, 2)
    P12 = blend(P1, 1)
    P13 = blend(P1, 2)
    P23 = blend(P2, 2)
    P123 = blend(P12, 2)
    return P1 + P2 + P3 - P12 - P13 - P23 + P123


# -- weak Dirichlet-to-Neumann forms ------------------------------------------------


class DtnForm:
    """Weak Dirichlet-to-Neumann evaluator for one coefficient field.

    kind='conductivity' realizes the map taking the trace of u to the
    conormal flux of div(sigma grad u) = 0; kind='schrodinger' the map
    taking the trace of w to the normal flux for (-Delta + q) w = 0.  The
    pairing value is the discrete energy a(U, V) where U solves the
    interior problem for the first trace and V is any extension of the
    second; Galerkin orthogonality of the assembly makes the value
    extension-independent to solver tolerance.
    """

    def __init__(self, grid: BoxGrid, kind, coefficient):
        self.grid = grid
        self.kind = kind
        if kind == "conductivity":
            self.op = DirichletOperator(grid, sigma=coefficient)
        elif kind == "schrodinger":
            self.op = DirichletOperator(grid, q=coefficient)
        else:
            raise ValueError("kind must be 'conductivity' or 'schrodinger'")
        self._harmonic = DirichletOperator(grid)
        self._solved = {}

    @classmethod
    def conductivity(cls, profile: ConductivityProfile):
        return cls(profile.grid, "conductivity", profile.f**2)

    @classmethod
    def schrodinger(cls, profile: ConductivityProfile):
        if profile.q is None:
            raise ValueError("profile carries no potential q")
        return cls(profile.grid, "schrodinger", profile.q)

    def _solve(self, op, trace):
        """Solution of `op` with the trace, solved once per (operator, trace)."""
        key = (op is self.op, hashlib.sha1(np.ascontiguousarray(trace).tobytes()).hexdigest())
        if key not in self._solved:
            self._solved[key] = op.solve(trace)
        return self._solved[key]

    def solution(self, trace):
        return self._solve(self.op, trace)

    def _extend(self, trace, extension):
        if extension == "solution":
            return self.solution(trace)
        if extension == "harmonic":
            return self._solve(self._harmonic, trace)
        if extension == "coons":
            return coons_extension(self.grid, trace)
        raise ValueError(f"unknown extension {extension!r}")

    def energy(self, U, V):
        """The operator's bilinear form a(U, V): edge stiffness plus (for q) mass."""
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        total = 0.0
        for a, w in enumerate(self.op.edge_weights):
            total += float(np.sum(w * np.diff(U, axis=a) * np.diff(V, axis=a)))
        if self.op.mass_weights is not None:
            total += float(np.sum(self.op.mass_weights * U * V))
        return self.grid.cell_volume * total

    def pair(self, phi0, psi0, extension="harmonic"):
        """Weak pairing (Lambda phi0, psi0) = a(U_phi, V_psi)."""
        U = self.solution(np.asarray(phi0, dtype=float))
        V = self._extend(np.asarray(psi0, dtype=float), extension)
        return self.energy(U, V)

    def matrix(self, traces, extension="solution"):
        """Dense pairing matrix over a list of nodal trace arrays."""
        k = len(traces)
        out = np.empty((k, k))
        for i in range(k):
            for j in range(k):
                out[i, j] = self.pair(traces[i], traces[j], extension=extension)
        return out


# -- boundary node quadrature --------------------------------------------------------


def boundary_node_pairing(grid: BoxGrid, phi, psi, normal_component=None):
    """(phi, psi) boundary pairing over grid nodes with trapezoid face weights.

    normal_component: optional nodal vector field dotted with the outward
    normal of each face and multiplied into the integrand (used for flux
    weights like grad f . eta).
    """
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    total = 0.0
    for axis, high, slab in face_slabs():
        vals = phi[slab] * psi[slab]
        if normal_component is not None:
            sign = 1.0 if high else -1.0
            vals = vals * (sign * np.asarray(normal_component)[slab + (axis,)])
        transverse = [b for b in range(3) if b != axis]
        w = trapezoid_product(grid.resolution[transverse], grid.spacing[transverse])
        total += float(np.sum(vals * w))
    return total


# -- spec-level operations -------------------------------------------------------------


def dtn_relation_residuals(profile: ConductivityProfile, traces, psi0, extension="harmonic"):
    """Normalized residuals of the conductivity/Schrodinger DtN interrelation.

    The conductivity flux of the trace phi0/f equals f times the
    Schrodinger flux of phi0 minus the (grad f . eta) phi0 boundary term;
    in weak form, with both pairings tested against psi0:

        (Lambda_cond(phi0/f), psi0) - (Lambda_q(phi0), f psi0)
            + int_bdry (grad f . eta) phi0 psi0 ds  -> 0.

    Returns, for each trace phi0 in `traces`, |residual| / max(|term|) and
    the three terms.  Both forms are built once for all traces.
    """
    if profile.q is None:
        raise ValueError("profile must have a closed-form potential (twice differentiable)")
    psi0 = np.asarray(psi0, dtype=float)
    cond = DtnForm.conductivity(profile)
    schr = DtnForm.schrodinger(profile)
    out = []
    for phi0 in traces:
        phi0 = np.asarray(phi0, dtype=float)
        a = cond.pair(phi0 / profile.f, psi0, extension)
        b = schr.pair(phi0, profile.f * psi0, extension)
        c = boundary_node_pairing(profile.grid, phi0, psi0, normal_component=profile.grad_f)
        scale = max(abs(a), abs(b), abs(c), 1e-300)
        out.append((abs(a - b + c) / scale, (a, b, c)))
    return out


def dtn_relation_residual(profile: ConductivityProfile, phi0, psi0, extension="harmonic"):
    """dtn_relation_residuals for the one trace phi0."""
    return dtn_relation_residuals(profile, [phi0], psi0, extension)[0]


def mq_product(profile: ConductivityProfile, w0, psi):
    """Distributional potential-solution product m_q(w0)(psi).

    Defined as -int grad f . grad(w0 psi / f) dy for test functions psi
    vanishing near the boundary; for twice-differentiable f this equals
    int (Delta f / f) w0 psi dy by parts.
    """
    grid = profile.grid
    psi = np.asarray(psi, dtype=float)
    mask = np.ones(tuple(grid.resolution), dtype=bool)
    mask[interior_slices(2)] = False
    if np.any(np.abs(psi[mask]) > 0.0):
        raise ValueError("test function support touches the two outermost node layers")
    w0 = np.asarray(w0, dtype=float)
    p = w0 * psi / profile.f
    grad_p = scalar_gradient(grid, p)
    integrand = -np.sum(profile.grad_f * grad_p, axis=-1)
    return float(np.sum(integrand * grid.trapezoid_weights()))
