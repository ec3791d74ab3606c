"""The Dirichlet operator and weak Dirichlet-to-Neumann pairings on box grids.

Both equations are discretized with conservative second-order finite
differences on the grid nodes: the conductivity operator -div(sigma grad u)
uses harmonic face averages of sigma, the Schrodinger operator -Delta + q
collocates the potential.  Each operator is defined once, by its bilinear
energy form with edge-wise trapezoid transverse weights (DirichletOperator).
No matrix is assembled: the form's node matrix K is applied from those
weights as the node flux K U, the solver computes its interior rows alone
(the interior system and the trace coupling), and the DtN energy
a(U, V) = |cell| V.K U applies all of it to the whole nodal array.  The
interior equations are thus the Galerkin equations of the form by
construction: for U solving them, a(U, V) reads only the boundary values
of V, so a weak DtN pairing needs no extension of its second trace.

Every Dirichlet solve is one preconditioned conjugate-gradient engine.
The preconditioner follows the Liouville substitution w = f u with
f = sqrt(sigma), which carries -div(sigma grad u) + q u to
f (-Delta + q + Delta f / f) f: it applies F^-1 (-Delta_h + qbar)^-1 F^-1
with qbar the interior mean of Delta_h f / f + q, clipped at 0, and inverts
the constant-coefficient box operator in its type-I sine eigenbasis
(Buzbee, Golub & Nielson 1970).  Constant-coefficient operators converge
in one iteration, smooth variable coefficients in a handful.  The
conjugate-gradient loop (`cg`) is plain numpy and takes every inner
product with einsum, whose summation order no BLAS thread count changes,
so a solve, and every DtN export built on it, comes out the same under
any thread count.  A solve holds only what it reads: `cg` updates its
three vectors in place, the sine transforms run between two buffers with
no transposed copy, the preconditioner is built on an operator's first
solve, and an operator without sigma (unit coefficient) holds its weights
as broadcast views of 2-d data.  There is no direct-solver fallback: a
solve that misses the residual target, or whose iteration breaks down (a
non-finite or non-positive r.z or p.Ap, as a NaN trace or an indefinite
operator gives), raises SolverError.

Flux data never comes from one-sided normal differences - every
Dirichlet-to-Neumann evaluation is the volume energy form, evaluated as
|cell| V.K U with K U the node flux of the solution.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from .fields import BoxGrid, face_slabs, interior_slices, trapezoid_product
from .vekua import ConductivityProfile

SOLVER_RTOL = 1e-10
# cg's stop: recursive residual below CG_RTOL |b|, or CG_MAXITER iterations
CG_RTOL = 1e-12
CG_MAXITER = 4000


class SolverError(RuntimeError):
    pass


def _dot(a, b):
    # einsum, not a BLAS dot: a threaded dot splits its sum by thread count,
    # einsum's order is fixed
    return float(np.einsum("i,i->", a, b))


def cg(apply, b, precondition, callback=None):
    """Preconditioned conjugate gradients for apply(x) = b from x = 0
    (Saad, Iterative Methods for Sparse Linear Systems, 2003, Alg. 9.1).

    Stops when the recursive residual falls below CG_RTOL |b|, after
    CG_MAXITER iterations, or at a breakdown: a non-finite or non-positive
    r.z or p.Ap, which a NaN in b or an operator or preconditioner that is
    not positive definite gives.  The caller verifies the result.  Calls
    callback(x) once per iteration; returns x and the iteration count.

    The iterate x, the residual r and the direction p are updated in place,
    and apply(p), which must be a new array, is overwritten with alpha A p
    and then alpha p; these three and b are all that lives from one
    iteration to the next.  b is not written to, and precondition may return
    r itself.
    """
    x = np.zeros_like(b)
    r = b.copy()
    target = CG_RTOL * np.sqrt(_dot(b, b))
    p = rho_prev = None
    for iteration in range(CG_MAXITER):
        if np.sqrt(_dot(r, r)) < target:
            return x, iteration
        z = precondition(r)
        rho = _dot(r, z)
        if not 0.0 < rho < np.inf:
            return x, iteration
        if p is None:
            p = z.copy() if z is r else z  # r is updated in place below
        else:
            p *= rho / rho_prev
            p += z
        del z
        Ap = apply(p)
        curvature = _dot(p, Ap)
        if not 0.0 < curvature < np.inf:
            return x, iteration
        alpha = rho / curvature
        Ap *= alpha
        r -= Ap
        x += np.multiply(p, alpha, out=Ap)
        del Ap  # only x, r and p live from one iteration to the next
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, CG_MAXITER


# the benchmark tracer's hook (perfbench/tracer.py swaps this namespace out
# to count iterations), kept until the solver keeps its own tally: `solve`
# calls `spla.cg` through it
spla = SimpleNamespace(cg=cg)


def _harmonic_mean(a, b):
    return 2.0 * a * b / (a + b)


def _sine_basis(n, h):
    """Orthonormal type-I sine basis of the n-node Dirichlet second difference
    (a symmetric involution) and the eigenvalues of -d^2/dx^2 in it."""
    k = np.arange(1, n + 1)
    basis = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
    return basis, (2.0 - 2.0 * np.cos(np.pi * k / (n + 1))) / h**2


def _along(axis, index):
    """Index applying `index` along `axis` of a 3-d array."""
    return (slice(None),) * axis + (index,)


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
    (None without q).  Without sigma (the Schrodinger and Poisson
    operators) the coefficient is 1: `sigma` and the edge weights are then
    read-only broadcast views, the edge weights of the 2-d transverse
    weights times 1 / h_a^2, and hold no nodal array.  `_node_flux` applies
    the form's node matrix K, with a(U, V) = |cell| V.K U, to a nodal
    array; no matrix is assembled.  The solver computes the interior rows of
    K U alone, node for node as `_node_flux` does, split into the interior
    columns (`_apply`, through `_interior_flux`) and the boundary coupling
    (`trace_rhs`, on the layer next to the boundary), so the interior
    equations are exactly the Galerkin equations of the form.  Coefficients
    must be finite, and sigma positive.  With q, well-posedness is
    guaranteed for potentials of conductivity type (q = Laplacian(f)/f with
    f bounded away from zero); other potentials are accepted, and a solve
    that misses the residual target raises SolverError.  The preconditioner
    is built on the first solve, so an operator that is never solved holds
    none; its per-axis sine transforms are BLAS matrix products, run on one
    thread under the process policy (see `runtime`).
    """

    def __init__(self, grid: BoxGrid, sigma=None, q=None):
        res = tuple(int(r) for r in grid.resolution)
        self.grid = grid
        self._unit = sigma is None
        self.sigma = (np.broadcast_to(1.0, res) if self._unit
                      else np.asarray(sigma, dtype=float))
        self.q = None if q is None else np.asarray(q, dtype=float)
        for name, value in (("sigma", self.sigma), ("q", self.q)):
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"coefficient {name} must be finite")
        if not np.all(self.sigma > 0.0):  # written so that a NaN fails it too
            raise ValueError("coefficient sigma must be strictly positive")
        h = grid.spacing
        self.edge_weights = []
        for a in range(3):
            trap = np.expand_dims(trapezoid_product([r for b, r in enumerate(res) if b != a]), a)
            if self._unit:  # the harmonic face average of ones is exactly 1.0
                edges = tuple(r - 1 if b == a else r for b, r in enumerate(res))
                w = np.broadcast_to((1.0 / h[a] ** 2) * trap, edges)
            else:
                w = _face_coefficients(self.sigma, a) / h[a] ** 2 * trap
            self.edge_weights.append(w)
        self.mass_weights = None if self.q is None else self.q * trapezoid_product(res)
        self.shape = tuple(r - 2 for r in res)
        inside = np.zeros(res, dtype=bool)
        inside[interior_slices(1)] = True
        self._boundary = np.flatnonzero(~inside)

    @functools.cached_property
    def _preconditioner(self):
        """(sines, 1/eig, 1/f) of the Liouville-sine preconditioner
        F^-1 (-Delta_h + qbar)^-1 F^-1, F = diag(f), built on first use.

        f = sqrt(sigma); qbar is the interior mean of Delta_h f / f plus that
        of q, clipped at 0 so the preconditioner stays positive definite.
        For a unit sigma, f is 1 and Delta_h f / f is 0: 1/f is the scalar
        1.0, with no grid array.  `sines` holds the per-axis sine matrices
        (dense matrices beat an FFT-based DST at these sizes), 1/eig the
        inverse eigenvalues, flat in the interior's C order.
        """
        h = self.grid.spacing
        inner = interior_slices(1)
        if self._unit:
            qbar, inv_f = 0.0, 1.0
        else:
            f = np.sqrt(self.sigma)
            lap_f = sum(
                np.diff(f, 2, axis=a)[tuple(slice(None) if b == a else slice(1, -1)
                                            for b in range(3))] / h[a] ** 2
                for a in range(3)
            )
            qbar = float(np.mean(lap_f / f[inner]))
            inv_f = 1.0 / f[inner].ravel()
        if self.q is not None:
            qbar += float(np.mean(self.q[inner]))
        bases = [_sine_basis(n, h[a]) for a, n in enumerate(self.shape)]
        eig = max(qbar, 0.0) + sum(
            lam.reshape([-1 if b == a else 1 for b in range(3)])
            for a, (_, lam) in enumerate(bases)
        )
        return [basis for basis, _ in bases], (1.0 / eig).ravel(), inv_f

    def _precondition(self, r):
        """F^-1 S diag(1/eig) S F^-1 r, S the sine transform of the interior
        box.  Each of the six contractions is one matrix product over the
        leading axis, which it moves last (three restore the axis order),
        written between two flat buffers with no transposed copy; the last
        one is returned."""
        sines, inv_eig, inv_f = self._preconditioner
        x = r * inv_f
        y = np.empty_like(x)
        for scale in (inv_eig, inv_f):
            for basis in sines:
                n = len(basis)
                np.dot(x.reshape(n, -1).T, basis, out=y.reshape(-1, n))
                x, y = y, x
            x *= scale
        return x

    def _node_flux(self, U):
        """K U for a nodal array U: per axis, the edge flux w dU is subtracted
        at the node below each edge and added at the node above, plus m U.
        Summing by parts, a(U, V) = |cell| V.K U for every V."""
        KU = np.zeros_like(U) if self.mass_weights is None else self.mass_weights * U
        for a, w in enumerate(self.edge_weights):
            flux = np.diff(U, axis=a)
            flux *= w
            KU[(slice(None),) * a + (slice(None, -1),)] -= flux
            KU[(slice(None),) * a + (slice(1, None),)] += flux
        return KU

    def _interior_flux(self, X):
        """(K [X; 0])_I, the interior rows of `_node_flux` of the nodal array
        with interior values X and a zero boundary, in the interior shape,
        with no nodal array built.  Per axis, the edge fluxes of the rows
        through interior nodes only, each node taking the same operations in
        the same order as `_node_flux`; the two edges at the ends of a row
        take the difference with the zero boundary node as np.diff would, so
        the values are bit for bit those of the full flux.  One buffer holds
        the fluxes of every axis in turn."""
        inner = interior_slices(1)
        KU = (np.zeros(self.shape) if self.mass_weights is None
              else self.mass_weights[inner] * X)
        buffer = np.empty(KU.size + max(KU.size // n for n in self.shape))
        for a, w in enumerate(self.edge_weights):
            rows = inner[:a] + (slice(None),) + inner[a + 1:]
            below, above = _along(a, slice(None, -1)), _along(a, slice(1, None))
            first, last = _along(a, slice(None, 1)), _along(a, slice(-1, None))
            edges = w[rows]
            flux = buffer[:edges.size].reshape(edges.shape)
            np.subtract(X[first], 0.0, out=flux[first])
            np.subtract(X[above], X[below], out=flux[_along(a, slice(1, -1))])
            np.subtract(0.0, X[last], out=flux[last])
            flux *= edges
            KU -= flux[above]  # the edge above each node
            KU += flux[below]  # the edge below
        return KU

    def _apply(self, x):
        """A x = (K [x; 0])_I: K restricted to the interior nodes, computed
        for the interior rows alone from x itself."""
        return self._interior_flux(x.reshape(self.shape)).ravel()

    def trace_rhs(self, trace):
        """Right-hand side -(K [0; trace])_I induced by Dirichlet data on the
        boundary nodes, of which it reads nothing else.  Only the layer next
        to the boundary is nonzero: per axis, the edge from each end of an
        interior row to its boundary node, w (0.0 - lo) at the low end and
        w hi at the high end, taken in `_interior_flux`'s order (the high
        end subtracted, then the low end added), so the values are bit for
        bit those of the interior flux of [0; trace] up to the sign of zero."""
        U = np.asarray(trace, dtype=float).reshape(tuple(self.grid.resolution))
        inner = interior_slices(1)
        KU = np.zeros(self.shape)
        for a, w in enumerate(self.edge_weights):
            rows = inner[:a] + (slice(None),) + inner[a + 1:]
            first, last = _along(a, slice(None, 1)), _along(a, slice(-1, None))
            edges = w[rows]
            KU[last] -= edges[last] * U[rows][last]
            KU[first] += edges[first] * np.subtract(0.0, U[rows][first])
        return np.negative(KU, out=KU).ravel()

    def solve(self, trace, rhs=None):
        """Solve with Dirichlet data `trace`; optional volume right-hand side.

        Returns the full nodal array (boundary nodes carry the trace).
        The numpy conjugate gradients of `cg`, inner products in einsum, with
        the Liouville-sine preconditioner, run to a recursive residual of
        1e-12 and verified to a true relative residual of 1e-10; raises
        SolverError otherwise, a breakdown (a NaN trace, say) included.
        """
        trace_arr = np.asarray(trace, dtype=float)
        b = self.trace_rhs(trace_arr)
        if rhs is not None:
            b += np.asarray(rhs, dtype=float)[interior_slices(1)].ravel()
        if np.any(b):
            x, iterations = spla.cg(self._apply, b, self._precondition)
            r = self._apply(x)
            r -= b
            residual = np.sqrt(_dot(r, r) / _dot(b, b))
            # written so that a NaN residual fails too
            if not residual <= SOLVER_RTOL:
                raise SolverError(
                    f"conjugate gradients stopped after {iterations} iterations at "
                    f"relative residual {residual:.3e} (target {SOLVER_RTOL:g})"
                )
        else:
            x = np.zeros_like(b)
        out = trace_arr.copy()  # only now: no second copy of the trace lives through CG
        out[interior_slices(1)] = x.reshape(self.shape)
        return out


# -- extensions of boundary data ------------------------------------------------


def coons_extension(grid: BoxGrid, boundary_values):
    """Transfinite (Boolean-sum) interpolation of boundary node data.

    Reads only the boundary layer of the input array and reproduces it
    exactly; an extension of a second trace that a DtN pairing must not
    depend on (tested against `DtnForm.pair`).
    """
    res = tuple(grid.resolution)
    G = np.asarray(boundary_values, dtype=float)
    ts = [np.linspace(0.0, 1.0, r) for r in res]

    def blend(arr, axis):
        t = ts[axis].reshape([-1 if b == axis else 1 for b in range(3)])
        lo = np.take(arr, [0], axis=axis)
        hi = np.take(arr, [-1], axis=axis)
        return (1.0 - t) * lo + t * hi

    P1, P2, P3 = (blend(G, axis) for axis in range(3))
    P12, P13, P23 = blend(P1, 1), blend(P1, 2), blend(P2, 2)
    return P1 + P2 + P3 - P12 - P13 - P23 + blend(P12, 2)


# -- weak Dirichlet-to-Neumann forms ------------------------------------------------


class DtnForm:
    """Weak Dirichlet-to-Neumann evaluator for one coefficient field.

    kind='conductivity' realizes the map taking the trace of u to the
    conormal flux of div(sigma grad u) = 0; kind='schrodinger' the map
    taking the trace of w to the normal flux for (-Delta + q) w = 0.  The
    pairing (Lambda phi0, psi0) is the energy a(U, V) of the solution U for
    phi0 against V, the boundary values of psi0 with a zero interior.  As U
    solves the interior equations, a(U, V) = |cell| V_B.(K U)_B for every V
    with those boundary values: (K U)_B is the discrete DtN map, the Schur
    complement K_BB - K_BI K_II^-1 K_IB (Curtis & Morrow, 2000), and the
    pairing reads only the boundary values of both traces.

    Solutions are cached by boundary values (a solve reads nothing else of
    its trace) and returned read-only; the node flux K U of the last cached
    solution paired as U is kept, so a row of pairings with one U (as
    `matrix` makes them) is one flux and a dot product per entry, and the
    form holds at most one flux.
    """

    def __init__(self, grid: BoxGrid, kind, coefficient):
        self.grid = grid
        if kind == "conductivity":
            self.op = DirichletOperator(grid, sigma=coefficient)
        elif kind == "schrodinger":
            self.op = DirichletOperator(grid, q=coefficient)
        else:
            raise ValueError("kind must be 'conductivity' or 'schrodinger'")
        # never solved, so it builds no preconditioner, and its unit weights
        # are broadcast views; perfbench/selftest.py pins two assemblies per form
        self._harmonic = DirichletOperator(grid)
        self._solved = {}
        self._flux = (None, None)  # (U, K U) for the last cached U

    @classmethod
    def conductivity(cls, profile: ConductivityProfile):
        return cls(profile.grid, "conductivity", profile.f**2)

    @classmethod
    def schrodinger(cls, profile: ConductivityProfile):
        return cls(profile.grid, "schrodinger", profile.q)

    def solution(self, trace):
        """Solution for the trace, solved once per boundary values."""
        trace = np.asarray(trace, dtype=float)
        key = trace.ravel()[self.op._boundary].tobytes()
        if key not in self._solved:
            U = self.op.solve(trace)
            U.flags.writeable = False
            self._solved[key] = U
        return self._solved[key]

    def _node_flux(self, U):
        """K U, kept for the last array of the solution cache it was computed
        for (those arrays are read-only, so the flux stays valid).  One entry
        serves every row of pairings with a fixed U; keeping a flux per
        cached U would hold memory that forms paired once never reuse.  The
        kept flux is dropped before another is computed, so the form never
        holds two."""
        if U is self._flux[0]:
            return self._flux[1]
        self._flux = (None, None)
        KU = self.op._node_flux(U)
        if any(U is cached for cached in self._solved.values()):
            self._flux = (U, KU)
        return KU

    def energy(self, U, V):
        """The operator's bilinear form a(U, V) = |cell| V.K U: edge stiffness
        plus (for q) mass."""
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        return self.grid.cell_volume * _dot(V.ravel(), self._node_flux(U).ravel())

    def pair(self, phi0, psi0):
        """Weak pairing (Lambda phi0, psi0) = a(U_phi, V), V the boundary values of psi0."""
        V = np.array(psi0, dtype=float)
        V[interior_slices(1)] = 0.0
        return self.energy(self.solution(phi0), V)

    def matrix(self, traces):
        """Dense matrix of the energies a(U_i, U_j) between the solutions of a
        list of nodal traces: the pairings of the traces.  A row's solutions
        are all fetched before its first pairing, so the first row solves
        every trace while no flux is kept."""
        k = len(traces)
        out = np.empty((k, k))
        for i in range(k):
            row = [(self.solution(traces[i]), self.solution(traces[j])) for j in range(k)]
            for j, (U, V) in enumerate(row):
                out[i, j] = self.energy(U, V)
        return out


# -- boundary node quadrature --------------------------------------------------------


def boundary_node_pairing(grid: BoxGrid, phi, psi, normal_component):
    """Boundary integral of (v . eta) phi psi over grid nodes with trapezoid
    face weights, v = normal_component a nodal vector field dotted with the
    outward normal of each face (a flux weight like grad f . eta).
    """
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    total = 0.0
    for axis, high, slab in face_slabs():
        sign = 1.0 if high else -1.0
        vals = phi[slab] * psi[slab] * (sign * np.asarray(normal_component)[slab + (axis,)])
        transverse = [b for b in range(3) if b != axis]
        w = trapezoid_product(grid.resolution[transverse], grid.spacing[transverse])
        total += float(np.sum(vals * w))
    return total


# -- spec-level operations -------------------------------------------------------------


def dtn_relation_residuals(profile: ConductivityProfile, traces, psi0):
    """Normalized residuals of the conductivity/Schrodinger DtN interrelation.

    The conductivity flux of the trace phi0/f equals f times the
    Schrodinger flux of phi0 minus the (grad f . eta) phi0 boundary term;
    in weak form, with both pairings tested against psi0:

        (Lambda_cond(phi0/f), psi0) - (Lambda_q(phi0), f psi0)
            + int_bdry (grad f . eta) phi0 psi0 ds  -> 0.

    Both pairings read only the boundary values of psi0.  Returns, for each
    trace phi0 in `traces`, |residual| / max(|term|) and the three terms.
    Both forms are built once for all traces.
    """
    psi0 = np.asarray(psi0, dtype=float)
    cond = DtnForm.conductivity(profile)
    schr = DtnForm.schrodinger(profile)
    out = []
    for phi0 in traces:
        phi0 = np.asarray(phi0, dtype=float)
        a = cond.pair(phi0 / profile.f, psi0)
        b = schr.pair(phi0, profile.f * psi0)
        c = boundary_node_pairing(profile.grid, phi0, psi0, normal_component=profile.grad_f)
        scale = max(abs(a), abs(b), abs(c), 1e-300)
        out.append((abs(a - b + c) / scale, (a, b, c)))
    return out
