"""The Dirichlet operator and weak Dirichlet-to-Neumann pairings on box grids.

Both equations are discretized with conservative second-order finite
differences on the grid nodes: the conductivity operator -div(sigma grad u)
uses harmonic face averages of sigma, the Schrodinger operator -Delta + q
collocates the potential.  Each operator is defined once, by its bilinear
energy form with edge-wise trapezoid transverse weights (DirichletOperator).
No matrix is assembled: the form's node matrix K is applied from those
weights by one engine, `DirichletOperator._rows`, which computes the rows
of the node flux K U in a region (every node, the interior or the two end
faces, per axis) and no others, node for node as the full flux would.
The solver's equations and its check are the interior rows, and the DtN
energy reads the boundary rows (`boundary_flux`).  The interior equations
are thus the Galerkin equations of the form by construction: for U
solving them, (K U)_I is solver residual and a(U, V) = |cell| V_B.(K U)_B
reads only the boundary values of V, so a weak DtN pairing needs no
extension of its second trace.

Every Dirichlet solve is one engine: a line-eigenbasis preconditioner M,
applied once as a direct solver and verified, with preconditioned
conjugate gradients as its fallback.  M follows the Liouville substitution
w = f u with f = sqrt(sigma), which carries -div(sigma grad u) + q u to
f (-Delta + q + Delta f / f) f.  On the grid, F^-1 A F^-1 (F = diag(f))
is a graph Laplacian with edge conductances plus a node potential; M
replaces both by their transverse means along each axis and inverts the
resulting separable operator by fast diagonalization in the eigenbases of
its three line operators (Lynch, Rice & Thomas 1964; Concus & Golub 1973).
Every profile family gives a separable transformed operator, as does the
Poisson operator, and M is then its inverse: x0 = M^-1 b, checked on the
interior rows, is the solution.  Other coefficients miss the check, and
`cg` (plain numpy) solves them from zero with M as preconditioner in a
handful of iterations.  A solve comes out the
same under any BLAS thread count because the process policy (see
`runtime`) holds BLAS at one thread: M's eigenbasis products are BLAS
matrix products (`_contract`), and only the inner products are einsum.  A
solve holds only what it reads: `cg` updates its three vectors in place,
the line-eigenbasis transforms run between two buffers with no transposed
copy, M is built on an operator's first solve and holds no interior array
of eigenvalues, and an operator without sigma (unit coefficient) holds its
weights as broadcast views of 2-d data.  There is no direct sparse solver:
a solve whose fallback misses the residual target, or whose iteration
breaks down (a non-finite or non-positive r.z or p.Ap, as a NaN trace or
an indefinite operator gives), raises SolverError.

Flux data never comes from one-sided normal differences - every
Dirichlet-to-Neumann evaluation is the volume energy form, evaluated as
|cell| V_B.(K U)_B with (K U)_B the boundary rows of the node flux of the
solution, computed once per solution and kept with it.
"""

from __future__ import annotations

import dataclasses
import functools
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .fields import BoxGrid, face_slabs, interior_slices, trapezoid_product
from .vekua import ConductivityProfile

SOLVER_RTOL = 1e-10
# cg's stop: recursive residual below CG_RTOL |b|, or CG_MAXITER iterations.
# A DtN energy reads a solution's boundary flux alone, off the per-edge form
# by V_I.r_I for a true interior residual r_I: at 1e-12 that reached 1.6e-13
# of the energy norms on random boxes, at 1e-14 it stays near 3e-15.
CG_RTOL = 1e-14
CG_MAXITER = 4000


class SolverError(RuntimeError):
    pass


@dataclasses.dataclass
class SolverTally:
    """The solve work of one `DirichletOperator`: every `solve` call, the
    conjugate-gradient iterations of the solves that fell back to `cg`, and
    the largest true relative residual a solve was verified at."""

    solves: int = 0
    fallback_iterations: int = 0
    max_residual: float = 0.0


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
# to count iterations): a solve that misses the fast path calls `spla.cg`
# through it
spla = SimpleNamespace(cg=cg)


def _harmonic_mean(a, b):
    return 2.0 * a * b / (a + b)


def _line_basis(conductance, potential):
    """Eigenbasis Q (columns) and eigenvalues of the n-node line operator
    with edge conductances `conductance` (n + 1 edges, the two end edges tied
    to zero Dirichlet nodes) and node potential `potential`."""
    off = -conductance[1:-1]
    line = np.diag(conductance[:-1] + conductance[1:] + potential)
    line += np.diag(off, 1) + np.diag(off, -1)
    eig, basis = np.linalg.eigh(line)
    return basis, eig


def _along(axis, index):
    """Index applying `index` along `axis` of a 3-d array."""
    return (slice(None),) * axis + (index,)


def _contract(x, basis, out):
    """x, flat in a C order, contracted with `basis` over its leading axis,
    which moves last: one matrix product written into the flat `out`."""
    n = len(basis)
    np.dot(x.reshape(n, -1).T, basis, out=out.reshape(-1, n))
    return out


def _transverse(axis):
    """The two axes of a 3-d array other than `axis`."""
    return tuple(b for b in range(3) if b != axis)


def _face_coefficients(sigma, axis):
    """Harmonic face averages of a nodal coefficient along one axis."""
    below, above = _along(axis, slice(None, -1)), _along(axis, slice(1, None))
    return _harmonic_mean(sigma[below], sigma[above])


class DirichletOperator:
    """-div(sigma grad u) + q u on a box grid, defined by its energy form

        a(U, V) = |cell| (sum_a sum_edges w_a dU dV + sum_nodes m U V),

    dU the difference of U along an edge.  The edge weights `edge_weights[a]`
    are the face sigma / h_a^2 times the unit transverse trapezoid weights,
    the mass weights `mass_weights` q times the unit nodal trapezoid weights
    (None without q).  Without sigma (the Schrodinger and Poisson
    operators) the coefficient is 1: `sigma` and the edge weights are then
    read-only broadcast views, the edge weights of the 2-d transverse
    weights times 1 / h_a^2, and hold no nodal array.  No matrix is
    assembled: `_rows` computes the rows of K U in a region, K the form's
    node matrix with a(U, V) = |cell| V.K U, and is the one engine of the
    form.  The solver's right-hand side is the boundary coupling of the
    interior rows (`trace_rhs`, on the layer next to the boundary), its
    check and its fallback's operator (`_apply`) are interior rows, so the
    interior equations are exactly the Galerkin equations of the form; the
    DtN energy reads the boundary rows (`boundary_flux`).  Coefficients
    must be finite, and sigma positive with finite, nonzero face averages.
    With q, well-posedness is guaranteed for potentials of conductivity
    type (q = Laplacian(f)/f with f bounded away from zero); other
    potentials are accepted, and a solve that misses the residual target
    raises SolverError.  The preconditioner (`_preconditioner`) is built on
    the first solve, so an operator that is never solved holds none; its
    per-axis line-eigenbasis transforms are BLAS matrix products, run on one
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
            with np.errstate(over="ignore"):  # refused below
                # ones average to exactly 1.0; sigma's face averages are a temporary
                w = (1.0 if self._unit else _face_coefficients(self.sigma, a)) / h[a] ** 2 * trap
            if not (np.isfinite(w.max()) and w.min() > 0.0):
                raise ValueError("coefficient sigma is out of range: a harmonic face "
                                 "average 2 s t / (s + t) overflows or underflows")
            edges = tuple(r - 1 if b == a else r for b, r in enumerate(res))
            self.edge_weights.append(np.broadcast_to(w, edges))
        self.mass_weights = None if self.q is None else self.q * trapezoid_product(res)
        self.shape = tuple(r - 2 for r in res)
        self.tally = SolverTally()

    @functools.cached_property
    def _preconditioner(self):
        """(bases, eigenvalues, 1/f) of the line-eigenbasis preconditioner
        F^-1 (Vbar + L_0 + L_1 + L_2)^-1 F^-1, F = diag(f), built on first use.

        With f = sqrt(sigma), F^-1 A F^-1 is the graph Laplacian with edge
        conductances g_e = w_e / (f_lo f_hi) plus the node potential
        V_i = q_i / f_i^2 + sum_e g_e (f_j / f_i - 1), both read from the
        interior rows of the operator's own weights.  L_a is the Dirichlet
        line operator of axis a, from the transverse means of g on its edges
        and the zero-mean line part of V (its transverse mean less Vbar, the
        mean of V over the interior), inverted in its `numpy.linalg.eigh`
        eigenbasis.  When g along each axis varies along that axis only and V
        is a sum of line parts, as for every profile family, this is A^-1
        exactly (the fast diagonalization of Lynch, Rice & Thomas, 1964);
        otherwise it is a separable approximation of A (Concus & Golub,
        1973).  Eigenvalues are floored at half the lowest eigenvalue of the
        box Laplacian with each axis's weakest mean conductance, a lower
        bound of the conductance part, so the preconditioner is positive
        definite for any finite coefficients; a separable operator is
        inverted exactly unless its potential brings it that close to
        singular.  Each axis is reduced to its line means before the next
        one's temporaries exist; a unit sigma takes the same steps, f = 1.

        `bases` holds (Q_a, Q_a.T) per axis, the second a view.  The
        eigenvalues Vbar + lam_0 + lam_1 + lam_2 are kept as (the first three
        summed over a plane, lam_2, the floor), not as an interior array.
        1/f is flat in the interior's C order, or for a unit sigma 1.0.
        """
        inner = interior_slices(1)
        conductances = []
        inv_f_full = np.sqrt(self.sigma)
        np.divide(1.0, inv_f_full, out=inv_f_full)
        V = (np.zeros(self.shape) if self.q is None
             else self.q[inner] * inv_f_full[inner])
        for a, w in enumerate(self.edge_weights):
            rows = inner[:a] + (slice(None),) + inner[a + 1:]
            below, above = _along(a, slice(None, -1)), _along(a, slice(1, None))
            lo, hi = inv_f_full[rows][below], inv_f_full[rows][above]
            edges = np.multiply(lo, hi)
            edges *= w[rows]  # g_e
            conductances.append(edges.mean(axis=_transverse(a)))
            np.subtract(lo, hi, out=edges)
            edges *= w[rows]  # g_e (f_hi - f_lo)
            V += edges[above]  # the edge above each node
            V -= edges[below]  # the edge below
            del edges
        V *= inv_f_full[inner]
        inv_f = 1.0 if self._unit else inv_f_full[inner].ravel()
        del inv_f_full
        vbar = float(np.mean(V))
        bases, lams, floor = [], [], 0.0
        for a, (g, n) in enumerate(zip(conductances, self.shape)):
            line = V.mean(axis=_transverse(a)) - vbar
            basis, lam = _line_basis(g, line)
            bases.append((basis, basis.T))
            lams.append(lam)
            # half the lowest eigenvalue of the line Laplacian with every g at its minimum
            floor += 0.5 * float(np.min(g)) * (2.0 - 2.0 * np.cos(np.pi / (n + 1)))
        del V
        plane = ((vbar + lams[0][:, None]) + lams[1])[..., None]
        return bases, (plane, lams[2], floor), inv_f

    def _precondition(self, r):
        """F^-1 Q diag(1/eig) Q^T F^-1 r, Q the tensor product of the per-axis
        line eigenbases.  Each of the six contractions is one matrix product
        over the leading axis, which it moves last (three restore the axis
        order), written between two flat buffers with no transposed copy: Q_a
        on the way in, its transposed view on the way out.  Between the two
        halves the eigenvalues are summed and floored in the free buffer, so
        no interior array of them is held; the last buffer is returned."""
        bases, (plane, last, floor), inv_f = self._preconditioner
        x = r * inv_f
        y = np.empty_like(x)
        for basis, _ in bases:
            x, y = _contract(x, basis, y), x
        eig = np.add(plane, last, out=y.reshape(self.shape))
        np.maximum(eig, floor, out=eig)
        x /= y
        for _, basis in bases:
            x, y = _contract(x, basis, y), x
        x *= inv_f
        return x

    def _rows(self, U, region):
        """(K U)[region] for a nodal array U, with no full flux built: K is the
        form's node matrix, a(U, V) = |cell| V.K U, and K U subtracts each
        axis's edge flux w dU at the node below each edge, adds it at the
        node above, and starts from m U (from zero without q).  Along each
        axis `region` takes every node, slice(None), the interior,
        slice(1, -1), or the two end faces, slice(0, None, n - 1), and the
        fluxes are those of the edges that reach the region's nodes: an edge
        on either side of an interior node, the one edge next to a face.
        Each node takes the operations of the full flux in its order, so the
        values are bit for bit those of (K U)[region].  One axis's fluxes
        are held at a time.  The two end faces of the last axis are computed
        as two planes, each with the last axis an index, 0 or n - 1: as one
        strided pair, every inner loop would run over just the two faces."""
        *across, last = region
        if isinstance(last, slice) and last.step:
            n = U.shape[-1]
            KU = np.empty(U[region].shape)
            KU[..., 0] = self._rows(U, (*across, 0))
            KU[..., 1] = self._rows(U, (*across, n - 1))
            return KU
        KU = (np.zeros(U[region].shape) if self.mass_weights is None
              else self.mass_weights[region] * U[region])
        for a, (w, kind) in enumerate(zip(self.edge_weights, region)):
            below, above = _along(a, slice(None, -1)), _along(a, slice(1, None))
            if not isinstance(kind, slice):  # one end face of the last axis: the one edge next to it
                low = kind == 0
                lo, hi = (*across, 0 if low else kind - 1), (*across, 1 if low else kind)
                flux = np.subtract(U[hi], U[lo])
                flux *= w[lo]
                if low:
                    KU -= flux
                else:
                    KU += flux
            elif kind.step:  # the faces: edge 0 leaves the low one, edge n - 2 reaches the high one
                n = U.shape[a]
                lo = region[:a] + (slice(0, n - 1, n - 2),) + region[a + 1:]
                hi = region[:a] + (slice(1, n, n - 2),) + region[a + 1:]
                flux = np.subtract(U[hi], U[lo])
                flux *= w[lo]
                KU[below] -= flux[below]
                KU[above] += flux[above]
            else:
                rows = region[:a] + (slice(None),) + region[a + 1:]
                flux = np.diff(U[rows], axis=a)
                flux *= w[rows]
                if kind.start is None:  # every node
                    KU[below] -= flux
                    KU[above] += flux
                else:  # interior nodes: an edge on either side
                    KU -= flux[above]
                    KU += flux[below]
            del flux  # before the next axis's fluxes exist
        return KU

    def boundary_flux(self, U):
        """(K U)_B: the node flux of a nodal array U at the boundary nodes,
        flat in their C order (the order of `np.flatnonzero` of a boundary
        mask), from one `_rows` per face pair, which reads the two node
        layers next to each face: in C order the two faces normal to axis 0
        are its first and last planes, and each interior plane in between
        holds its row on the low face normal to axis 1, one (low, high) pair
        on the faces normal to axis 2 per interior row, then its row on the
        high face normal to axis 1."""
        n0, n1, n2 = U.shape
        every, inner = slice(None), slice(1, -1)
        plane = n1 * n2
        out = np.empty(U.size - int(np.prod(self.shape)))
        KU = self._rows(U, (slice(0, None, n0 - 1), every, every))
        out[:plane] = KU[0].ravel()
        out[-plane:] = KU[1].ravel()
        rows = out[plane:-plane].reshape(n0 - 2, -1)  # one per interior plane of axis 0
        KU = self._rows(U, (inner, slice(0, None, n1 - 1), every))
        rows[:, :n2] = KU[:, 0]
        rows[:, -n2:] = KU[:, 1]
        rows[:, n2:-n2] = self._rows(U, (inner, inner, slice(0, None, n2 - 1))).reshape(n0 - 2, -1)
        return out

    def _apply(self, x):
        """A x = (K [x; 0])_I: K restricted to the interior nodes, the
        operator of the conjugate-gradient fallback."""
        return self._rows(np.pad(x.reshape(self.shape), 1), interior_slices(1)).ravel()

    def trace_rhs(self, trace):
        """Right-hand side -(K [0; trace])_I induced by Dirichlet data on the
        boundary nodes, of which it reads nothing else.  Only the layer next
        to the boundary is nonzero: per axis, the edge from each end of an
        interior row to its boundary node, w (0.0 - lo) at the low end and
        w hi at the high end, taken in `_rows`'s order (the high end
        subtracted, then the low end added), so the values are bit for bit
        `_rows` of [0; trace] on the interior up to the sign of zero."""
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

        Returns the full nodal array U (boundary nodes carry the trace).  The
        line-eigenbasis preconditioner is applied once, x0 = M^-1 b, and U,
        the trace copied only then with x0 as its interior, is checked by one
        `_rows` of its interior: U is the solution when its true relative
        residual |(K U)_I - rhs_I| / |b| is at most SOLVER_RTOL, as it is for
        every separable operator, whose inverse M is.  Otherwise x0 is
        dropped and the numpy conjugate gradients of `cg` solve from x = 0
        with M as preconditioner, to a recursive residual of 1e-14, and U is
        checked again the same way; a miss, a breakdown (a NaN trace, say)
        included, raises SolverError.  `tally` counts the work.
        """
        trace_arr = np.asarray(trace, dtype=float)
        inner = interior_slices(1)
        b = self.trace_rhs(trace_arr)
        if rhs is not None:
            rhs = np.asarray(rhs, dtype=float)[inner]
            b += rhs.ravel()
        self.tally.solves += 1
        if not np.any(b):
            out = trace_arr.copy()
            out[inner] = 0.0
            return out
        x = self._precondition(b)
        out = trace_arr.copy()  # only now: no second copy of the trace lives through M^-1
        out[inner] = x.reshape(self.shape)
        del x
        residual = self._residual(out, rhs, b)
        if not residual <= SOLVER_RTOL:  # written so that a NaN residual misses too
            x, iterations = spla.cg(self._apply, b, self._precondition)
            self.tally.fallback_iterations += iterations
            out[inner] = x.reshape(self.shape)
            del x
            residual = self._residual(out, rhs, b)
            if not residual <= SOLVER_RTOL:
                raise SolverError(
                    f"fallback conjugate gradients stopped after {iterations} iterations "
                    f"at relative residual {residual:.3e} (target {SOLVER_RTOL:g})"
                )
        self.tally.max_residual = max(self.tally.max_residual, residual)
        return out

    def _residual(self, U, rhs, b):
        """|(K U)_I - rhs_I| / |b|, from one `_rows` of U's interior."""
        r = self._rows(U, interior_slices(1))
        if rhs is not None:
            r -= rhs
        return np.sqrt(_dot(r.ravel(), r.ravel()) / _dot(b, b))


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

# boundary values hashed per solution-cache key, about this many
_KEY_SAMPLES = 64


class _BoundaryKey:
    """Solution-cache key of a trace: the bytes of its boundary values.  The
    hash reads only a fixed sparse sample of the values (`sample`, a slice);
    equality compares every byte, so keys are equal exactly when the
    boundary values are bit for bit the same, the sign of a zero included."""

    __slots__ = ("data", "_hash")

    def __init__(self, values, sample):
        self.data = values.tobytes()
        self._hash = hash(values[sample].tobytes())

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.data == other.data


class _Solution(NamedTuple):
    """A cached solution of a `DtnForm`: the read-only nodal array, its
    boundary values (the key's bytes, read as floats) and its boundary flux
    (K U)_B, both flat in the form's boundary order."""

    array: np.ndarray
    boundary: np.ndarray
    flux: np.ndarray


class DtnForm:
    """Weak Dirichlet-to-Neumann evaluator of one `DirichletOperator`.

    `conductivity(profile)` builds the form of sigma = f^2, the map taking
    the trace of u to the conormal flux of div(sigma grad u) = 0;
    `schrodinger(profile)` the form of the profile's q, the map taking the
    trace of w to the normal flux for (-Delta + q) w = 0.  The pairing
    (Lambda phi0, psi0) is the energy a(U, V) of the solution U for phi0
    against any V with the boundary values of psi0.  As U solves the
    interior equations, (K U)_I is solver residual and a(U, V) = |cell|
    V_B.(K U)_B: (K U)_B is the discrete DtN map, the Schur complement
    K_BB - K_BI K_II^-1 K_IB (Curtis & Morrow, 2000), and the pairing reads
    only the boundary values of both traces.  `energy` evaluates that
    boundary product and nothing else.

    Solutions are cached by boundary values (a solve reads nothing else of
    its trace) and returned read-only.  A lookup gathers the boundary values
    but hashes only a fixed sample of them (`_BoundaryKey`), and a hit
    compares all their bytes, so any changed boundary byte is a miss and a
    changed interior is not.  Each cached solution keeps its boundary
    values and its boundary flux (K U)_B, computed once when it is solved
    (`DirichletOperator.boundary_flux`), so the k x k matrix of k traces
    costs k solves, k boundary fluxes and k^2 dot products over the
    boundary nodes.
    """

    def __init__(self, op: DirichletOperator):
        self.op = op
        self.grid = op.grid
        # flat indices of the boundary nodes, the solution cache's key, and
        # the sample of them that the key hashes
        self._boundary = np.flatnonzero(np.pad(np.zeros(op.shape, bool), 1, constant_values=True))
        self._sample = slice(None, None, max(1, len(self._boundary) // _KEY_SAMPLES))
        # never solved, so it builds no preconditioner, and its unit weights
        # are broadcast views; perfbench/selftest.py pins two assemblies per form
        self._harmonic = DirichletOperator(self.grid)
        self._solved = {}  # _BoundaryKey -> _Solution
        self._by_array = {}  # id of a cached array -> its _Solution (the entry keeps it alive)

    @classmethod
    def conductivity(cls, profile: ConductivityProfile):
        return cls(DirichletOperator(profile.grid, sigma=profile.f**2))

    @classmethod
    def schrodinger(cls, profile: ConductivityProfile):
        return cls(DirichletOperator(profile.grid, q=profile.q))

    def _boundary_values(self, nodal):
        return np.asarray(nodal, dtype=float).ravel()[self._boundary]

    def solution(self, trace):
        """Solution for the trace, solved once per boundary values."""
        key = _BoundaryKey(self._boundary_values(trace), self._sample)
        solved = self._solved.get(key)
        if solved is None:
            U = self.op.solve(trace)
            U.flags.writeable = False
            solved = _Solution(U, np.frombuffer(key.data), self.op.boundary_flux(U))
            self._solved[key] = self._by_array[id(U)] = solved
        return solved.array

    def energy(self, U, V):
        """The operator's bilinear form a(U, V) = |cell| V_B.(K U)_B for U a
        solution from this form's cache (the very array `solution` returned),
        against any nodal V, of which only the boundary values are read: the
        stored boundary values when V is a cached solution too.  Any other U
        raises ValueError: the form of arbitrary arrays is V.(K U) over every
        node, `_rows` of every node of U."""
        solved = self._by_array.get(id(U))
        if solved is None:
            raise ValueError("energy(U, V) needs U to be a solution this form's `solution` "
                             "returned")
        paired = self._by_array.get(id(V))
        values = self._boundary_values(V) if paired is None else paired.boundary
        return self.grid.cell_volume * _dot(values, solved.flux)

    def pair(self, phi0, psi0):
        """Weak pairing (Lambda phi0, psi0) = a(U_phi, psi0), which reads only
        the boundary values of psi0."""
        return self.energy(self.solution(phi0), psi0)

    def matrix(self, traces):
        """Dense matrix of the energies a(U_i, U_j) between the solutions of a
        list of nodal traces: the pairings of the traces."""
        k = len(traces)
        out = np.empty((k, k))
        for i in range(k):
            for j in range(k):
                out[i, j] = self.energy(self.solution(traces[i]), self.solution(traces[j]))
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
