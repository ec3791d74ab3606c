"""Dense arithmetic for the real Clifford algebra Cl(0,3).

Generators e_1, e_2, e_3 satisfy e_i e_j + e_j e_i = -2 delta_ij.  An
element is stored as 8 real coefficients indexed by blade bitmask: bit k
set means generator e_{k+1} is present, so mask 0 is the scalar unit and
mask 0b101 is e_1 e_3.  The bitmask representation keeps generators inside
a blade in ascending order by construction.

Coefficient stacks of shape (..., 8) let grid fields and quadrature batches
share one engine without per-node Python objects.  Multiplying by a basis
blade e_mask permutes the blade axis and flips signs (Dorst, Fontijne &
Mann, Geometric Algebra for Computer Science, 2007), so it is a matmul with
a signed permutation matrix, built on first use for each mask.  A matmul
row sums one +-1 term and 7 exact zeros, so the product is exact for finite
coefficients; a non-finite coefficient spreads NaN across its row
(0 * inf).
"""

from __future__ import annotations

import functools
import operator

import numpy as np

BLADES = 8


def _popcount(mask):
    return bin(mask).count("1")


def _blade_sign(a: int, b: int) -> int:
    """Sign of e_a * e_b: one -1 for each pair (i in a, j in b) with j < i,
    a transposition when the concatenated generator word is sorted, and one
    for each repeated generator, e_i^2 = -1."""
    swaps = _popcount(a >> 1 & b) + _popcount(a >> 2 & b)
    return -1 if (swaps + _popcount(a & b)) % 2 else 1


class AlgebraTables:
    """Product signs, grades and conjugation signs of Cl(0,3)."""

    def __init__(self):
        masks = range(BLADES)
        self.grades = np.array([_popcount(m) for m in masks], dtype=np.int64)
        # conjugation flips grades 1,2 (mod 4) and fixes 0,3 (mod 4)
        self.part03_mask = np.isin(self.grades % 4, (0, 3))
        self.conj_signs = np.where(self.part03_mask, 1.0, -1.0)
        self.sign = np.array([[_blade_sign(a, b) for b in masks] for a in masks], dtype=np.int8)


@functools.cache
def tables() -> AlgebraTables:
    return AlgebraTables()


def _blade_axis(a):
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != BLADES:
        raise ValueError(f"blade axis of length {a.shape[-1]} is not the {BLADES} blades of Cl(0,3)")
    return a


def gp_array(a, b):
    """Geometric product of coefficient stacks, broadcasting leading axes:
    sum over the blades of a of a_mask (e_mask b), each term a
    `basis_mul_left` shuffle, so exact for integer coefficients."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"blade axes differ: {a.shape[-1]} vs {b.shape[-1]}")
    a = _blade_axis(a)
    out = np.zeros(np.broadcast(a, b).shape)
    # blades of a that are zero throughout contribute nothing
    for mask in np.flatnonzero(a.reshape(-1, BLADES).any(axis=0)):
        out += a[..., mask, None] * basis_mul_left(mask, b)
    return out


def conj_array(a):
    """Clifford conjugation: grade k picks up (+,-,-,+) by k mod 4."""
    return tables().conj_signs * _blade_axis(a)


def parity_array(a):
    """The grades-0,3 (mod 4) and grades-1,2 (mod 4) parts of a coefficient stack."""
    a = _blade_axis(a)
    part03 = tables().part03_mask
    return np.where(part03, a, 0.0), np.where(part03, 0.0, a)


@functools.cache
def _shuffle(mask):
    """Read-only signed permutation S with a @ S = e_mask a for coefficient
    rows a: row j holds the sign of e_mask e_j at column mask ^ j."""
    rows = np.arange(BLADES)
    shuffle = np.zeros((BLADES, BLADES))
    shuffle[rows, rows ^ mask] = tables().sign[mask]
    shuffle.setflags(write=False)
    return shuffle


def basis_mul_left(mask, a):
    """e_mask * a on a coefficient stack: a matmul with a signed permutation,
    exact for finite coefficients (a non-finite one makes its row NaN)."""
    a = _blade_axis(a)
    mask = operator.index(mask)
    if not 0 <= mask < BLADES:
        raise ValueError(f"blade mask {mask} out of range for n=3")
    return (a.reshape(-1, BLADES) @ _shuffle(mask)).reshape(a.shape)


def vector_to_array(components):
    """Embed vector components (..., 3) as grade-1 coefficient stacks."""
    components = np.asarray(components, dtype=float)
    if components.shape[-1] != 3:
        raise ValueError(f"expected 3 vector components, got {components.shape[-1]}")
    out = np.zeros(components.shape[:-1] + (BLADES,))
    for i in range(3):
        out[..., 1 << i] = components[..., i]
    return out
