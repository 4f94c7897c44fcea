"""Gram (square matrix) representations of polynomials and polynomial matrices.

A polynomial f(theta) of degree <= 2d in r parameters can be written as

    f(theta) = phi(theta)^T (F + C(delta)) phi(theta)

where phi is the power vector of all monomials of degree <= d, F is one fixed
symmetric representative, and C(delta) ranges over the linear space of
symmetric matrices that expand to the zero polynomial.  A symmetric s-by-s
matrix polynomial M(theta) of degree <= 2d gets the block analogue

    M(theta) = (phi(theta) (x) I_s)^T (B + D(delta)) (phi(theta) (x) I_s).

This module builds the canonical representative (coefficients split equally
over all Gram positions that produce a given monomial), an orthonormal basis
of the null space, and the expansion map back to coefficient matrices.

Power vector order is graded descending with ties broken lexicographically
(theta_1 before theta_2), so the constant monomial is always last: for r=1,
d=2 the vector is (t^2, t, 1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy import sparse

from . import sdp
from .polyalg import (
    COEFF_CLEANUP,
    ExponentVec,
    mono_mul,
    mono_powers,
    mono_sort_key,
)


@dataclass(frozen=True)
class PowerVector:
    """Ordered monomial basis phi(r, d): every monomial of degree <= d."""

    r: int
    d: int
    monos: tuple[ExponentVec, ...]

    def __len__(self) -> int:
        return len(self.monos)

    def eval_batch(self, thetas: np.ndarray) -> np.ndarray:
        """phi at a (m, r) batch of points, shape (m, len(phi))."""
        return mono_powers(self.monos, thetas, self.r)


def power_vector(r: int, d: int) -> PowerVector:
    """All monomials of total degree <= d in r parameters, canonical order.

    Length is binomial(r + d, d).  r = 0 is allowed and gives the single
    constant monomial: the uncertainty-free case."""
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    if d < 0:
        raise ValueError(f"need d >= 0, got {d}")
    monos: list[ExponentVec] = []

    def rec(prefix: list[int], remaining: int, budget: int):
        if remaining == 0:
            monos.append(tuple(prefix))
            return
        for p in range(budget + 1):
            rec(prefix + [p], remaining - 1, budget - p)

    rec([], r, d)
    monos.sort(key=mono_sort_key)
    assert len(monos) == math.comb(r + d, d)
    return PowerVector(r, d, tuple(monos))


def _positions(pv: PowerVector) -> dict[ExponentVec, list[tuple[int, int]]]:
    """Unordered Gram positions grouped by the monomial they produce.

    positions[mu] lists the index pairs (a, b), a <= b, with
    phi_a * phi_b = mu."""
    out: dict[ExponentVec, list[tuple[int, int]]] = {}
    l = len(pv)
    for a in range(l):
        for b in range(a, l):
            mu = mono_mul(pv.monos[a], pv.monos[b])
            out.setdefault(mu, []).append((a, b))
    return out


def gram_base(coeffs: Mapping[ExponentVec, np.ndarray], pv: PowerVector,
              s: int, pos: dict) -> np.ndarray:
    """Equal-split Gram representative of the s-by-s coefficient family
    coeffs against pv; pos is _positions(pv).  The coefficients may carry
    leading batch axes, which the result shares.

    Works on coefficient matrices directly, so the certifier's assembly can
    pass in its per-variable families and the positions it computed once.
    For f = 7t^4 + 2t^3 + 4t^2 + 6t + 9 at d=2 this produces

        [[7, 1, 1], [1, 2, 3], [1, 3, 9]]

    against phi = (t^2, t, 1)."""
    size = len(pv) * s
    batch = next((np.shape(C)[:-2] for C in coeffs.values()), ())
    base = np.zeros(batch + (size, size))
    for mu, C in coeffs.items():
        if not np.any(C):
            continue
        places = pos.get(mu)
        if places is None:
            raise ValueError(f"monomial {mu} not representable at d={pv.d}")
        share = C / len(places)
        for (a, b) in places:
            if a == b:
                base[..., a * s:(a + 1) * s, a * s:(a + 1) * s] += share
            else:
                base[..., a * s:(a + 1) * s, b * s:(b + 1) * s] += share / 2
                base[..., b * s:(b + 1) * s, a * s:(a + 1) * s] += \
                    np.swapaxes(share, -1, -2) / 2
    return base


@functools.lru_cache(maxsize=16)
def gram_null_basis(r: int, d: int, s: int = 1) -> sparse.csc_array:
    """Orthonormal basis of symmetric matrices expanding to zero, as the
    svec columns of one sparse matrix; read-only, and kept per (r, d, s),
    since every assembly and every replay asks again.

    Two kinds of element span the kernel of the expansion map:

    * for each monomial mu produced by t >= 2 distinct Gram positions, the
      assignments of one symmetric s-by-s matrix per position that sum to
      zero ((t-1) * s(s+1)/2 dimensions);
    * for each unordered pair of distinct power-vector indices, the
      antisymmetric part of that off-diagonal block (l(l-1)/2 * s(s-1)/2
      dimensions), which cancels against its transpose on expansion.

    A dimension count against the full symmetric space minus the coefficient
    space shows these exhaust the kernel.  Elements are Frobenius-orthonormal:
    the two kinds have orthogonal supports, distinct monomials touch disjoint
    positions, and within one monomial a Gram-Schmidt pass over the weights
    of the positions handles the only non-trivial overlaps.  Everything is
    deterministic."""
    pv = power_vector(r, d)
    l = len(pv)
    size = l * s
    pos = _positions(pv)
    root2 = math.sqrt(2.0)
    rows: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    # symmetric units (u, v), u <= v, the diagonal ones first, placed at
    # every Gram position (a, b) of a monomial
    units = [(u, u) for u in range(s)] + \
        [(u, v) for u in range(s) for v in range(u + 1, s)]
    for mu in sorted(pos, key=mono_sort_key):
        if len(pos[mu]) < 2:
            continue
        a, b = np.array(pos[mu]).T
        on_diag = a == b
        for u, v in units:
            # squared Frobenius norm and svec value of the unit at each
            # position; off the diagonal it is halved over (a, b) and
            # (b, a), and (a s + v, b s + u) is a second svec entry
            c = np.where(on_diag, 1.0, 0.5) * (1.0 if u == v else 2.0)
            f = np.where(on_diag, 1.0 if u == v else root2, root2 / 2)
            twin = ~on_diag & (u != v)
            at = np.concatenate([
                sdp.svec_position(a * s + u, b * s + v, size),
                sdp.svec_position(a[twin] * s + v, b[twin] * s + u, size)])
            # Gram-Schmidt of e_0 - e_j, j >= 1, in the weights c
            group: list[np.ndarray] = []
            for j in range(1, len(a)):
                x = np.zeros(len(a))
                x[0], x[j] = 1.0, -1.0
                for g in group:
                    x = x - np.sum(c * x * g) * g
                group.append(x / np.sqrt(np.sum(c * x * x)))
                rows.append(at)
                vals.append(np.concatenate([group[-1] * f,
                                            (group[-1] * f)[twin]]))

    # antisymmetric off-diagonal block directions (only exist for s >= 2):
    # +-1/2 at (a s + u, b s + v) and (a s + v, b s + u), a < b, u < v
    ends = np.array(
        [((a * s + u, b * s + v), (a * s + v, b * s + u))
         for a in range(l) for b in range(a + 1, l)
         for u in range(s) for v in range(u + 1, s)],
        dtype=np.int64).reshape(-1, 2, 2)
    rows.append(sdp.svec_position(ends[..., 0], ends[..., 1], size).ravel())
    vals.append(np.tile([root2 / 2, -root2 / 2], len(ends)))

    counts = [len(x) for x in rows[:-1]] + [2] * len(ends)
    basis = sparse.csc_array(
        (np.concatenate(vals), np.concatenate(rows), np.cumsum([0] + counts)),
        shape=(sdp.svec_dim(size), len(counts)))
    for a in (basis.data, basis.indices, basis.indptr):
        a.flags.writeable = False
    return basis


def gram_expand(A: np.ndarray, pv: PowerVector, s: int
                ) -> dict[ExponentVec, np.ndarray]:
    """Coefficient matrices by monomial of the matrix polynomial whose Gram
    matrix against pv is A; A may carry leading batch axes.

    As in MatrixPolynomial, coefficients of magnitude at most COEFF_CLEANUP
    are zeroed and monomials left all zero are dropped."""
    A = np.asarray(A, dtype=float)
    l = len(pv)
    if A.shape[-2:] != (l * s, l * s):
        raise ValueError(f"Gram matrix shape {A.shape}, expected "
                         f"{(l * s, l * s)}")
    sums: dict[ExponentVec, np.ndarray] = {}
    for a in range(l):
        for b in range(l):
            blk = A[..., a * s:(a + 1) * s, b * s:(b + 1) * s]
            mu = mono_mul(pv.monos[a], pv.monos[b])
            sums[mu] = sums[mu] + blk if mu in sums else blk.copy()
    coeffs = {}
    for mu, C in sums.items():
        C[np.abs(C) <= COEFF_CLEANUP] = 0.0
        if np.any(C):
            coeffs[mu] = C
    return coeffs

