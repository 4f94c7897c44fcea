"""Sparse multivariate matrix polynomials: storage and evaluation.

Polynomials live over a parameter vector theta in R^r with float
coefficients.  A rows-by-cols matrix polynomial M(theta) = sum_e C_e theta^e
is stored as its per-monomial coefficient matrices {e: C_e}, e an exponent
tuple:

    [[4*t1^2*t2 + 9]]  ->  {(2, 1): [[4.0]], (0, 0): [[9.0]]}

It is the one polynomial type: the weight, Laplacian and Gram matrices are
square ones, and the region inequalities s_k(theta) >= 0 one column, s_k in
row k.  Any coefficient of magnitude at most COEFF_CLEANUP is stored as 0
and a monomial whose matrix is all zero is never stored, so the term dict
of an entry (terms) holds only its nonzero coefficients.  Evaluation at a
batch of points is one contraction of the monomial powers (mono_powers,
shared with the power vector) against the coefficient stack.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

# Exponent tuple: entry k is the power of theta_{k+1}.
ExponentVec = tuple[int, ...]

# Coefficients with |c| at most this are dropped at construction.
COEFF_CLEANUP = 1e-14


def mono_degree(e: ExponentVec) -> int:
    """Total degree of an exponent tuple."""
    return sum(e)


def mono_mul(a: ExponentVec, b: ExponentVec) -> ExponentVec:
    """Product of two monomials (exponent addition)."""
    return tuple(x + y for x, y in zip(a, b))


def mono_sort_key(e: ExponentVec):
    """Sort key giving graded-descending order, ties lexicographic with
    theta_1 > theta_2 > ..., so the constant monomial comes last.

    For r=1, d=2 this orders (2,), (1,), (0,), i.e. phi = (t^2, t, 1)."""
    return (-mono_degree(e), tuple(-x for x in e))


def mono_powers(monos: Sequence[ExponentVec], thetas, r: int) -> np.ndarray:
    """theta^e for every point of an (m, r) batch and every monomial e in
    monos, shape (m, len(monos)).  A 1-D theta is a batch of one point."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim == 1:
        thetas = thetas.reshape(1, -1)
    if thetas.shape[1] != r:
        raise ValueError(f"batch has {thetas.shape[1]} columns, expected {r}")
    out = np.ones((thetas.shape[0], len(monos)))
    for i, e in enumerate(monos):
        for k, p in enumerate(e):
            if p:
                out[:, i] *= thetas[:, k] ** p
    return out


class MatrixPolynomial:
    """rows-by-cols matrix polynomial M(theta) = sum_e C_e theta^e, stored as
    its per-monomial coefficient matrices coeffs = {e: C_e}.

    COEFF_CLEANUP applies entrywise: any |C_e[i, j]| <= COEFF_CLEANUP is
    stored as 0, and a monomial whose matrix is then all zero is dropped.
    The constructor copies the matrices it is given; consumers read coeffs
    and must not mutate it."""

    __slots__ = ("rows", "cols", "r", "coeffs")

    def __init__(self, rows: int, cols: int, r: int,
                 coeffs: Mapping[ExponentVec, np.ndarray] | None = None):
        self.rows = int(rows)
        self.cols = int(cols)
        self.r = int(r)
        self.coeffs: dict[ExponentVec, np.ndarray] = {}
        for e, C in (coeffs or {}).items():
            e = tuple(int(x) for x in e)
            if len(e) != self.r or any(x < 0 for x in e):
                raise ValueError(f"bad exponent {e} for r={self.r}")
            C = np.array(C, dtype=float)
            if C.shape != (self.rows, self.cols):
                raise ValueError(f"coefficient of {e} has shape {C.shape}, "
                                 f"expected {(self.rows, self.cols)}")
            C[np.abs(C) <= COEFF_CLEANUP] = 0.0
            if np.any(C):
                self.coeffs[e] = C

    # -- access -------------------------------------------------------------

    def terms(self, i: int, j: int) -> dict[ExponentVec, float]:
        """The nonzero coefficients of entry (i, j) by monomial, in the
        order of coeffs."""
        return {e: float(C[i, j]) for e, C in self.coeffs.items() if C[i, j]}

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def deg(self) -> int:
        """Max total degree over entries (0 for the zero matrix)."""
        return max((mono_degree(e) for e in self.coeffs), default=0)

    def is_symmetric(self) -> bool:
        """Exact coefficient-wise symmetry check (canonical forms make
        equality of stored coefficients meaningful)."""
        if self.rows != self.cols:
            return False
        return all(np.array_equal(C, C.T) for C in self.coeffs.values())

    # -- evaluation ---------------------------------------------------------

    def __call__(self, theta: Sequence[float]) -> np.ndarray:
        return self.eval_batch(theta)[0]

    def eval_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Evaluate at a (m, r) batch, returning (m, rows, cols): one tensor
        contraction of the monomial powers with the coefficient stack."""
        monos = sorted(self.coeffs, key=mono_sort_key)
        powers = mono_powers(monos, thetas, self.r)
        if not monos:
            return np.zeros((powers.shape[0], self.rows, self.cols))
        stack = np.stack([self.coeffs[e] for e in monos])      # (q, rows, cols)
        return np.einsum("mq,qrc->mrc", powers, stack)

    def __repr__(self) -> str:
        return f"MatrixPolynomial({self.rows}x{self.cols}, r={self.r}, deg={self.deg()})"
