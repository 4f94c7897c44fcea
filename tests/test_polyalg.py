"""Polynomial and matrix-polynomial algebra."""

import math

import numpy as np
import pytest

from robustform.polyalg import (
    COEFF_CLEANUP,
    MatrixPolynomial,
    Polynomial,
    mono_sort_key,
)


def poly_eval(f, theta):
    """Scalar oracle: monomial-by-monomial evaluation with an exactly
    rounded sum (math.fsum), no Horner rewriting."""
    assert len(theta) == f.r
    total = []
    for e, c in f.terms.items():
        v = 1.0
        for x, p in zip(theta, e):
            if p:
                v *= float(x) ** p
        total.append(c * v)
    return math.fsum(total)


def matpoly_eval(m, theta):
    """Per-entry oracle for a matrix polynomial, entry by entry through the
    scalar oracle."""
    out = np.empty((m.rows, m.cols))
    for i in range(m.rows):
        for j in range(m.cols):
            out[i, j] = poly_eval(m.entry(i, j), theta)
    return out


def quartic_example() -> Polynomial:
    # 7t^4 + 2t^3 + 4t^2 + 6t + 9
    return Polynomial(1, {(4,): 7, (3,): 2, (2,): 4, (1,): 6, (0,): 9})


class TestPolynomial:
    def test_eval_at_one(self):
        f = quartic_example()
        assert poly_eval(f, [1.0]) == 28.0
        assert f([1.0]) == 28.0

    def test_eval_at_integer_points_exact(self):
        f = quartic_example()
        # exact for integer inputs in float range
        assert f([2.0]) == 7 * 16 + 2 * 8 + 4 * 4 + 12 + 9
        assert f([-1.0]) == 7 - 2 + 4 - 6 + 9

    def test_zero_padding_never_stored(self):
        p = Polynomial(2, {(0, 0): 0.0, (1, 0): 1.0})
        assert (0, 0) not in p.terms
        q = Polynomial(2, {(1, 0): 1.0 + -1.0})
        assert q.is_zero
        assert q.terms == {}
        assert q.degree == 0

    def test_cleanup_threshold(self):
        p = Polynomial(1, {(1,): COEFF_CLEANUP / 10})
        assert p.is_zero
        q = Polynomial(1, {(1,): 1.0 + -(1.0 - 1e-16)})
        assert q.is_zero

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(1, {(-1,): 1.0})

    def test_records_roundtrip(self):
        f = quartic_example()
        g = Polynomial(1, {tuple(rec["exponents"]): rec["coeff"]
                           for rec in f.to_records()})
        assert f == g
        # order in the serialization is graded descending
        exps = [tuple(rec["exponents"]) for rec in f.to_records()]
        assert exps == [(4,), (3,), (2,), (1,), (0,)]

    def test_mono_sort_key_order(self):
        monos = [(0, 0), (1, 1), (2, 0), (0, 2), (1, 0), (0, 1)]
        ordered = sorted(monos, key=mono_sort_key)
        assert ordered == [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]

    def test_batch_eval_matches_scalar(self):
        rng = np.random.default_rng(3)
        f = _random_poly(rng, 3)
        pts = rng.uniform(-1, 1, size=(40, 3))
        batch = f.eval_batch(pts)
        for i in range(40):
            assert batch[i] == pytest.approx(poly_eval(f, pts[i]), abs=1e-12)


class TestMatrixPolynomial:
    def test_symmetry_flag(self):
        A = MatrixPolynomial.zeros(2, 2, 1)
        p = Polynomial(1, {(1,): 2.0})
        A.set_entry(0, 1, p)
        assert not A.is_symmetric()
        A.set_entry(1, 0, p)
        assert A.is_symmetric()

    def test_constant_roundtrip(self):
        M = np.arange(6, dtype=float).reshape(2, 3)
        A = MatrixPolynomial(2, 3, 2, {(0, 0): M})
        np.testing.assert_array_equal(A([0.3, -0.7]), M)
        assert A.deg() == 0

    def test_coefficient_matrices_roundtrip(self):
        rng = np.random.default_rng(13)
        A = _random_matpoly(rng, 2, 2, r=2)
        B = MatrixPolynomial(2, 2, 2, A.coeffs)
        for i in range(2):
            for j in range(2):
                assert A.entry(i, j) == B.entry(i, j)

    def test_eval_batch_matches_pointwise(self):
        rng = np.random.default_rng(17)
        A = _random_matpoly(rng, 3, 3, r=2)
        pts = rng.uniform(-1, 1, size=(25, 2))
        batch = A.eval_batch(pts)
        for i in range(25):
            np.testing.assert_allclose(batch[i], matpoly_eval(A, pts[i]),
                                       atol=1e-12)
            np.testing.assert_array_equal(A(pts[i]), batch[i])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            MatrixPolynomial(2, 3, 1, {(1,): np.ones((3, 2))})

    def test_cleanup_is_entrywise(self):
        # tiny entries are stored as zero; a monomial left all zero is dropped
        C = np.array([[1.0, COEFF_CLEANUP], [-COEFF_CLEANUP / 2, 0.0]])
        A = MatrixPolynomial(2, 2, 1, {(0,): C,
                                       (1,): np.full((2, 2), 1e-15)})
        assert list(A.coeffs) == [(0,)]
        np.testing.assert_array_equal(A.coeffs[(0,)], [[1.0, 0.0],
                                                       [0.0, 0.0]])
        assert A.entry(0, 1).is_zero and A.entry(0, 0) == \
            Polynomial(1, {(0,): 1.0})

    def test_set_entry_replaces_and_drops_empty_monomials(self):
        A = MatrixPolynomial.zeros(2, 2, 1)
        A.set_entry(0, 1, Polynomial(1, {(1,): 2.0, (0,): 1.0}))
        A.set_entry(0, 1, Polynomial(1, {(2,): 3.0}))
        assert set(A.coeffs) == {(2,)}
        assert A.entry(0, 1) == Polynomial(1, {(2,): 3.0})


def _random_poly(rng, r, max_deg=3, n_terms=5):
    terms = {}
    for _ in range(n_terms):
        e = tuple(int(x) for x in rng.integers(0, max_deg + 1, size=r))
        terms[e] = float(rng.uniform(-3, 3))
    return Polynomial(r, terms)


def _random_matpoly(rng, rows, cols, r):
    A = MatrixPolynomial.zeros(rows, cols, r)
    for i in range(rows):
        for j in range(cols):
            A.set_entry(i, j, _random_poly(rng, r, max_deg=2, n_terms=3))
    return A
