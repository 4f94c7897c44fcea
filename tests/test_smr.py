"""Gram representations: power vectors, canonical forms, null spaces.

The canonical (equal-split) form is built with gram_base, as the
certifier's assembly builds it; see gram_form below."""

import math

import numpy as np
import pytest

import oracles
from robustform import sdp
from robustform.smr import (
    _positions,
    gram_base,
    gram_expand,
    gram_null_basis,
    power_vector,
)


def _scalar(r, terms):
    """The 1 x 1 matrix polynomial of a term dict."""
    return oracles.matpoly(1, 1, r, {(0, 0): terms})


# Reference quartic used throughout: 7t^4 + 2t^3 + 4t^2 + 6t + 9.
QUARTIC = _scalar(1, {(4,): 7.0, (3,): 2.0, (2,): 4.0, (1,): 6.0, (0,): 9.0})

# A second valid Gram matrix for it against phi = (t^2, t, 1), worked out
# by hand, together with the one-dimensional null direction of that phi.
QUARTIC_GRAM = np.array([[7.0, 1.0, 0.0],
                         [1.0, 4.0, 3.0],
                         [0.0, 3.0, 9.0]])
NULL_PATTERN = np.array([[0.0, 0.0, -1.0],
                         [0.0, 2.0, 0.0],
                         [-1.0, 0.0, 0.0]])


def gram_form(m, d):
    """Power vector and canonical Gram matrix of a matrix polynomial of
    degree <= 2d, through gram_base."""
    pv = power_vector(m.r, d)
    return pv, gram_base(m.coeffs, pv, m.rows, _positions(pv))


def null_dimension(r, d, s=1):
    """Kernel dimension by rank count: dim of the symmetric space minus the
    number of (monomial, symmetric-entry) coefficient constraints."""
    pv = power_vector(r, d)
    l = len(pv)
    sym_part = sum(len(p) - 1 for p in _positions(pv).values()) \
        * (s * (s + 1) // 2)
    anti_part = (l * (l - 1) // 2) * (s * (s - 1) // 2)
    return sym_part + anti_part


class TestPowerVector:
    def test_univariate_d2_order(self):
        pv = power_vector(1, 2)
        assert pv.monos == ((2,), (1,), (0,))

    def test_bivariate_d1_order(self):
        pv = power_vector(2, 1)
        assert pv.monos == ((1, 0), (0, 1), (0, 0))

    def test_bivariate_d2_order(self):
        pv = power_vector(2, 2)
        assert pv.monos == ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))

    def test_lengths_are_binomial(self):
        for r in range(1, 5):
            for d in range(0, 5):
                assert len(power_vector(r, d)) == math.comb(r + d, d)

    def test_eval(self):
        pv = power_vector(1, 2)
        np.testing.assert_allclose(pv.eval_batch([3.0]), [[9.0, 3.0, 1.0]])

    def test_constant_monomial_last(self):
        for r in (1, 2, 3):
            for d in (1, 2, 3):
                assert power_vector(r, d).monos[-1] == (0,) * r


class TestCanonicalGram:
    def test_quartic_equal_split(self):
        _pv, base = gram_form(QUARTIC, 2)
        np.testing.assert_allclose(
            base, [[7, 1, 1], [1, 2, 3], [1, 3, 9]], atol=1e-15)

    def test_expand_inverts_canonical(self):
        pv, base = gram_form(QUARTIC, 2)
        f = oracles.gram_expand_matrix(base, pv, 1)
        assert f.terms(0, 0) == QUARTIC.terms(0, 0)

    def test_gram_expand_matches_oracle(self):
        # the package's expansion, batched over a leading axis, against the
        # oracle's, one Gram matrix at a time
        rng = np.random.default_rng(23)
        for r, d, s in [(1, 2, 1), (2, 1, 3), (3, 2, 2)]:
            pv = power_vector(r, d)
            A = rng.normal(size=(4,) + (len(pv) * s,) * 2)
            got = gram_expand(A, pv, s)
            for k in range(4):
                want = oracles.gram_expand_matrix(A[k], pv, s).coeffs
                assert sorted(got) == sorted(want)
                for mu, C in want.items():
                    np.testing.assert_allclose(got[mu][k], C, rtol=0,
                                               atol=1e-12)

    def test_handworked_gram_is_in_affine_family(self):
        # the hand-worked representative differs from the canonical base by
        # exactly one null direction
        _pv, base = gram_form(QUARTIC, 2)
        null_basis = oracles.null_matrices(1, 2, 1)
        assert len(null_basis) == 1
        diff = QUARTIC_GRAM - base
        B = null_basis[0]
        coef = np.sum(diff * B)  # orthonormal basis: projection is exact
        np.testing.assert_allclose(coef * B, diff, atol=1e-13)

    def test_handworked_gram_expands_to_quartic_with_deltas(self):
        pv, _base = gram_form(QUARTIC, 2)
        for delta in (-1.0, 0.0, 2.5):
            A = QUARTIC_GRAM + delta * NULL_PATTERN
            f = oracles.gram_expand_matrix(A, pv, 1).terms(0, 0)
            want = QUARTIC.terms(0, 0)
            err = max(abs(f.get(e, 0.0) - c) for e, c in want.items())
            assert err < 1e-12
            assert set(f) == set(want)

    def test_degree_too_high_rejected(self):
        with pytest.raises(ValueError):
            gram_form(QUARTIC, 1)

    def test_matrix_case_roundtrip(self):
        rng = np.random.default_rng(2)
        r, s, d = 2, 3, 1
        M = _random_sym_matpoly(rng, s, r, 2 * d)
        pv, base = gram_form(M, d)
        back = oracles.gram_expand_matrix(base, pv, s)
        _assert_matpoly_close(back, M, atol=1e-12)

    def test_base_is_symmetric(self):
        rng = np.random.default_rng(4)
        M = _random_sym_matpoly(rng, 2, 2, 2)
        _pv, base = gram_form(M, 1)
        np.testing.assert_allclose(base, base.T, atol=1e-15)


class TestNullBasis:
    def test_univariate_d2_dimension_and_pattern(self):
        nb = oracles.null_matrices(1, 2, 1)
        assert len(nb) == 1
        B = nb[0]
        # proportional to the hand-worked pattern (not necessarily equal)
        ratio = B[1, 1] / NULL_PATTERN[1, 1]
        np.testing.assert_allclose(B, ratio * NULL_PATTERN, atol=1e-14)
        assert np.linalg.norm(B) == pytest.approx(1.0, abs=1e-14)

    def test_dimension_formula_matches_rank_computation(self):
        # compare against a generic SVD-based kernel of the expansion map
        for (r, d, s) in [(1, 2, 1), (2, 1, 1), (2, 2, 1), (1, 1, 2),
                          (2, 1, 2), (1, 2, 2), (3, 1, 2)]:
            nb = oracles.null_matrices(r, d, s)
            assert len(nb) == null_dimension(r, d, s)
            assert len(nb) == _kernel_dim_by_svd(r, d, s)

    def test_case_r2_d1_s2(self):
        nb = oracles.null_matrices(2, 1, 2)
        assert len(nb) == null_dimension(2, 1, 2)
        pv = power_vector(2, 1)
        for B in nb:
            M = oracles.gram_expand_matrix(B, pv, 2)
            assert M.deg() == 0
            assert M.coeffs == {}

    def test_elements_orthonormal(self):
        for (r, d, s) in [(1, 2, 1), (2, 2, 1), (2, 1, 3), (1, 3, 2)]:
            nb = oracles.null_matrices(r, d, s)
            for i, Bi in enumerate(nb):
                for j, Bj in enumerate(nb):
                    ip = np.sum(Bi * Bj)
                    assert ip == pytest.approx(1.0 if i == j else 0.0,
                                               abs=1e-11)

    def test_elements_symmetric_and_expand_to_zero(self):
        for (r, d, s) in [(1, 2, 1), (2, 2, 1), (3, 1, 2), (2, 2, 2)]:
            pv = power_vector(r, d)
            for B in oracles.null_matrices(r, d, s):
                np.testing.assert_allclose(B, B.T, atol=1e-14)
                M = oracles.gram_expand_matrix(B, pv, s)
                worst = max((np.max(np.abs(C)) for C in M.coeffs.values()),
                            default=0.0)
                assert worst < 1e-12


    # (r, d, s) shapes; in the first four no monomial has more than two
    # Gram positions, so no element needs a Gram-Schmidt projection
    SHAPES = [(1, 2, 1), (1, 2, 2), (2, 1, 3), (3, 1, 2),
              (2, 2, 1), (1, 3, 2), (2, 2, 2), (3, 2, 2)]

    @pytest.mark.parametrize("r,d,s", SHAPES)
    def test_columns_orthonormal(self, r, d, s):
        N = gram_null_basis(r, d, s)
        assert N.shape == (sdp.svec_dim(len(power_vector(r, d)) * s),
                           null_dimension(r, d, s))
        np.testing.assert_allclose((N.T @ N).toarray(),
                                   np.eye(N.shape[1]), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("r,d,s", SHAPES)
    def test_columns_match_dense_construction(self, r, d, s):
        # same elements, order and signs as the dense Gram-Schmidt pass;
        # bit for bit where no projection is taken
        N = gram_null_basis(r, d, s).toarray()
        ref = np.array([sdp.svec(B) for B in oracles.null_basis(r, d, s)]).T
        assert N.shape == ref.shape
        if self.SHAPES.index((r, d, s)) < 4:
            np.testing.assert_array_equal(N, ref)
        else:
            np.testing.assert_allclose(N, ref, rtol=0, atol=1e-15)

    def test_built_once_and_read_only(self):
        # assembly and replay share the one matrix, so no caller may
        # write to it
        N = gram_null_basis(2, 2, 3)
        assert gram_null_basis(2, 2, 3) is N
        for a in (N.data, N.indices, N.indptr):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]


class TestRoundTripRandom:
    def test_scalar_roundtrip_random(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            r = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4 if r < 3 else 3))
            f = _random_poly_of_degree(rng, r, 2 * d)
            pv, base = gram_form(_scalar(r, f), d)
            back = oracles.gram_expand_matrix(base, pv, 1).terms(0, 0)
            err = max(abs(back.get(e, 0.0) - c) for e, c in f.items())
            assert err < 1e-10
            # random family member expands to the same polynomial
            null_basis = oracles.null_matrices(r, d, 1)
            delta = rng.uniform(-2, 2, size=len(null_basis))
            member = base + sum(dk * B for dk, B in zip(delta, null_basis))
            back2 = oracles.gram_expand_matrix(member, pv, 1).terms(0, 0)
            err2 = max(abs(back2.get(e, 0.0) - c) for e, c in f.items())
            assert err2 < 1e-10

    def test_pad_preserves_expansion(self):
        # a matrix polynomial of degree <= 2 d_from, taken against the
        # longer power vector of degree d_to (as the certifier does when a
        # region inequality raises d_H), expands back to itself
        rng = np.random.default_rng(23)
        for _ in range(20):
            r = int(rng.integers(1, 3))
            d_from = int(rng.integers(1, 3))
            d_to = d_from + int(rng.integers(0, 2))
            s = int(rng.integers(1, 3))
            M = _random_sym_matpoly(rng, s, r, 2 * d_from)
            pv, A2 = gram_form(M, d_to)
            back = oracles.gram_expand_matrix(A2, pv, s)
            _assert_matpoly_close(back, M, atol=1e-11)


def _random_poly_of_degree(rng, r, deg):
    terms = {}
    n = int(rng.integers(2, 7))
    for _ in range(n):
        while True:
            e = tuple(int(x) for x in rng.integers(0, deg + 1, size=r))
            if sum(e) <= deg:
                break
        terms[e] = float(rng.uniform(-5, 5))
    return terms


def _random_sym_matpoly(rng, s, r, deg):
    w = {(i, j): _random_poly_of_degree(rng, r, deg)
         for i in range(s) for j in range(i, s)}
    return oracles.weight_matrix(s, r, w)


def _assert_matpoly_close(A, B, atol):
    assert A.shape == B.shape
    for i in range(A.rows):
        for j in range(A.cols):
            pa, pb = A.terms(i, j), B.terms(i, j)
            for e in set(pa) | set(pb):
                assert pa.get(e, 0.0) == pytest.approx(pb.get(e, 0.0),
                                                       abs=atol)


def _kernel_dim_by_svd(r, d, s):
    """Generic kernel dimension of the expansion map, for cross-checking."""
    pv = power_vector(r, d)
    l = len(pv)
    size = l * s
    # basis of the symmetric matrix space
    rows = []
    for p in range(size):
        for q in range(p, size):
            E = np.zeros((size, size))
            E[p, q] = E[q, p] = 1.0
            M = oracles.gram_expand_matrix(E, pv, s)
            vec = []
            # fixed coefficient coordinates: all monomials up to 2d, all entries
            full = power_vector(r, 2 * d).monos
            for mu in full:
                for i in range(s):
                    for j in range(i, s):
                        vec.append(M.terms(i, j).get(mu, 0.0))
            rows.append(vec)
    A = np.array(rows).T
    rank = np.linalg.matrix_rank(A, tol=1e-9)
    return A.shape[1] - rank
