"""Matrix-polynomial algebra."""

import json
import math

import numpy as np
import pytest

import oracles
from robustform.polyalg import (
    COEFF_CLEANUP,
    MatrixPolynomial,
    mono_sort_key,
)
from robustform.scenario import ScenarioSpec, builtin_path


def poly_eval(terms, theta):
    """Scalar oracle: monomial-by-monomial evaluation of a term dict with
    an exactly rounded sum (math.fsum), no Horner rewriting."""
    total = []
    for e, c in terms.items():
        assert len(e) == len(theta)
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
            out[i, j] = poly_eval(m.terms(i, j), theta)
    return out


def quartic_example() -> MatrixPolynomial:
    # [[7t^4 + 2t^3 + 4t^2 + 6t + 9]]
    return MatrixPolynomial(1, 1, 1, {(4,): [[7]], (3,): [[2]], (2,): [[4]],
                                      (1,): [[6]], (0,): [[9]]})


class TestPolynomial:
    """One entry's polynomial: its term dict, cleanup, evaluation and term
    records."""

    def test_eval_at_one(self):
        f = quartic_example()
        assert poly_eval(f.terms(0, 0), [1.0]) == 28.0
        assert f([1.0]).tolist() == [[28.0]]

    def test_eval_at_integer_points_exact(self):
        f = quartic_example()
        # exact for integer inputs in float range
        assert f([2.0])[0, 0] == 7 * 16 + 2 * 8 + 4 * 4 + 12 + 9
        assert f([-1.0])[0, 0] == 7 - 2 + 4 - 6 + 9

    def test_zero_padding_never_stored(self):
        # terms(i, j) holds the nonzero coefficients of one entry only
        A = MatrixPolynomial(1, 2, 2, {(0, 0): [[0.0, 1.0]],
                                       (1, 0): [[2.0, 0.0]],
                                       (0, 1): [[3.0, 4.0]]})
        assert A.terms(0, 0) == {(1, 0): 2.0, (0, 1): 3.0}
        assert A.terms(0, 1) == {(0, 0): 1.0, (0, 1): 4.0}
        assert all(type(c) is float for c in A.terms(0, 0).values())
        assert MatrixPolynomial(2, 2, 1).terms(1, 0) == {}

    def test_cleanup_threshold(self):
        # a coefficient, or a sum that cancels, of at most COEFF_CLEANUP
        # is never stored
        p = MatrixPolynomial(1, 1, 1, {(1,): [[COEFF_CLEANUP / 10]]})
        assert p.coeffs == {} and p.terms(0, 0) == {} and p.deg() == 0
        q = MatrixPolynomial(1, 1, 1, {(1,): [[1.0 + -(1.0 - 1e-16)]]})
        assert q.coeffs == {}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MatrixPolynomial(1, 1, 1, {(-1,): [[1.0]]})

    def test_records_roundtrip(self):
        # a scenario file's term records are read in record order and
        # written in graded-descending order, the constant last
        doc = json.loads(builtin_path("six_agent").read_text())
        terms = [{"exponents": e, "coeff": c} for e, c in
                 [([0, 0], 1.0), ([0, 1], 2.0), ([2, 0], 3.0),
                  ([1, 0], 4.0), ([1, 1], 5.0), ([0, 2], 6.0)]]
        doc["uncertainty"]["weights"][0]["terms"] = terms
        doc["uncertainty"]["region"][0]["terms"] = terms[::-1]
        spec = ScenarioSpec.from_dict(doc)
        assert list(spec.adjacency.entries.terms(0, 1)) == [
            (0, 0), (0, 1), (2, 0), (1, 0), (1, 1), (0, 2)]
        doc = oracles.scenario_dict(spec)
        unc = doc["uncertainty"]
        for written in (unc["weights"][0]["terms"],
                        unc["region"][0]["terms"]):
            assert [t["exponents"] for t in written] == [
                [2, 0], [1, 1], [0, 2], [1, 0], [0, 1], [0, 0]]
            assert [t["coeff"] for t in written] == [3.0, 5.0, 6.0, 4.0,
                                                     2.0, 1.0]
        assert oracles.scenario_dict(ScenarioSpec.from_dict(doc)) == doc

    def test_mono_sort_key_order(self):
        monos = [(0, 0), (1, 1), (2, 0), (0, 2), (1, 0), (0, 1)]
        ordered = sorted(monos, key=mono_sort_key)
        assert ordered == [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]

    def test_batch_eval_matches_scalar(self):
        # the region inequalities are one k x 1 column, s_k in row k
        rng = np.random.default_rng(3)
        polys = [_random_poly(rng, 3) for _ in range(4)]
        omega = oracles.region_column(3, *polys)
        pts = rng.uniform(-1, 1, size=(40, 3))
        batch = omega.eval_batch(pts)
        assert batch.shape == (40, 4, 1)
        for m in range(40):
            for k, p in enumerate(polys):
                assert batch[m, k, 0] == pytest.approx(
                    poly_eval(p, pts[m]), abs=1e-12)


class TestMatrixPolynomial:
    def test_symmetry_flag(self):
        A = oracles.matpoly(2, 2, 1, {(0, 1): {(1,): 2.0}})
        assert not A.is_symmetric()
        assert oracles.weight_matrix(2, 1, {(0, 1): {(1,): 2.0}}) \
            .is_symmetric()

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
                assert A.terms(i, j) == B.terms(i, j)

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
        assert A.terms(0, 1) == {} and A.terms(0, 0) == {(0,): 1.0}


def _random_poly(rng, r, max_deg=3, n_terms=5):
    terms = {}
    for _ in range(n_terms):
        e = tuple(int(x) for x in rng.integers(0, max_deg + 1, size=r))
        terms[e] = float(rng.uniform(-3, 3))
    return terms


def _random_matpoly(rng, rows, cols, r):
    return oracles.matpoly(rows, cols, r, {
        (i, j): _random_poly(rng, r, max_deg=2, n_terms=3)
        for i in range(rows) for j in range(cols)})
